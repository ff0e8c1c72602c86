package core_test

// Cancellation tests live in an external test package so they can drive the
// engine through the dense benchmark workload in internal/experiments
// (which itself imports core).

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/experiments"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

func denseCfg() core.Config {
	return core.Config{
		Measure:   measure.Kulczynski,
		Gamma:     0.3,
		Epsilon:   0.1,
		MinSupAbs: []int64{2, 1},
		Pruning:   core.Full,
	}
}

func denseWorkload(t *testing.T, n int) (*txdb.DB, *taxonomy.Tree) {
	t.Helper()
	db, tree, err := experiments.DenseWorkload(n, 10, 8, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	return db, tree
}

// TestCancellationLatency is the acceptance property of the checkpoint
// design: a CPU-bound mine over a dense workload must observe cancellation
// and return within 100ms. The workload escalates until the mine is still
// running when the cancel fires, so a fast machine cannot make the test
// vacuous.
func TestCancellationLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const bound = 100 * time.Millisecond
	for _, n := range []int{6000, 24000, 96000} {
		db, tree := denseWorkload(t, n)
		ctx, cancel := context.WithCancel(context.Background())
		type outcome struct {
			err     error
			latency time.Duration
		}
		res := make(chan outcome, 1)
		var cancelledAt time.Time
		go func() {
			_, err := core.MineContext(ctx, db, tree, denseCfg())
			res <- outcome{err: err, latency: time.Since(cancelledAt)}
		}()
		time.Sleep(25 * time.Millisecond)
		cancelledAt = time.Now()
		cancel()
		out := <-res
		if out.err == nil {
			// The mine beat the cancel; try a workload large enough that it
			// cannot.
			continue
		}
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("n=%d: err = %v, want wrapped context.Canceled", n, out.err)
		}
		if out.latency > bound {
			t.Fatalf("n=%d: mine took %s to observe cancellation, want < %s", n, out.latency, bound)
		}
		return
	}
	t.Fatal("every workload finished before the cancel fired; latency was never measured")
}

// TestMineContextPreCancelled pins the fast path: an already-cancelled
// context aborts before any data preparation.
func TestMineContextPreCancelled(t *testing.T) {
	db, tree := denseWorkload(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.MineContext(ctx, db, tree, denseCfg()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestMineContextDeadline pins that a deadline surfaces as
// context.DeadlineExceeded, distinguishable from an explicit cancel.
func TestMineContextDeadline(t *testing.T) {
	db, tree := denseWorkload(t, 24000)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := core.MineContext(ctx, db, tree, denseCfg())
	if err == nil {
		t.Skip("mine finished inside a 10ms deadline; nothing to assert")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// TestMineContextCancelAllStrategies drives unsharded and sharded counting
// through a cancelled run: each must abort with the context error, not hang
// or return partial results.
func TestMineContextCancelAllStrategies(t *testing.T) {
	db, tree := denseWorkload(t, 6000)
	for _, shards := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			res, err := core.MineContext(ctx, txdb.PartitionSource(db, shards), tree, denseCfg())
			if err == nil && res == nil {
				err = errors.New("nil result without error")
			}
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			// A fast run may legitimately finish before the cancel.
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("shards=%d: err = %v, want nil or context.Canceled", shards, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("shards=%d: mine hung after cancel", shards)
		}
	}
}

// TestEpsilonSweepContextCancel pins that a sweep aborts between steps.
func TestEpsilonSweepContextCancel(t *testing.T) {
	db, tree := denseWorkload(t, 6000)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := core.EpsilonSweepContext(ctx, db, tree, denseCfg(),
			[]float64{0.29, 0.25, 0.2, 0.15, 0.1, 0.05})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep hung after cancel")
	}
}

// TestSuggestEpsilonContextCancel pins that the ε bisection aborts when its
// context is cancelled mid-search.
func TestSuggestEpsilonContextCancel(t *testing.T) {
	db, tree := denseWorkload(t, 6000)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := core.SuggestEpsilonContext(ctx, db, tree, denseCfg(), 10)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bisection hung after cancel")
	}
}
