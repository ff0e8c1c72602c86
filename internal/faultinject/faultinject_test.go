package faultinject

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/experiments"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// fingerprint reduces a mining result to its observable output — patterns
// with chains, supports, correlations and labels — for byte comparison.
func fingerprint(t *testing.T, res *core.Result) string {
	t.Helper()
	b, err := json.Marshal(res.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// buildWorkload returns a dense dataset plus its partitions written as
// basket shard files — the out-of-core layout the fault tests mine.
func buildWorkload(t *testing.T) (*txdb.DB, *taxonomy.Tree, []string) {
	t.Helper()
	db, tree, err := experiments.DenseWorkload(300, 6, 4, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	parts := txdb.Partition(db, 7)
	paths := make([]string, len(parts))
	for i, part := range parts {
		path := filepath.Join(dir, fmt.Sprintf("shard%03d.txt", i))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := part.WriteBaskets(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths[i] = path
	}
	return db, tree, paths
}

func testConfig(strategy core.CountStrategy) core.Config {
	return core.Config{
		Measure:   measure.Kulczynski,
		Gamma:     0.3,
		Epsilon:   0.1,
		MinSupAbs: []int64{2, 1},
		Pruning:   core.Full,
		Strategy:  strategy,
		// Scan can run fully out of core (every counting pass re-reads
		// disk); the vertical backends need materialized views, so their
		// disk reads — still through the faulty reader — happen during the
		// materialization passes.
		Materialize: strategy != core.CountScan,
	}
}

// openFaultyShards groups the shard files into `shards` sources, each
// file-backed and wrapped with its own deterministic injector (one
// injector per shard keeps the schedule replayable under the parallel
// shard pool).
func openFaultyShards(t *testing.T, paths []string, tree *taxonomy.Tree, shards int, plan Plan) (txdb.Source, []*Injector) {
	t.Helper()
	injectors := make([]*Injector, 0, shards)
	srcs := make([]txdb.Source, 0, shards)
	// Group the 7 files into `shards` sharded sources by striding, so shard
	// counts 1, 2 and 7 all reuse the same files.
	groups := make([][]string, shards)
	for i, p := range paths {
		groups[i%shards] = append(groups[i%shards], p)
	}
	for gi, group := range groups {
		var members []txdb.Source
		for _, p := range group {
			fs, err := txdb.OpenFile(p, tree.Dict())
			if err != nil {
				t.Fatal(err)
			}
			inj := New(Plan{
				Seed:       plan.Seed + int64(gi*31+len(members)),
				FailEveryN: plan.FailEveryN,
				MaxFaults:  plan.MaxFaults,
				ShortReads: plan.ShortReads,
			})
			fs.SetReaderWrapper(inj.Reader)
			fs.SetRetry(txdb.RetryPolicy{Attempts: 8})
			injectors = append(injectors, inj)
			members = append(members, fs)
		}
		if len(members) == 1 {
			srcs = append(srcs, members[0])
			continue
		}
		sub, err := txdb.NewSharded(members...)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, sub)
	}
	if len(srcs) == 1 {
		return srcs[0], injectors
	}
	ss, err := txdb.NewSharded(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	return ss, injectors
}

// TestFaultInjectedEquivalence is the acceptance property of the retry
// layer: across every counting strategy and shard counts 1, 2 and 7,
// mining an out-of-core source whose reads fail, truncate and stall on a
// seeded schedule produces output byte-identical to the fault-free
// in-memory run.
func TestFaultInjectedEquivalence(t *testing.T) {
	db, tree, paths := buildWorkload(t)
	strategies := []core.CountStrategy{core.CountScan, core.CountBitmap, core.CountAuto}
	shardCounts := []int{1, 2, 7}
	for _, strategy := range strategies {
		cfg := testConfig(strategy)
		base, err := core.Mine(db, tree, cfg)
		if err != nil {
			t.Fatalf("%v baseline: %v", strategy, err)
		}
		want := fingerprint(t, base)
		for _, shards := range shardCounts {
			src, injectors := openFaultyShards(t, paths, tree, shards, Plan{
				Seed:       42,
				FailEveryN: 4,
				ShortReads: true,
			})
			res, err := core.Mine(src, tree, cfg)
			if err != nil {
				t.Fatalf("%v shards=%d under faults: %v", strategy, shards, err)
			}
			if got := fingerprint(t, res); got != want {
				t.Fatalf("%v shards=%d diverged under faults.\nwant:\n%s\ngot:\n%s",
					strategy, shards, want, got)
			}
			faults := 0
			for _, inj := range injectors {
				_, f := inj.Stats()
				faults += f
			}
			if faults == 0 {
				t.Fatalf("%v shards=%d: no faults injected — the test proved nothing", strategy, shards)
			}
		}
	}
}

// TestHardScanFaultFailsMine pins the other side of the contract: a
// non-transient scan failure must fail the mine, not silently degrade.
func TestHardScanFaultFailsMine(t *testing.T) {
	db, tree, _ := buildWorkload(t)
	hard := errors.New("shard corrupted")
	src := &Source{Inner: db, FailAt: 50, Err: hard}
	if _, err := core.Mine(src, tree, testConfig(core.CountScan)); !errors.Is(err, hard) {
		t.Fatalf("mine over hard-failing source: err = %v, want wrapped %v", err, hard)
	}
}

// TestInjectorDeterminism replays the same seed over the same read
// sequence and checks the fault schedule is identical.
func TestInjectorDeterminism(t *testing.T) {
	run := func() []int {
		inj := New(Plan{Seed: 7, FailEveryN: 3, ShortReads: true})
		r := inj.Reader(bytes.NewReader(bytes.Repeat([]byte("x"), 4096)))
		var faultReads []int
		buf := make([]byte, 64)
		for {
			_, err := r.Read(buf)
			var te *TransientError
			if errors.As(err, &te) {
				faultReads = append(faultReads, te.Read)
				continue
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return faultReads
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults fired")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("schedules diverged: %v vs %v", a, b)
	}
}

// TestMaxFaultsCap pins the fault budget: injection stops at MaxFaults.
func TestMaxFaultsCap(t *testing.T) {
	inj := New(Plan{Seed: 1, FailEveryN: 1, MaxFaults: 3})
	r := inj.Reader(bytes.NewReader(bytes.Repeat([]byte("x"), 1024)))
	buf := make([]byte, 16)
	faults := 0
	for {
		_, err := r.Read(buf)
		var te *TransientError
		if errors.As(err, &te) {
			faults++
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if faults != 3 {
		t.Fatalf("injected %d faults, want exactly 3", faults)
	}
}
