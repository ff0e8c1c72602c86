package service

import (
	"strings"
	"testing"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/datasets"
	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// panicSource detonates on its first Scan, exercising the worker's panic
// guard through the same path a latent mining bug would take.
type panicSource struct {
	src txdb.Source
}

func (p *panicSource) Scan(fn func(tx itemset.Set) error) error {
	panic("injected mining panic")
}
func (p *panicSource) Len() int               { return p.src.Len() }
func (p *panicSource) Dict() *dict.Dictionary { return p.src.Dict() }

// TestWorkerPanicRecovery pins the containment contract: a panic inside a
// mine fails that job (stack trace in the error) without killing the worker
// — the queue keeps serving subsequent jobs at full capacity.
func TestWorkerPanicRecovery(t *testing.T) {
	toy := datasets.PaperToy()
	bomb := &Dataset{Name: "bomb", Tree: toy.Tree, Src: &panicSource{src: toy.DB}}
	checkPanicContained(t, bomb, toy.Config())
}

// TestShardWorkerPanicRecovery is the same contract when the panic is
// raised on a pool goroutine of the engine rather than on the job's own:
// two panicking shards built by two workers.
func TestShardWorkerPanicRecovery(t *testing.T) {
	toy := datasets.PaperToy()
	parts := txdb.Partition(toy.DB, 2)
	src, err := txdb.NewSharded(&panicSource{src: parts[0]}, &panicSource{src: parts[1]})
	if err != nil {
		t.Fatal(err)
	}
	bomb := &Dataset{Name: "bomb", Tree: toy.Tree, Src: src}
	cfg := toy.Config()
	cfg.Parallelism = 2
	checkPanicContained(t, bomb, cfg)
}

// checkPanicContained mines bomb, whose source panics, on a one-worker queue
// and requires the job to fail with the panic and its stack, a second job
// on bomb to fail rather than mine the half-built dataset, and the queue to
// run a clean job afterwards.
func checkPanicContained(t *testing.T, bomb *Dataset, cfg core.Config) {
	t.Helper()
	toy := datasets.PaperToy()
	good := &Dataset{Name: "toy", Tree: toy.Tree, Src: toy.DB}

	q := NewQueue(1, 4, 100, NewCache(4))
	defer q.Close()

	j, err := q.Submit(bomb, JobMine, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Wait(j, 10*time.Second) {
		t.Fatal("panicking job never finalized — the worker died with it")
	}
	v, _ := q.Get(j.ID)
	if v.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", v.Status)
	}
	if !strings.Contains(v.Error, "job panicked") || !strings.Contains(v.Error, "injected mining panic") {
		t.Fatalf("error %q does not carry the panic", v.Error)
	}
	if !strings.Contains(v.Error, "goroutine") {
		t.Fatalf("error %q does not carry a stack trace", v.Error)
	}

	again := cfg
	again.Gamma += 0.01 // other work: neither coalesced nor a cache hit
	j, err = q.Submit(bomb, JobMine, again, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Wait(j, 10*time.Second) {
		t.Fatal("second job on the panicked dataset never finalized")
	}
	if v, _ := q.Get(j.ID); v.Status != StatusFailed || !strings.Contains(v.Error, "panicked") {
		t.Fatalf("second job on the panicked dataset = %s %q, want failed", v.Status, v.Error)
	}

	// The single worker survived: a clean job still runs to completion.
	j2, err := q.Submit(good, JobMine, toy.Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Wait(j2, 10*time.Second) {
		t.Fatal("job after panic never finished — worker pool lost capacity")
	}
	if v2, _ := q.Get(j2.ID); v2.Status != StatusDone {
		t.Fatalf("job after panic = %+v, want done", v2)
	}
}

// TestCloseDrainsInFlight pins the graceful-shutdown contract: Close waits
// for the running job, and its result is recorded and pollable afterwards.
func TestCloseDrainsInFlight(t *testing.T) {
	toy := datasets.PaperToy()
	gated := newGatedSource(toy.DB)
	d := &Dataset{Name: "toy", Tree: toy.Tree, Src: gated}

	q := NewQueue(1, 4, 100, NewCache(4))
	j, err := q.Submit(d, JobMine, toy.Config(), nil)
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		q.Close()
		close(closed)
	}()

	// Close must block while the job is still mining.
	select {
	case <-closed:
		t.Fatal("Close returned with a job still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	gated.release()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the in-flight job finished")
	}
	v, ok := q.Get(j.ID)
	if !ok || v.Status != StatusDone || len(v.Result) == 0 {
		t.Fatalf("drained job = %+v, want done with result", v)
	}
}

// TestCancelQueuedJob pins that cancelling a job still in the queue
// finalizes it immediately — it never starts, never mines, and the worker
// skips it when its turn comes.
func TestCancelQueuedJob(t *testing.T) {
	toy := datasets.PaperToy()
	gated := newGatedSource(toy.DB)
	d := &Dataset{Name: "toy", Tree: toy.Tree, Src: gated}

	q := NewQueue(1, 4, 100, NewCache(4))
	defer q.Close()

	// The single worker blocks on the gated job; the second submission
	// (distinct ε → distinct key) waits in the channel.
	running, err := q.Submit(d, JobMine, toy.Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := toy.Config()
	cfg.Epsilon = 0.25
	queued, err := q.Submit(d, JobMine, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	v, err := q.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCancelled || v.Error != "cancelled" {
		t.Fatalf("cancelled queued job = %+v", v)
	}
	if v.Started != nil || v.ElapsedNS != 0 {
		t.Fatalf("queued job reports a start it never had: %+v", v)
	}
	if !q.Wait(queued, time.Second) {
		t.Fatal("cancelled queued job not finalized immediately")
	}

	gated.release()
	if !q.Wait(running, 10*time.Second) {
		t.Fatal("running job did not finish")
	}
	if got := q.Stats().MinesRun; got != 1 {
		t.Errorf("mines run = %d, want 1 — the cancelled job must never mine", got)
	}
	if got := q.Stats().Cancelled; got != 1 {
		t.Errorf("cancelled counter = %d, want 1", got)
	}
}

// TestCancelRunningJob pins the end-to-end cancellation path: Cancel on a
// running job stops the miner at its next checkpoint, the job lands in
// StatusCancelled, and — because aborted runs are never cached — an
// identical resubmission mines fresh and completes.
func TestCancelRunningJob(t *testing.T) {
	toy := datasets.PaperToy()
	gated := newGatedSource(toy.DB)
	d := &Dataset{Name: "toy", Tree: toy.Tree, Src: gated}

	q := NewQueue(1, 4, 100, NewCache(4))
	defer q.Close()

	j, err := q.Submit(d, JobMine, toy.Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := q.Get(j.ID); v.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := q.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	// A second cancel of a still-running job is an idempotent no-op.
	if _, err := q.Cancel(j.ID); err != nil && err != ErrJobFinished {
		t.Fatalf("second cancel: %v", err)
	}
	gated.release()
	if !q.Wait(j, 10*time.Second) {
		t.Fatal("cancelled job never finalized")
	}
	v, _ := q.Get(j.ID)
	if v.Status != StatusCancelled || v.Error != "cancelled" {
		t.Fatalf("job = %+v, want cancelled", v)
	}
	if len(v.Result) != 0 {
		t.Fatal("cancelled job carries a result payload")
	}

	// Cancelling a finished job is a conflict, with the state returned.
	if _, err := q.Cancel(j.ID); err != ErrJobFinished {
		t.Fatalf("cancel finished job: err = %v, want ErrJobFinished", err)
	}
	if _, err := q.Cancel("job-999999"); err != ErrUnknownJob {
		t.Fatalf("cancel unknown job: err = %v, want ErrUnknownJob", err)
	}

	// The aborted run was not cached: the same work resubmitted mines again.
	j2, err := q.Submit(d, JobMine, toy.Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if j2.CacheHit {
		t.Fatal("resubmission after cancel hit the cache — aborted runs must not be cached")
	}
	if !q.Wait(j2, 10*time.Second) {
		t.Fatal("resubmitted job did not finish")
	}
	if v2, _ := q.Get(j2.ID); v2.Status != StatusDone {
		t.Fatalf("resubmitted job = %+v, want done", v2)
	}
}

// TestJobTimeout pins the deadline path: a job whose work outlives its
// timeout finishes in StatusCancelled with the timeout named in the error,
// distinguishable from an explicit cancel.
func TestJobTimeout(t *testing.T) {
	toy := datasets.PaperToy()
	gated := newGatedSource(toy.DB)
	d := &Dataset{Name: "toy", Tree: toy.Tree, Src: gated}

	q := NewQueue(1, 4, 100, NewCache(4))
	defer q.Close()

	j, err := q.SubmitTimeout(d, JobMine, toy.Config(), nil, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.Timeout != 30*time.Millisecond {
		t.Fatalf("job timeout = %s", j.Timeout)
	}
	// Hold the gate well past the deadline, then let the miner run into it.
	time.Sleep(80 * time.Millisecond)
	gated.release()
	if !q.Wait(j, 10*time.Second) {
		t.Fatal("timed-out job never finalized")
	}
	v, _ := q.Get(j.ID)
	if v.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", v.Status)
	}
	if !strings.Contains(v.Error, "job timeout") || !strings.Contains(v.Error, "30ms") {
		t.Fatalf("error %q does not name the timeout", v.Error)
	}
	if v.TimeoutMS != 30 {
		t.Fatalf("timeout_ms = %d, want 30", v.TimeoutMS)
	}
}

// TestCoalescedSubmissionKeepsDeadline pins that a duplicate submission
// coalesces onto the inflight job — the deadline is an execution bound, not
// part of the work's identity.
func TestCoalescedSubmissionKeepsDeadline(t *testing.T) {
	toy := datasets.PaperToy()
	gated := newGatedSource(toy.DB)
	d := &Dataset{Name: "toy", Tree: toy.Tree, Src: gated}

	q := NewQueue(1, 4, 100, NewCache(4))
	defer q.Close()
	defer gated.release()

	a, err := q.SubmitTimeout(d, JobMine, toy.Config(), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.SubmitTimeout(d, JobMine, toy.Config(), nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("identical submissions got distinct jobs %s and %s", a.ID, b.ID)
	}
	if b.Timeout != time.Minute {
		t.Fatalf("coalesced job timeout = %s, want the original minute", b.Timeout)
	}
}
