package service

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/flipper-mining/flipper/internal/datasets"
	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// gatedSource wraps a Source and blocks the first Scan until released,
// making "job still in flight" states deterministic in tests.
type gatedSource struct {
	src  txdb.Source
	gate chan struct{}
	once sync.Once
}

func newGatedSource(src txdb.Source) *gatedSource {
	return &gatedSource{src: src, gate: make(chan struct{})}
}

func (g *gatedSource) release() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedSource) Scan(fn func(tx itemset.Set) error) error {
	<-g.gate
	return g.src.Scan(fn)
}
func (g *gatedSource) Len() int               { return g.src.Len() }
func (g *gatedSource) Dict() *dict.Dictionary { return g.src.Dict() }

// TestSingleFlight pins the dedup guarantee: N identical submissions while
// the first is still mining coalesce onto one job and trigger exactly one
// mine.
func TestSingleFlight(t *testing.T) {
	toy := datasets.PaperToy()
	gated := newGatedSource(toy.DB)
	d := &Dataset{Name: "toy", Tree: toy.Tree, Src: gated}
	cfg := toy.Config()

	cache := NewCache(16)
	q := NewQueue(2, 16, 100, cache)
	defer q.Close()

	const n = 12
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := q.Submit(d, JobMine, cfg, nil)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()

	// All submissions landed on the same in-flight job.
	for i, j := range jobs {
		if j == nil || j.ID != jobs[0].ID {
			t.Fatalf("submission %d got job %+v, want coalesced onto %s", i, j, jobs[0].ID)
		}
	}
	gated.release()
	if !q.Wait(jobs[0], 10*time.Second) {
		t.Fatal("job did not finish")
	}
	if got := q.Stats().MinesRun; got != 1 {
		t.Errorf("mines run = %d, want exactly 1", got)
	}
	v, _ := q.Get(jobs[0].ID)
	if v.Status != StatusDone {
		t.Fatalf("job = %+v", v)
	}

	// Post-completion, the same work is a cache hit with identical bytes.
	j2, err := q.Submit(d, JobMine, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit || j2.Status != StatusDone {
		t.Fatalf("post-completion job = %+v, want immediate cache hit", j2)
	}
	if !bytes.Equal(j2.Result, v.Result) {
		t.Error("cache hit bytes differ from the original run")
	}
	if got := q.Stats().MinesRun; got != 1 {
		t.Errorf("mines run after cache hit = %d, want still 1", got)
	}
}

// TestQueueFull pins the bounded-queue contract: with the only worker
// blocked and the channel full, further distinct submissions are rejected
// with ErrQueueFull rather than queued unboundedly.
func TestQueueFull(t *testing.T) {
	toy := datasets.PaperToy()
	gated := newGatedSource(toy.DB)
	d := &Dataset{Name: "toy", Tree: toy.Tree, Src: gated}

	q := NewQueue(1, 1, 100, NewCache(16))
	defer q.Close()
	defer gated.release()

	// Distinct ε values make distinct job keys, defeating single-flight.
	cfg := toy.Config()
	epsilons := []float64{0.30, 0.31, 0.32, 0.33, 0.34}
	var accepted int
	var full bool
	for _, e := range epsilons {
		c := cfg
		c.Epsilon = e
		_, err := q.Submit(d, JobMine, c, nil)
		switch err {
		case nil:
			accepted++
		case ErrQueueFull:
			full = true
		default:
			t.Fatal(err)
		}
	}
	if !full {
		t.Error("queue of depth 1 accepted 5 jobs without ErrQueueFull")
	}
	// The blocked worker holds one job and the channel one more.
	if accepted > 2 {
		t.Errorf("accepted = %d, want ≤ 2", accepted)
	}
}

// TestSweepKeyIgnoresBaseEpsilon pins that identical sweeps whose configs
// differ only in the base ε — which EpsilonSweep overrides at every point —
// share one cache slot.
func TestSweepKeyIgnoresBaseEpsilon(t *testing.T) {
	toy := datasets.PaperToy()
	d := &Dataset{Name: "toy", Tree: toy.Tree, Src: toy.DB}
	q := NewQueue(1, 8, 100, NewCache(8))
	defer q.Close()

	eps := []float64{0.35, 0.2}
	a := toy.Config()
	a.Epsilon = 0.1
	j1, err := q.Submit(d, JobSweep, a, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Wait(j1, 10*time.Second) {
		t.Fatal("sweep did not finish")
	}
	b := toy.Config()
	b.Epsilon = 0.05
	j2, err := q.Submit(d, JobSweep, b, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit {
		t.Error("sweep with a different base epsilon missed the cache")
	}
	if got := q.Stats().SweepsRun; got != 1 {
		t.Errorf("sweeps run = %d, want 1", got)
	}
	// A genuinely different ε list must still miss.
	j3, err := q.Submit(d, JobSweep, a, []float64{0.35, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if j3.CacheHit {
		t.Error("different epsilons list unexpectedly hit the cache")
	}
}

// TestJobHistoryPruning pins the retention cap: completed jobs beyond the
// history limit are dropped (payload and all), newest kept.
func TestJobHistoryPruning(t *testing.T) {
	toy := datasets.PaperToy()
	d := &Dataset{Name: "toy", Tree: toy.Tree, Src: toy.DB}
	q := NewQueue(1, 8, 2, NewCache(16))
	defer q.Close()

	var ids []string
	for _, eps := range []float64{0.30, 0.31, 0.32, 0.33} {
		cfg := toy.Config()
		cfg.Epsilon = eps
		j, err := q.Submit(d, JobMine, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !q.Wait(j, 10*time.Second) {
			t.Fatal("job did not finish")
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids[:2] {
		if _, ok := q.Get(id); ok {
			t.Errorf("job %s survived pruning with history=2", id)
		}
	}
	for _, id := range ids[2:] {
		if v, ok := q.Get(id); !ok || v.Status != StatusDone {
			t.Errorf("job %s pruned too eagerly", id)
		}
	}
	if got := len(q.List()); got != 2 {
		t.Errorf("retained jobs = %d, want 2", got)
	}
	// Pruning drops history, not work already done: results stay cached.
	cfg := toy.Config()
	cfg.Epsilon = 0.30
	j, err := q.Submit(d, JobMine, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit {
		t.Error("pruned job's result fell out of the cache")
	}
	// A cache hit is a completed job too: it pushes the oldest one out.
	if got := q.List(); len(got) != 2 || got[0].ID != ids[3] || got[1].ID != j.ID {
		t.Errorf("after a cache hit retained %v, want [%s %s]", got, ids[3], j.ID)
	}
	t.Run("running job survives", testPruningSkipsRunning)
	t.Run("cancelled job counts", testPruningCountsCancelled)
}

// testPruningCountsCancelled cancels a queued job while the only worker is
// held: the cancelled job is a completed one, so with a history of one it
// is the job kept once the held job completes.
func testPruningCountsCancelled(t *testing.T) {
	toy := datasets.PaperToy()
	gated := newGatedSource(toy.DB)
	held := &Dataset{Name: "held", Tree: toy.Tree, Src: gated}
	q := NewQueue(1, 8, 1, NewCache(16))
	defer q.Close()
	defer gated.release()

	first, err := q.Submit(held, JobMine, toy.Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := q.Submit(&Dataset{Name: "toy", Tree: toy.Tree, Src: toy.DB}, JobMine, toy.Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := q.Cancel(queued.ID); err != nil || v.Status != StatusCancelled {
		t.Fatalf("Cancel = %+v, %v; want a cancelled job", v, err)
	}
	gated.release()
	if !q.Wait(first, 10*time.Second) {
		t.Fatal("held job did not finish")
	}
	if got := q.List(); len(got) != 1 || got[0].ID != queued.ID {
		t.Errorf("retained %v, want only the cancelled job %s", got, queued.ID)
	}
}

// testPruningSkipsRunning holds one job running on a gated dataset while
// later jobs finish: the running job is never pruned, the history keeps
// exactly its cap of completed jobs, and once the held job completes it is
// the oldest-submitted completed job, so it goes first.
func testPruningSkipsRunning(t *testing.T) {
	toy := datasets.PaperToy()
	d := &Dataset{Name: "toy", Tree: toy.Tree, Src: toy.DB}
	gated := newGatedSource(toy.DB)
	held := &Dataset{Name: "held", Tree: toy.Tree, Src: gated}
	q := NewQueue(2, 8, 2, NewCache(16))
	defer q.Close()
	defer gated.release()

	first, err := q.Submit(held, JobMine, toy.Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := q.Get(first.ID); v.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("held job never started")
		}
		time.Sleep(time.Millisecond)
	}
	var ids []string
	for _, eps := range []float64{0.30, 0.31, 0.32, 0.33} {
		cfg := toy.Config()
		cfg.Epsilon = eps
		j, err := q.Submit(d, JobMine, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !q.Wait(j, 10*time.Second) {
			t.Fatal("job did not finish")
		}
		ids = append(ids, j.ID)
	}
	if v, ok := q.Get(first.ID); !ok || v.Status != StatusRunning {
		t.Fatalf("running job = %+v (retained %v), want still running", v, ok)
	}
	retained := func() (done []string) {
		for _, v := range q.List() {
			if v.Status.finished() {
				done = append(done, v.ID)
			}
		}
		return done
	}
	if got := retained(); len(got) != 2 || got[0] != ids[2] || got[1] != ids[3] {
		t.Errorf("completed jobs retained = %v, want the newest two %v", got, ids[2:])
	}
	if got := len(q.List()); got != 3 {
		t.Errorf("retained jobs = %d, want the cap of 2 plus the running job", got)
	}

	gated.release()
	if !q.Wait(first, 10*time.Second) {
		t.Fatal("held job did not finish")
	}
	if _, ok := q.Get(first.ID); ok {
		t.Error("the oldest-submitted completed job survived pruning")
	}
	if got := retained(); len(got) != 2 || got[0] != ids[2] || got[1] != ids[3] {
		t.Errorf("completed jobs retained = %v, want %v", got, ids[2:])
	}
}

func TestQueueClosedRejectsSubmit(t *testing.T) {
	toy := datasets.PaperToy()
	d := &Dataset{Name: "toy", Tree: toy.Tree, Src: toy.DB}
	q := NewQueue(1, 4, 100, NewCache(4))
	q.Close()
	if _, err := q.Submit(d, JobMine, toy.Config(), nil); err == nil {
		t.Error("closed queue accepted a submission")
	}
}
