package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
)

// JobKind selects what a job computes.
type JobKind string

const (
	// JobMine runs core.Mine once.
	JobMine JobKind = "mine"
	// JobSweep runs core.EpsilonSweep over a list of ε values.
	JobSweep JobKind = "sweep"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
)

// finished reports whether the status is terminal.
func (s JobStatus) finished() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// ErrQueueFull is returned by Submit when the bounded queue cannot accept
// another job; HTTP maps it to 503 with a Retry-After hint.
var ErrQueueFull = errors.New("service: job queue full")

// ErrUnknownJob is returned by Cancel for an ID the queue does not know.
var ErrUnknownJob = errors.New("service: unknown job")

// ErrJobFinished is returned by Cancel when the job already reached a
// terminal status; HTTP maps it to 409.
var ErrJobFinished = errors.New("service: job already finished")

// Job is one unit of mining work. Fields are written by the queue under its
// lock; read snapshots through Queue.Snapshot or Job view methods.
type Job struct {
	ID       string
	Kind     JobKind
	Dataset  string
	Config   core.Config
	Epsilons []float64 // sweep only

	Status   JobStatus
	CacheHit bool
	Err      string
	Result   json.RawMessage // set when Status is done, in envelope form (see envelopeForm)
	Stats    *core.StatsJSON // mine only, set when Status is done

	Created  time.Time
	Started  time.Time
	Finished time.Time

	// Timeout bounds the job's running time (0 = unbounded); the clock
	// starts when the job leaves the queue, not at submission.
	Timeout time.Duration

	key             string
	ds              *Dataset
	done            chan struct{}
	cancel          context.CancelFunc // set while running
	cancelRequested bool
}

// JobView is the wire form of a job.
type JobView struct {
	ID        string          `json:"id"`
	Kind      JobKind         `json:"kind"`
	Dataset   string          `json:"dataset"`
	Config    core.Config     `json:"config"`
	Epsilons  []float64       `json:"epsilons,omitempty"`
	Status    JobStatus       `json:"status"`
	CacheHit  bool            `json:"cache_hit"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"` // right before Created: writeJob splices it there
	Created   time.Time       `json:"created"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	ElapsedNS int64           `json:"elapsed_ns,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
}

// VolatileWireKeys lists the service wire fields that legitimately change
// from run to run over identical inputs — generated job identifiers,
// submission/start/finish timestamps, and uptime/elapsed durations. The
// golden conformance harness (internal/golden) scrubs exactly these keys
// (plus core.VolatileStatsKeys) before comparing committed envelopes; a new
// timestamp or counter that varies run-to-run must be added here, or the
// fixtures will flap.
func VolatileWireKeys() []string {
	return []string{"id", "created", "started", "finished", "elapsed_ns", "uptime"}
}

// mineResult is the payload of a completed mine job (core.ResultJSON) and
// sweepResult the payload of a completed sweep job.
type sweepResult struct {
	Points []core.EpsilonPoint `json:"points"`
}

// envelopeForm renders a result payload, as json.Marshal wrote it, in the
// form it takes inside a job envelope: indented one level deep, exactly as
// writeJSON's encoder would indent it there. A finished job and its cache
// entry store only this form, and writeJob splices it into every envelope
// unchanged, so no request re-scans a result.
func envelopeForm(payload []byte) (json.RawMessage, error) {
	var b bytes.Buffer
	if err := json.Indent(&b, payload, "  ", "  "); err != nil {
		return nil, err
	}
	// A cache entry lives long: keep it at its size, not the buffer's.
	return bytes.Clone(b.Bytes()), nil
}

// DistributedMiner is the queue's hook into a mining cluster, satisfied by
// cluster.Coordinator. The service stays decoupled from the cluster wiring:
// flipperd injects a coordinator through Options.Coordinator, and the queue
// routes a mine job through it only when Eligible says workers actually
// serve the dataset — a coordinator with no workers is just a single-node
// flipperd, not a degraded cluster.
type DistributedMiner interface {
	// Eligible reports whether at least one live worker serves the same
	// build of the dataset — same shape, shard layout and baskets.
	Eligible(dataset string) bool
	// Mine runs one distributed job; the result envelope is byte-identical
	// to a local core.Mine's, stats included, apart from the timing keys
	// (core.VolatileStatsKeys) and Stats.Degraded (the cluster contract).
	Mine(ctx context.Context, dataset string, cfg core.Config) (*core.Result, error)
	// Reachable counts non-dead workers (the readiness signal).
	Reachable() int
}

// latWindow is how many recent job wall times feed the queue's adaptive
// Retry-After hint.
const latWindow = 64

// Queue runs jobs on a bounded worker pool with a single-flight guarantee:
// while a job for some (dataset, kind, config) key is queued or running,
// identical submissions return that same job instead of enqueueing another
// mine. Completed results land in the Cache, so later identical submissions
// come back instantly as already-done jobs flagged CacheHit.
type Queue struct {
	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // job IDs in submission order
	inflight map[string]*Job // job key → queued-or-running job
	ch       chan *Job
	cache    *Cache
	wg       sync.WaitGroup
	closed   bool
	nextID   uint64
	workers  int
	history  int // max completed jobs retained; older ones are pruned
	finished int // completed (done, failed or cancelled) jobs retained

	// coord, when set, mines eligible jobs over the cluster instead of the
	// local engine (set by NewServer from Options.Coordinator).
	coord DistributedMiner

	// latSamples is a ring of recent job wall times (queued→finished runs
	// that actually executed), the sample RetryAfterHint's median is
	// computed over. Guarded by mu.
	latSamples [latWindow]time.Duration
	latCount   int

	minesRun  atomic.Int64
	sweepsRun atomic.Int64
}

// NewQueue starts workers goroutines consuming a queue of at most depth
// pending jobs, writing results through cache. At most history completed
// (done or failed) jobs are retained for polling; when the limit is
// exceeded the oldest completed jobs — and their result payloads — are
// dropped, keeping a long-running daemon's memory bounded. Queued and
// running jobs are never pruned.
func NewQueue(workers, depth, history int, cache *Cache) *Queue {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	if history < 1 {
		history = 1
	}
	q := &Queue{
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		ch:       make(chan *Job, depth),
		cache:    cache,
		workers:  workers,
		history:  history,
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Close stops accepting submissions and drains the queue: workers finish
// the jobs already queued or running before Close returns, so a graceful
// shutdown (flipperd under SIGTERM) never drops a result a client could
// still poll for.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	close(q.ch)
	q.mu.Unlock()
	q.wg.Wait()
}

// jobKey is the cache/single-flight identity of a piece of work: dataset,
// kind, the canonical configuration key, and (for sweeps) the sorted ε list.
// A sweep overrides cfg.Epsilon at every point, so the base ε is normalized
// out of sweep keys — otherwise identical sweeps differing only in the
// irrelevant base ε would miss the cache.
func jobKey(dataset string, kind JobKind, cfg *core.Config, epsilons []float64) string {
	if kind == JobSweep {
		c := *cfg
		c.Epsilon = 0
		cfg = &c
	}
	var b strings.Builder
	b.WriteString(dataset)
	b.WriteByte('|')
	b.WriteString(string(kind))
	b.WriteByte('|')
	b.WriteString(cfg.CanonicalKey())
	if kind == JobSweep {
		sorted := append([]float64(nil), epsilons...)
		sort.Float64s(sorted)
		b.WriteString("|eps=")
		for i, e := range sorted {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(e, 'g', -1, 64))
		}
	}
	return b.String()
}

// Submit enqueues work and returns its job. Three outcomes:
//
//   - cache hit: a fresh job already in StatusDone, flagged CacheHit, whose
//     Result bytes are identical to the first computation's;
//   - coalesced: an identical job is queued or running, and that same job
//     is returned (no new mine is triggered);
//   - enqueued: a new queued job, or ErrQueueFull when the bounded queue
//     has no room.
func (q *Queue) Submit(d *Dataset, kind JobKind, cfg core.Config, epsilons []float64) (*Job, error) {
	return q.SubmitTimeout(d, kind, cfg, epsilons, 0)
}

// SubmitTimeout is Submit with a per-job deadline: once the job starts
// running, its work is cancelled after timeout (0 = unbounded) and the job
// finishes in StatusCancelled. A submission coalesced onto an inflight job
// inherits that job's deadline — the timeout is an execution bound, not
// part of the work's identity, so it does not split single-flight or the
// cache.
func (q *Queue) SubmitTimeout(d *Dataset, kind JobKind, cfg core.Config, epsilons []float64, timeout time.Duration) (*Job, error) {
	key := jobKey(d.Name, kind, &cfg, epsilons)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, errors.New("service: queue closed")
	}
	if j, ok := q.inflight[key]; ok {
		return j, nil
	}
	now := time.Now()
	j := &Job{
		Kind:     kind,
		Dataset:  d.Name,
		Config:   cfg,
		Epsilons: epsilons,
		Created:  now,
		Timeout:  timeout,
		key:      key,
		ds:       d,
		done:     make(chan struct{}),
	}
	if cached, ok := q.cache.Get(key); ok {
		j.Status = StatusDone
		j.CacheHit = true
		j.Result = cached.Payload
		j.Started, j.Finished = now, now
		close(j.done)
		q.register(j)
		q.finishedLocked()
		return j, nil
	}
	j.Status = StatusQueued
	select {
	case q.ch <- j:
	default:
		return nil, ErrQueueFull
	}
	q.inflight[key] = j
	q.register(j)
	return j, nil
}

// register assigns the next ID and indexes the job. Caller holds q.mu.
func (q *Queue) register(j *Job) {
	q.nextID++
	j.ID = fmt.Sprintf("job-%06d", q.nextID)
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
}

// finishedLocked counts one more retained job as completed and prunes the
// history back to its cap. Caller holds q.mu.
func (q *Queue) finishedLocked() {
	q.finished++
	q.pruneLocked()
}

// pruneLocked drops the oldest-submitted completed jobs while more than
// history of them are retained. The running count of completed jobs makes a
// call with nothing to drop free, and the walk stops at the last job it
// drops: in the steady state of a full history that is the oldest job, at
// the front of q.order. Caller holds q.mu.
func (q *Queue) pruneLocked() {
	excess := q.finished - q.history
	if excess <= 0 {
		return
	}
	kept, i := 0, 0 // q.order[:kept] holds the jobs the walk passed over
	for ; i < len(q.order) && excess > 0; i++ {
		id := q.order[i]
		if q.jobs[id].Status.finished() {
			delete(q.jobs, id)
			excess--
			q.finished--
			continue
		}
		q.order[kept] = id
		kept++
	}
	// Move the passed-over jobs up against q.order[i:] and drop the head.
	copy(q.order[i-kept:i], q.order[:kept])
	clear(q.order[:i-kept])
	q.order = q.order[i-kept:]
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.ch {
		q.run(j)
	}
}

// run executes one job and finalizes it. The job's work runs under a
// context that Cancel and the job's Timeout can end, and under a panic
// guard: a panicking mine fails its own job (stack in Err) instead of
// killing the worker — and with it the daemon's capacity.
func (q *Queue) run(j *Job) {
	q.mu.Lock()
	if j.Status != StatusQueued {
		// Cancelled while queued: Cancel already finalized it.
		q.mu.Unlock()
		return
	}
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if j.Timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), j.Timeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j.cancel = cancel
	j.Status = StatusRunning
	j.Started = time.Now()
	q.mu.Unlock()
	defer cancel()

	payload, stats, patterns, err := q.execute(ctx, j)

	q.mu.Lock()
	defer q.mu.Unlock()
	j.Finished = time.Now()
	j.cancel = nil
	// Every executed run occupied a worker for its wall time, whatever its
	// outcome — exactly the signal the queue-full Retry-After hint needs.
	q.latSamples[q.latCount%latWindow] = j.Finished.Sub(j.Started)
	q.latCount++
	switch {
	case err == nil:
		j.Status = StatusDone
		j.Result = payload
		j.Stats = stats
		// Only clean completions are cached: a cancelled or failed run has
		// no payload worth replaying to later submissions. Degraded
		// distributed runs are correct but also skip the cache — once the
		// cluster heals, a resubmission should re-mine at full capacity
		// rather than replay the envelope that advertises degradation.
		if stats == nil || !stats.Degraded {
			q.cache.Put(j.key, CachedResult{Payload: payload, Patterns: patterns})
		}
	case errors.Is(err, context.DeadlineExceeded):
		j.Status = StatusCancelled
		j.Err = fmt.Sprintf("job timeout (%s) exceeded", j.Timeout)
	case errors.Is(err, context.Canceled):
		j.Status = StatusCancelled
		j.Err = "cancelled"
	default:
		j.Status = StatusFailed
		j.Err = err.Error()
	}
	delete(q.inflight, j.key)
	q.finishedLocked()
	close(j.done)
}

// execute performs the job's work under ctx, converting a panic anywhere
// in the mining stack into an ordinary error carrying the stack trace. The
// payload comes back in envelope form (envelopeForm).
func (q *Queue) execute(ctx context.Context, j *Job) (payload []byte, stats *core.StatsJSON, patterns int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	switch j.Kind {
	case JobMine:
		q.minesRun.Add(1)
		var res *core.Result
		if q.coord != nil && q.coord.Eligible(j.Dataset) {
			// Workers serve this dataset: scatter the counting over the
			// cluster. The result is byte-identical to a local mine, stats
			// included, so caching and golden envelopes are unaffected by
			// the routing.
			res, err = q.coord.Mine(ctx, j.Dataset, j.Config)
		} else {
			res, err = j.ds.Engine().MineContext(ctx, j.Config)
		}
		if err == nil {
			rj := res.JSON(j.ds.Tree)
			stats = &rj.Stats
			patterns = rj.PatternCount
			payload, err = json.Marshal(rj)
		}
	case JobSweep:
		q.sweepsRun.Add(1)
		var points []core.EpsilonPoint
		points, err = j.ds.Engine().EpsilonSweepContext(ctx, j.Config, j.Epsilons)
		if err == nil {
			patterns = len(points)
			payload, err = json.Marshal(sweepResult{Points: points})
		}
	default:
		err = fmt.Errorf("service: unknown job kind %q", j.Kind)
	}
	if err == nil {
		payload, err = envelopeForm(payload)
	}
	return payload, stats, patterns, err
}

// Cancel requests cancellation of a job. A queued job is finalized
// immediately (it never runs); a running job has its context cancelled and
// finishes in StatusCancelled as soon as the miner observes it — within
// one checkpoint interval. Terminal jobs return ErrJobFinished, unknown
// IDs ErrUnknownJob. The returned view reflects the job after the call.
func (q *Queue) Cancel(id string) (JobView, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	switch j.Status {
	case StatusQueued:
		j.cancelRequested = true
		j.Status = StatusCancelled
		j.Err = "cancelled"
		j.Finished = time.Now()
		delete(q.inflight, j.key)
		q.finishedLocked()
		close(j.done)
	case StatusRunning:
		if !j.cancelRequested {
			j.cancelRequested = true
			j.cancel()
		}
	default:
		return q.viewLocked(j), ErrJobFinished
	}
	return q.viewLocked(j), nil
}

// Wait blocks until the job reaches a terminal status or the timeout
// elapses; it reports whether the job finished. The timer is stopped on
// the fast path, so high-rate synchronous waits don't accumulate pending
// timers the way time.After would.
func (q *Queue) Wait(j *Job, timeout time.Duration) bool {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-j.done:
		return true
	case <-t.C:
		return false
	}
}

// View returns the current state of a job the caller holds as a wire view.
// A handler renders the job it submitted through View, not through a second
// lookup by ID: a finished job, a cache hit above all, can be pruned from a
// small history before that lookup.
func (q *Queue) View(j *Job) JobView {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.viewLocked(j)
}

// Get returns a job's current state as a wire view.
func (q *Queue) Get(id string) (JobView, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return q.viewLocked(j), true
}

// List returns every job in submission order, newest last, without result
// payloads (fetch an individual job for its result).
func (q *Queue) List() []JobView {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobView, 0, len(q.order))
	for _, id := range q.order {
		v := q.viewLocked(q.jobs[id])
		v.Result = nil
		out = append(out, v)
	}
	return out
}

// viewLocked snapshots a job. Caller holds q.mu.
func (q *Queue) viewLocked(j *Job) JobView {
	v := JobView{
		ID:       j.ID,
		Kind:     j.Kind,
		Dataset:  j.Dataset,
		Config:   j.Config,
		Epsilons: j.Epsilons,
		Status:   j.Status,
		CacheHit: j.CacheHit,
		Error:    j.Err,
		Result:   j.Result,
		Created:  j.Created,
	}
	if j.Timeout > 0 {
		v.TimeoutMS = j.Timeout.Milliseconds()
	}
	if !j.Started.IsZero() {
		t := j.Started
		v.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		v.Finished = &t
		// A job cancelled while still queued finished without ever
		// starting; it has no elapsed time.
		if !j.Started.IsZero() {
			v.ElapsedNS = j.Finished.Sub(j.Started).Nanoseconds()
		}
	}
	return v
}

// RetryAfterHint is the queue-full backoff hint, in whole seconds as a
// Retry-After header value: the median of recent job wall times, rounded
// up and clamped to [1s, 30s]. A server mining minute-long jobs tells
// load-shed clients to come back in 30s, not hot-loop at 1s; a fresh
// server with no history answers the conservative "1".
func (q *Queue) RetryAfterHint() string {
	q.mu.Lock()
	n := q.latCount
	if n > latWindow {
		n = latWindow
	}
	buf := make([]time.Duration, n)
	copy(buf, q.latSamples[:n])
	q.mu.Unlock()
	if n == 0 {
		return "1"
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	med := buf[n/2]
	secs := int64((med + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.FormatInt(secs, 10)
}

// QueueStats is the wire form of the queue counters.
type QueueStats struct {
	Workers   int   `json:"workers"`
	Depth     int   `json:"depth"`
	Capacity  int   `json:"capacity"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Done      int   `json:"done"`
	Failed    int   `json:"failed"`
	Cancelled int   `json:"cancelled"`
	CacheHits int   `json:"cache_hits"`
	MinesRun  int64 `json:"mines_run"`
	SweepsRun int64 `json:"sweeps_run"`
}

// Stats snapshots the queue counters and per-status job tallies.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := QueueStats{
		Workers:   q.workers,
		Depth:     len(q.ch),
		Capacity:  cap(q.ch),
		MinesRun:  q.minesRun.Load(),
		SweepsRun: q.sweepsRun.Load(),
	}
	for _, j := range q.jobs {
		switch j.Status {
		case StatusQueued:
			s.Queued++
		case StatusRunning:
			s.Running++
		case StatusDone:
			s.Done++
		case StatusFailed:
			s.Failed++
		case StatusCancelled:
			s.Cancelled++
		}
		if j.CacheHit {
			s.CacheHits++
		}
	}
	return s
}

// JobStat is the per-job line of the /v1/stats payload: identity plus the
// core run counters, without the (possibly large) pattern payload.
type JobStat struct {
	ID       string          `json:"id"`
	Kind     JobKind         `json:"kind"`
	Dataset  string          `json:"dataset"`
	Status   JobStatus       `json:"status"`
	CacheHit bool            `json:"cache_hit"`
	Stats    *core.StatsJSON `json:"stats,omitempty"`
}

// JobStats lists per-job core statistics in submission order.
func (q *Queue) JobStats() []JobStat {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobStat, 0, len(q.order))
	for _, id := range q.order {
		j := q.jobs[id]
		out = append(out, JobStat{
			ID:       j.ID,
			Kind:     j.Kind,
			Dataset:  j.Dataset,
			Status:   j.Status,
			CacheHit: j.CacheHit,
			Stats:    j.Stats,
		})
	}
	return out
}
