package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
)

// Options tune a coordinator; the zero value selects the defaults.
type Options struct {
	// SuspectAfter / DeadAfter drive heartbeat health (see Registry;
	// defaults 3s / 9s).
	SuspectAfter time.Duration
	DeadAfter    time.Duration

	// RetryAttempts is how many workers are tried per shard before the
	// degraded local fallback (default 3). Each attempt rotates to the next
	// worker in affinity order and sleeps a full-jitter backoff first.
	RetryAttempts int
	// RetryBase / RetryCap shape the backoff between attempts: the sleep is
	// uniform in [0, cap_i] with cap_i doubling from RetryBase (default
	// 25ms) up to RetryCap (default 1s) — full jitter, so a burst of shards
	// retrying after one worker's death doesn't re-arrive in lockstep.
	RetryBase time.Duration
	RetryCap  time.Duration

	// HedgeQuantile picks the straggler deadline: a dispatch still
	// unanswered after the q-quantile of recently observed count latencies
	// is hedged — duplicated to the next worker, first result wins (default
	// 0.9; ≥ 1 disables hedging). HedgeMin floors the deadline (default
	// 25ms) so cold windows and microsecond-fast local tests don't hedge
	// everything. HedgeAfter, when set, overrides the quantile with a fixed
	// deadline — the deterministic knob tests use.
	HedgeQuantile float64
	HedgeMin      time.Duration
	HedgeAfter    time.Duration

	// Seed seeds the backoff-jitter source (default 1; any value works —
	// jitter needs spread, not secrecy — but a fixed seed keeps fault-
	// injection tests replayable).
	Seed int64

	// HTTPClient overrides the dispatch client (default: http.Client with a
	// 30s timeout). Fault-injection tests wrap its Transport.
	HTTPClient *http.Client

	// Now overrides the clock (default time.Now) for registry and latency
	// bookkeeping.
	Now func() time.Time

	// TraceWriter, when set, receives one JSON line per dispatch event —
	// the per-shard dispatch trace CI uploads when the chaos suite fails.
	TraceWriter io.Writer
}

func (o Options) withDefaults() Options {
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 3 * time.Second
	}
	if o.DeadAfter <= o.SuspectAfter {
		o.DeadAfter = 3 * o.SuspectAfter
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	if o.RetryCap < o.RetryBase {
		o.RetryCap = time.Second
	}
	if o.HedgeQuantile <= 0 {
		o.HedgeQuantile = 0.9
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = 25 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Coordinator owns the distributed side of a mining job: the worker
// registry, per-shard dispatch with retries and hedging, first-result-wins
// answers, and the degraded local fallback. It mines through
// core.MineRemote — the search runs here, only support counting fans out,
// and the engine merges the workers' per-shard tallies as it merges a local
// pass's — so a distributed result is byte-identical to a local one, stats
// included, which the cluster equivalence suite pins under injected network
// faults.
type Coordinator struct {
	cat  *Catalog
	reg  *Registry
	opts Options
	mux  *http.ServeMux

	lat latencyWindow

	rngMu sync.Mutex
	rng   *rand.Rand

	traceMu sync.Mutex
}

// New builds a coordinator over the catalog.
func New(cat *Catalog, opts Options) *Coordinator {
	opts = opts.withDefaults()
	co := &Coordinator{
		cat:  cat,
		reg:  NewRegistry(opts.SuspectAfter, opts.DeadAfter, opts.Now),
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	co.mux = http.NewServeMux()
	co.mux.HandleFunc("POST "+PathHeartbeat, co.handleHeartbeat)
	co.mux.HandleFunc("GET /cluster/workers", co.handleWorkers)
	return co
}

// Registry exposes the worker registry (readiness probes, tests).
func (co *Coordinator) Registry() *Registry { return co.reg }

// Handler returns the coordinator's HTTP handler (PathHeartbeat,
// /cluster/workers).
func (co *Coordinator) Handler() http.Handler { return co.mux }

func (co *Coordinator) handleHeartbeat(rw http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hb); err != nil {
		writeError(rw, http.StatusBadRequest, "bad heartbeat: %v", err)
		return
	}
	if hb.Worker == "" || hb.Addr == "" {
		writeError(rw, http.StatusBadRequest, "heartbeat needs worker and addr")
		return
	}
	co.reg.Heartbeat(hb)
	writeJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
}

func (co *Coordinator) handleWorkers(rw http.ResponseWriter, _ *http.Request) {
	type workerView struct {
		ID       string        `json:"id"`
		Addr     string        `json:"addr"`
		State    string        `json:"state"`
		Failures int           `json:"failures"`
		Datasets []Fingerprint `json:"datasets"`
	}
	snap := co.reg.Snapshot()
	out := make([]workerView, 0, len(snap))
	for _, w := range snap {
		out = append(out, workerView{
			ID: w.ID, Addr: w.Addr, State: w.State.String(),
			Failures: w.Failures, Datasets: w.Datasets,
		})
	}
	writeJSON(rw, http.StatusOK, map[string]any{"workers": out})
}

// Eligible reports whether a job over the dataset would actually be
// distributed: at least one non-dead worker advertises a matching build.
// Callers (the service queue) mine locally otherwise — a coordinator with
// no workers is just a single-node flipperd, not a degraded cluster.
func (co *Coordinator) Eligible(dataset string) bool {
	ent, ok := co.cat.Get(dataset)
	if !ok {
		return false
	}
	return len(co.reg.Serving(ent.Fp)) > 0
}

// Reachable counts non-dead workers (the readiness signal).
func (co *Coordinator) Reachable() int { return co.reg.Reachable() }

// Mine runs one distributed mining job: the Flipper search executes
// locally, and each cell's counting pass becomes one unit per shard, all in
// flight, each sent to the registry's workers (see gather.CountShard) and
// merged by the engine as it merges a local pass. Shards whose every worker
// is down are counted locally and the result carries Stats.Degraded = true
// — capacity loss degrades latency, never availability or correctness.
func (co *Coordinator) Mine(ctx context.Context, dataset string, cfg core.Config) (*core.Result, error) {
	ent, ok := co.cat.Get(dataset)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown dataset %q", dataset)
	}
	g := &gather{co: co, ent: ent}
	res, err := ent.Engine.MineRemote(ctx, cfg, g)
	if err != nil {
		return nil, err
	}
	res.Stats.Degraded = g.degraded.Load()
	return res, nil
}

// gather is the core.ShardCounter of one distributed run. Exactly one
// answer per unit reaches the engine's merge — CountShard returns a single
// winner however many retries or hedges ran — so duplicated dispatches can
// never double-count.
type gather struct {
	co       *Coordinator
	ent      CatalogEntry
	degraded atomic.Bool
}

// CountShard implements core.ShardCounter: affinity-ordered worker attempts
// with jittered backoff and straggler hedging, then the degraded local
// fallback. The worker list is re-read per attempt, so a worker the
// registry declared dead mid-job (heartbeat loss or failure threshold) is
// reassigned away from automatically.
func (g *gather) CountShard(ctx context.Context, u core.ShardUnit) (core.ShardTally, error) {
	co := g.co
	// One body for every attempt and hedge of the unit.
	body, err := json.Marshal(CountRequest{Fingerprint: g.ent.Fp, ShardUnit: u})
	if err != nil {
		return core.ShardTally{}, err
	}
	backoff := co.opts.RetryBase
	for attempt := 0; attempt < co.opts.RetryAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return core.ShardTally{}, err
		}
		ws := co.reg.Serving(g.ent.Fp)
		if len(ws) == 0 {
			break // every worker is dead: degrade now, retrying helps no one
		}
		if attempt > 0 {
			co.sleepJittered(ctx, backoff)
			if backoff *= 2; backoff > co.opts.RetryCap {
				backoff = co.opts.RetryCap
			}
			// The sleep may outlive the workers; re-read the registry.
			if ws = co.reg.Serving(g.ent.Fp); len(ws) == 0 {
				break
			}
		}
		// Shard affinity: shard s prefers worker s mod W, so a steady
		// cluster pins each shard to one worker (warm per-shard state on the
		// worker: the engine's shard levels and indexes stay hot). Attempts
		// rotate from there.
		primary := (u.Shard + attempt) % len(ws)
		t, err := g.dispatchHedged(ctx, u, body, ws, primary, attempt)
		if err == nil {
			return t, nil
		}
		if ctx.Err() != nil {
			return core.ShardTally{}, ctx.Err()
		}
	}
	// Degraded fallback: every worker for this shard is gone or failing;
	// the coordinator counts the unit itself. Exact same tallies, so
	// correctness is untouched; Stats.Degraded tells operators capacity is.
	g.degraded.Store(true)
	co.trace(traceEvent{
		Event: "degraded", Dataset: g.ent.Fp.Dataset,
		Shard: u.Shard, Level: u.Level, K: u.K,
	})
	return g.ent.Engine.CountShard(ctx, u)
}

// dispatchHedged sends one attempt's request body, unit u, to the primary
// worker and, if the response is still outstanding after the hedge
// deadline, duplicates it to the next worker. The first successful response
// wins and the loser is cancelled; exactly one tally is returned. An error
// is returned only when every launched dispatch failed.
func (g *gather) dispatchHedged(ctx context.Context, u core.ShardUnit, body []byte, ws []WorkerInfo, primary, attempt int) (core.ShardTally, error) {
	co, dataset := g.co, g.ent.Fp.Dataset
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		t   core.ShardTally
		err error
	}
	ch := make(chan outcome, 2)
	launch := func(w WorkerInfo, hedge bool) {
		start := co.opts.Now()
		t, err := co.post(cctx, w, body, len(u.Candidates))
		lat := co.opts.Now().Sub(start)
		ev := traceEvent{
			Event: "dispatch", Dataset: dataset,
			Shard: u.Shard, Level: u.Level, K: u.K,
			Worker: w.ID, Attempt: attempt, Hedge: hedge,
			LatencyMS: float64(lat) / float64(time.Millisecond),
		}
		if err != nil {
			ev.Err = err.Error()
			// A hedge loser cancelled because the other copy won is not a
			// worker failure; don't poison its health.
			if cctx.Err() == nil || ctx.Err() != nil {
				co.reg.RecordFailure(w.ID)
			}
		} else {
			co.reg.RecordSuccess(w.ID)
			co.lat.add(lat)
		}
		co.trace(ev)
		ch <- outcome{t, err}
	}

	go launch(ws[primary], false)
	launched, failed := 1, 0
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if len(ws) > 1 && co.hedgingEnabled() {
		hedgeTimer = time.NewTimer(co.hedgeDelay())
		hedgeC = hedgeTimer.C
		defer hedgeTimer.Stop()
	}
	var firstErr error
	for {
		select {
		case <-ctx.Done():
			return core.ShardTally{}, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			hedge := ws[(primary+1)%len(ws)]
			co.trace(traceEvent{
				Event: "hedge", Dataset: dataset,
				Shard: u.Shard, Level: u.Level, K: u.K,
				Worker: hedge.ID, Attempt: attempt,
			})
			go launch(hedge, true)
			launched++
		case out := <-ch:
			if out.err == nil {
				// First result wins; cancel (via the deferred cancel) any
				// still-outstanding duplicate and discard its tally.
				return out.t, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			// Every launched dispatch failed: report and let the retry loop
			// take over. If the hedge timer is still pending, launching the
			// hedge now would just duplicate that retry.
			if failed++; failed == launched {
				return core.ShardTally{}, firstErr
			}
		}
	}
}

// post performs one count request against one worker.
func (co *Coordinator) post(ctx context.Context, w WorkerInfo, body []byte, want int) (core.ShardTally, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Addr+PathCount, bytes.NewReader(body))
	if err != nil {
		return core.ShardTally{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := co.opts.HTTPClient.Do(req)
	if err != nil {
		return core.ShardTally{}, fmt.Errorf("cluster: worker %s: %w", w.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return core.ShardTally{}, fmt.Errorf("cluster: worker %s: %s: %s", w.ID, resp.Status, bytes.TrimSpace(msg))
	}
	var cr CountResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return core.ShardTally{}, fmt.Errorf("cluster: worker %s: bad response: %w", w.ID, err)
	}
	if len(cr.Supports) != want {
		return core.ShardTally{}, fmt.Errorf("cluster: worker %s: %d supports for %d candidates", w.ID, len(cr.Supports), want)
	}
	return cr.ShardTally, nil
}

func (co *Coordinator) hedgingEnabled() bool {
	return co.opts.HedgeAfter > 0 || co.opts.HedgeQuantile < 1
}

// hedgeDelay is the straggler deadline: the configured fixed override, or
// the latency window's HedgeQuantile floored at HedgeMin.
func (co *Coordinator) hedgeDelay() time.Duration {
	if co.opts.HedgeAfter > 0 {
		return co.opts.HedgeAfter
	}
	d := co.lat.quantile(co.opts.HedgeQuantile)
	if d < co.opts.HedgeMin {
		d = co.opts.HedgeMin
	}
	return d
}

// sleepJittered sleeps a uniformly random duration in [0, cap] — full
// jitter — or until ctx is done.
func (co *Coordinator) sleepJittered(ctx context.Context, capDur time.Duration) {
	if capDur <= 0 {
		return
	}
	co.rngMu.Lock()
	d := time.Duration(co.rng.Int63n(int64(capDur) + 1))
	co.rngMu.Unlock()
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// traceEvent is one line of the coordinator's JSONL dispatch trace.
type traceEvent struct {
	TS        string  `json:"ts"`
	Event     string  `json:"event"` // dispatch | hedge | degraded
	Dataset   string  `json:"dataset"`
	Shard     int     `json:"shard"`
	Level     int     `json:"level"`
	K         int     `json:"k"`
	Worker    string  `json:"worker,omitempty"`
	Attempt   int     `json:"attempt"`
	Hedge     bool    `json:"hedge,omitempty"`
	Err       string  `json:"err,omitempty"`
	LatencyMS float64 `json:"latency_ms,omitempty"`
}

func (co *Coordinator) trace(ev traceEvent) {
	if co.opts.TraceWriter == nil {
		return
	}
	ev.TS = co.opts.Now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	co.traceMu.Lock()
	co.opts.TraceWriter.Write(append(line, '\n'))
	co.traceMu.Unlock()
}

// latencyWindow is a fixed-size ring of recent successful dispatch
// latencies, the sample the hedge deadline's quantile is computed over.
type latencyWindow struct {
	mu      sync.Mutex
	samples [128]time.Duration
	n       int // total added; min(n, len) are valid
}

func (lw *latencyWindow) add(d time.Duration) {
	lw.mu.Lock()
	lw.samples[lw.n%len(lw.samples)] = d
	lw.n++
	lw.mu.Unlock()
}

// quantile returns the q-quantile of the window, or 0 with no samples.
func (lw *latencyWindow) quantile(q float64) time.Duration {
	lw.mu.Lock()
	n := lw.n
	if n > len(lw.samples) {
		n = len(lw.samples)
	}
	buf := make([]time.Duration, n)
	copy(buf, lw.samples[:n])
	lw.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := int(q * float64(n))
	if idx >= n {
		idx = n - 1
	}
	if idx < 0 {
		idx = 0
	}
	return buf[idx]
}
