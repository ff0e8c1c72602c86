package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/measure"
)

// Options tune a server; the zero value selects the defaults.
type Options struct {
	// Workers is the mining worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the number of queued-not-yet-running jobs
	// (default 64); submissions beyond it get HTTP 503.
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries (default 128);
	// 0 disables caching, negative values are treated as 0.
	CacheSize int
	// JobHistory caps how many completed jobs stay pollable (default 1000);
	// the oldest completed jobs and their payloads are pruned beyond it.
	JobHistory int
	// JobTimeout is the deadline applied to jobs whose submission carries
	// no timeout_ms (default 0: no deadline). The clock starts when the
	// job begins running.
	JobTimeout time.Duration
	// MaxJobTimeout caps every effective job deadline, including explicit
	// timeout_ms requests (default 15m); ≤ 0 keeps the default. Deadlines
	// above the cap are clamped, not rejected.
	MaxJobTimeout time.Duration
	// Coordinator, when set, routes mine jobs over a worker cluster
	// whenever it has live workers for the dataset (see
	// Queue.DistributedMiner), and surfaces reachable-worker counts in
	// /v1/readyz. Nil runs every job locally.
	Coordinator DistributedMiner
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 128
	}
	if o.CacheSize < 0 {
		o.CacheSize = 0
	}
	if o.JobHistory == 0 {
		o.JobHistory = 1000
	}
	if o.MaxJobTimeout <= 0 {
		o.MaxJobTimeout = 15 * time.Minute
	}
	return o
}

// Server is the flipperd HTTP service: a dataset registry, a result cache
// and an async job queue behind a JSON API under /v1/.
type Server struct {
	reg   *Registry
	cache *Cache
	queue *Queue
	mux   *http.ServeMux
	opts  Options
	start time.Time

	// draining flips once at shutdown (BeginDrain): /v1/readyz turns 503 so
	// load balancers stop routing new work here while in-flight jobs finish
	// under the queue's graceful Close.
	draining atomic.Bool
}

// NewServer assembles a server over reg.
func NewServer(reg *Registry, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		reg:   reg,
		cache: NewCache(opts.CacheSize),
		opts:  opts,
		start: time.Now(),
	}
	s.queue = NewQueue(opts.Workers, opts.QueueDepth, opts.JobHistory, s.cache)
	s.queue.coord = opts.Coordinator
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/topk", s.handleTopK)
	s.mux.HandleFunc("POST /v1/topk", s.handleTopK)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// BeginDrain marks the server not-ready: /v1/readyz starts answering 503 so
// load balancers drain traffic away, while /v1/healthz stays 200 (the
// process is alive and finishing its queue) and every other endpoint keeps
// serving. Call it at SIGTERM, before the HTTP listener shuts down.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pool.
func (s *Server) Close() { s.queue.Close() }

// Queue exposes the job queue (used by tests and embedders to wait on jobs).
func (s *Server) Queue() *Queue { return s.queue }

// Cache exposes the result cache.
func (s *Server) Cache() *Cache { return s.cache }

// ConfigPatch is the submit-time configuration overlay: every field is
// optional and falls back to the dataset's default configuration, so a
// client can send {"epsilon": 0.2} and inherit the rest. JSON field order
// is irrelevant — the patch is applied onto a struct and the result keyed
// by core.Config.CanonicalKey, so permuted but equal requests are cache
// hits.
type ConfigPatch struct {
	Measure       *measure.Measure    `json:"measure"`
	Gamma         *float64            `json:"gamma"`
	Epsilon       *float64            `json:"epsilon"`
	MinSup        []float64           `json:"min_sup"`
	MinSupAbs     []int64             `json:"min_sup_abs"`
	Pruning       *core.PruningLevel  `json:"pruning"`
	Strategy      *core.CountStrategy `json:"strategy"`
	MaxK          *int                `json:"max_k"`
	Parallelism   *int                `json:"parallelism"`
	Materialize   *bool               `json:"materialize"`
	KeepCellStats *bool               `json:"keep_cell_stats"`
	TopK          *int                `json:"top_k"`
	Anchor        *string             `json:"anchor"`
	AnchorTopK    *int                `json:"anchor_top_k"`
}

// Apply overlays the patch on cfg.
func (p *ConfigPatch) Apply(cfg core.Config) core.Config {
	if p == nil {
		return cfg
	}
	if p.Measure != nil {
		cfg.Measure = *p.Measure
	}
	if p.Gamma != nil {
		cfg.Gamma = *p.Gamma
	}
	if p.Epsilon != nil {
		cfg.Epsilon = *p.Epsilon
	}
	if p.MinSup != nil {
		cfg.MinSup = p.MinSup
		cfg.MinSupAbs = nil
	}
	if p.MinSupAbs != nil {
		cfg.MinSupAbs = p.MinSupAbs
	}
	if p.Pruning != nil {
		cfg.Pruning = *p.Pruning
	}
	if p.Strategy != nil {
		cfg.Strategy = *p.Strategy
	}
	if p.MaxK != nil {
		cfg.MaxK = *p.MaxK
	}
	if p.Parallelism != nil {
		cfg.Parallelism = *p.Parallelism
	}
	if p.Materialize != nil {
		cfg.Materialize = *p.Materialize
	}
	if p.KeepCellStats != nil {
		cfg.KeepCellStats = *p.KeepCellStats
	}
	if p.TopK != nil {
		cfg.TopK = *p.TopK
	}
	if p.Anchor != nil {
		cfg.Anchor = *p.Anchor
	}
	if p.AnchorTopK != nil {
		cfg.AnchorTopK = *p.AnchorTopK
	}
	return cfg
}

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	// Dataset names a registered dataset (required).
	Dataset string `json:"dataset"`
	// Kind is "mine" (default) or "sweep".
	Kind JobKind `json:"kind"`
	// Config overlays the dataset's default configuration.
	Config *ConfigPatch `json:"config"`
	// Epsilons is the ε list for sweep jobs.
	Epsilons []float64 `json:"epsilons"`
	// TimeoutMS bounds the job's running time in milliseconds. Omitted or
	// 0 inherits the server's default deadline; either way the effective
	// deadline is clamped to the server's maximum.
	TimeoutMS *int64 `json:"timeout_ms,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit accepts a mine or sweep job. Responses: 200 with a done job
// on a cache hit, 202 with a queued/coalesced job otherwise, 400 on invalid
// requests, 404 for unknown datasets, 503 when the queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Kind == "" {
		req.Kind = JobMine
	}
	if req.Kind != JobMine && req.Kind != JobSweep {
		writeError(w, http.StatusBadRequest, "unknown job kind %q", req.Kind)
		return
	}
	d, ok := s.reg.Get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	cfg := req.Config.Apply(d.DefaultConfig())
	if err := cfg.Validate(d.Tree.Height(), d.Src.Len()); err != nil {
		writeError(w, http.StatusBadRequest, "invalid config: %v", err)
		return
	}
	switch req.Kind {
	case JobSweep:
		if len(req.Epsilons) == 0 {
			writeError(w, http.StatusBadRequest, "sweep jobs need a non-empty epsilons list")
			return
		}
		for _, e := range req.Epsilons {
			if e < 0 || e >= cfg.Gamma {
				writeError(w, http.StatusBadRequest, "sweep epsilon %v out of [0, gamma)", e)
				return
			}
		}
	case JobMine:
		// An epsilons list on a mine is almost certainly a forgotten
		// "kind": "sweep"; dropping it silently would mine the wrong thing.
		if len(req.Epsilons) > 0 {
			writeError(w, http.StatusBadRequest, "mine jobs take no epsilons list; did you mean \"kind\": \"sweep\"?")
			return
		}
	}
	timeout := s.opts.JobTimeout
	if req.TimeoutMS != nil {
		if *req.TimeoutMS < 0 {
			writeError(w, http.StatusBadRequest, "timeout_ms must be ≥ 0")
			return
		}
		if *req.TimeoutMS > 0 {
			timeout = time.Duration(*req.TimeoutMS) * time.Millisecond
		}
	}
	if timeout <= 0 || timeout > s.opts.MaxJobTimeout {
		timeout = s.opts.MaxJobTimeout
	}
	j, err := s.queue.SubmitTimeout(d, req.Kind, cfg, req.Epsilons, timeout)
	if errors.Is(err, ErrQueueFull) {
		// The queue is load-shedding; tell well-behaved clients when to
		// come back instead of letting them hot-loop on 503s. The hint
		// scales with the observed median job latency — a server grinding
		// minute-long mines frees slots far slower than a toy one.
		w.Header().Set("Retry-After", s.queue.RetryAfterHint())
		writeError(w, http.StatusServiceUnavailable, "%v: retry after a short backoff, or raise -queue-depth", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	v, _ := s.queue.Get(j.ID)
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	if v.Status == StatusDone {
		writeJSON(w, http.StatusOK, v)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleCancelJob cancels a queued or running job. Responses: 200 with a
// small acknowledgement envelope, 404 for unknown jobs, 409 when the job
// already reached a terminal status. Cancelling a queued job finalizes it
// immediately; a running job stops at the miner's next checkpoint.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, err := s.queue.Cancel(id)
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	case errors.Is(err, ErrJobFinished):
		writeError(w, http.StatusConflict, "job %s already finished (status %s)", id, v.Status)
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"id":               v.ID,
			"status":           v.Status,
			"cancel_requested": true,
		})
	}
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.queue.List()})
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.reg.List()})
}

// handleHealthz is pure liveness: 200 whenever the process can serve HTTP,
// including while draining. Restart-deciders probe this; traffic-deciders
// probe /v1/readyz. The envelope is pinned by the golden conformance
// fixtures — readiness data lives in readyz, not here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"uptime":  time.Since(s.start).Round(time.Millisecond).String(),
		"version": "v1",
	})
}

// readyBody is the GET /v1/readyz payload.
type readyBody struct {
	// Status is "ready", "draining" (shutdown in progress) or "saturated"
	// (the bounded queue has no room — submissions would 503).
	Status string `json:"status"`
	Queue  struct {
		Depth     int  `json:"depth"`
		Capacity  int  `json:"capacity"`
		Saturated bool `json:"saturated"`
	} `json:"queue"`
	// Cluster appears only when flipperd runs with a coordinator: the
	// number of non-dead workers currently schedulable. Zero reachable
	// workers does not fail readiness — the coordinator mines locally in
	// degraded mode — but operators alert on it.
	Cluster *readyCluster `json:"cluster,omitempty"`
}

type readyCluster struct {
	WorkersReachable int `json:"workers_reachable"`
}

// handleReadyz is the traffic-readiness probe: 200 only when the server is
// neither draining nor saturated. Load balancers and orchestrators route on
// this; a 503 here sheds new work while /v1/healthz keeps the process from
// being restarted mid-drain.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	qs := s.queue.Stats()
	var body readyBody
	body.Queue.Depth = qs.Depth
	body.Queue.Capacity = qs.Capacity
	body.Queue.Saturated = qs.Depth >= qs.Capacity
	if s.opts.Coordinator != nil {
		body.Cluster = &readyCluster{WorkersReachable: s.opts.Coordinator.Reachable()}
	}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	case body.Queue.Saturated:
		body.Status = "saturated"
		status = http.StatusServiceUnavailable
	default:
		body.Status = "ready"
	}
	writeJSON(w, status, body)
}

// statsBody is the GET /v1/stats payload.
type statsBody struct {
	Uptime   string     `json:"uptime"`
	Datasets int        `json:"datasets"`
	Cache    CacheStats `json:"cache"`
	Queue    QueueStats `json:"queue"`
	Jobs     []JobStat  `json:"jobs"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsBody{
		Uptime:   time.Since(s.start).Round(time.Millisecond).String(),
		Datasets: s.reg.Len(),
		Cache:    s.cache.Stats(),
		Queue:    s.queue.Stats(),
		Jobs:     s.queue.JobStats(),
	})
}
