package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/flipper-mining/flipper/internal/cluster"
	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/service"
)

// Headers carrying the client's operation and span IDs into the server, so
// spans recorded by the handler wrappers hang under the operation that
// caused them.
const (
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
)

// listener is one HTTP server on a loopback port.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

// close shuts the server and its connections and waits for Serve to return.
func (l *listener) close() {
	_ = l.hs.Close()
	<-l.done
}

// flipperd is one in-process flipperd, optionally coordinating two cluster
// workers, each of which loads the data directory itself as a separate
// flipperd -worker process would.
type flipperd struct {
	srv       *service.Server
	front     *listener
	workers   []*listener
	transport *http.Transport // coordinator → workers
	stopBeats context.CancelFunc
	beats     sync.WaitGroup
}

// flipperdConfig shapes a flipperd the way its command-line flags would.
type flipperdConfig struct {
	cacheSize int // service.Options.CacheSize: -1 turns the cache off
	workers   int // cluster workers to start and join (0: no cluster)
	dataset   string
	tr        *tracer                         // nil: untraced
	wrap      func(http.Handler) http.Handler // wraps the /v1 handler (tests)
}

// startFlipperd loads dataDir and serves it; with cluster workers it returns
// once every worker's heartbeat has made it schedulable.
func startFlipperd(dataDir string, fc flipperdConfig) (*flipperd, error) {
	reg, cat, err := loadRegistry(dataDir)
	if err != nil {
		return nil, err
	}
	f := &flipperd{}
	opts := service.Options{CacheSize: fc.cacheSize}
	var co *cluster.Coordinator
	if fc.workers > 0 {
		f.transport = &http.Transport{MaxIdleConnsPerHost: 4}
		var rt http.RoundTripper = f.transport
		var events io.Writer
		if fc.tr != nil {
			rt = &dispatchTracer{base: f.transport, tr: fc.tr}
			events = eventCounter{fc.tr}
		}
		co = cluster.New(cat, cluster.Options{
			HTTPClient:  &http.Client{Timeout: 30 * time.Second, Transport: rt},
			TraceWriter: events,
		})
		opts.Coordinator = co
		if fc.tr != nil {
			opts.Coordinator = tracedMiner{co: co, tr: fc.tr}
		}
	}
	f.srv = service.NewServer(reg, opts)
	var api http.Handler = traceHandler(fc.tr, "service.handler", f.srv.Handler())
	if fc.wrap != nil {
		api = fc.wrap(api)
	}
	mux := http.NewServeMux()
	if co != nil {
		mux.Handle("/cluster/", co.Handler())
	}
	mux.Handle("/", api)
	if f.front, err = listen(mux); err != nil {
		f.srv.Close()
		return nil, err
	}
	if co == nil {
		return f, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.stopBeats = cancel
	for i := 0; i < fc.workers; i++ {
		_, wcat, err := loadRegistry(dataDir)
		if err != nil {
			f.close()
			return nil, err
		}
		w := cluster.NewWorker(fmt.Sprintf("w%d", i), wcat)
		wl, err := listen(traceHandler(fc.tr, "cluster.worker", w.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, wl)
		f.beats.Add(1)
		go func() {
			defer f.beats.Done()
			w.HeartbeatLoop(ctx, f.front.url, wl.url, time.Second, nil)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for co.Reachable() < fc.workers || !co.Eligible(fc.dataset) {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("cluster: %d of %d workers joined", co.Reachable(), fc.workers)
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// loadRegistry loads a data directory the way flipperd's main does: one
// registry, and a cluster catalog over the same datasets and engines.
func loadRegistry(dataDir string) (*service.Registry, *cluster.Catalog, error) {
	reg := service.NewRegistry()
	names, err := reg.LoadDir(dataDir, false)
	if err != nil {
		return nil, nil, err
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("no datasets in %s", dataDir)
	}
	cat := cluster.NewCatalog()
	for _, name := range names {
		d, _ := reg.Get(name)
		cat.Add(name, d.Engine(), d.Tree, cluster.NewFingerprint(name, d.Src, d.Tree))
	}
	return reg, cat, nil
}

// close stops the heartbeats, the listeners and the job queue, and waits
// for each to end.
func (f *flipperd) close() {
	if f.stopBeats != nil {
		f.stopBeats()
		f.beats.Wait()
	}
	if f.front != nil {
		f.front.close()
	}
	f.srv.Close()
	for _, w := range f.workers {
		w.close()
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
}

// jobWire is the part of the /v1 job envelope the client reads.
type jobWire struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	CacheHit bool            `json:"cache_hit"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
}

func (j *jobWire) terminal() bool {
	return j.Status == "done" || j.Status == "failed" || j.Status == "cancelled"
}

// apiClient is one benchmark client's connection to flipperd: a closed loop
// over one keep-alive connection, so a two-client workload holds two.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// call sends one request and returns the status and the whole body.
func (c *apiClient) call(method, path string, body []byte, ids opIDs) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ids.op != 0 {
		req.Header.Set(hdrOp, strconv.FormatInt(ids.op, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(ids.span, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// pollEvery is the client's job polling period.
const pollEvery = 2 * time.Millisecond

// run submits one request and, for an asynchronous job, polls it every
// pollEvery until it reaches a terminal status. It returns the final job
// envelope; the operation ends when its bytes are in hand.
func (c *apiClient) run(r *request, o *op, ids opIDs) (*jobWire, error) {
	start := time.Now()
	status, body, err := c.call(http.MethodPost, r.path, r.body, ids)
	o.submit = time.Since(start)
	for {
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK && status != http.StatusAccepted {
			return nil, fmt.Errorf("%s: HTTP %d: %s", r.path, status, bytes.TrimSpace(body))
		}
		var j jobWire
		if err := json.Unmarshal(body, &j); err != nil {
			return nil, fmt.Errorf("%s: bad job envelope: %w", r.path, err)
		}
		if j.terminal() {
			o.bytes = len(body)
			return &j, nil
		}
		time.Sleep(pollEvery)
		o.polls++
		status, body, err = c.call(http.MethodGet, "/v1/jobs/"+j.ID, nil, ids)
	}
}

// traceHandler wraps a handler with a span per request that carries the
// benchmark's operation headers.
func traceHandler(tr *tracer, name string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		if op == 0 {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.record(op, 0, parent, name, start, time.Now())
	})
}

// tracedMiner is the coordinator as the service sees it
// (service.DistributedMiner), with a span around each distributed mine.
type tracedMiner struct {
	co *cluster.Coordinator
	tr *tracer
}

func (m tracedMiner) Eligible(dataset string) bool { return m.co.Eligible(dataset) }
func (m tracedMiner) Reachable() int               { return m.co.Reachable() }

func (m tracedMiner) Mine(ctx context.Context, dataset string, cfg core.Config) (*core.Result, error) {
	op := m.tr.curOp.Load()
	if op == 0 {
		return m.co.Mine(ctx, dataset, cfg)
	}
	id := m.tr.newID()
	parent := m.tr.curSpan.Swap(id)
	defer m.tr.curSpan.Store(parent)
	start := time.Now()
	res, err := m.co.Mine(ctx, dataset, cfg)
	m.tr.record(op, id, parent, "cluster.mine", start, time.Now())
	return res, err
}

// dispatchTracer is the coordinator's HTTP transport with a span per
// dispatch, from request sent to response body closed, and byte counts.
type dispatchTracer struct {
	base http.RoundTripper
	tr   *tracer
}

func (d *dispatchTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	op := d.tr.curOp.Load()
	if op == 0 {
		return d.base.RoundTrip(req)
	}
	id, parent := d.tr.newID(), d.tr.curSpan.Load()
	out := req.Clone(req.Context())
	out.Header.Set(hdrOp, strconv.FormatInt(op, 10))
	out.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	d.tr.add(op, "cluster.dispatches", 1)
	d.tr.add(op, "cluster.req_bytes", float64(req.ContentLength))
	start := time.Now()
	resp, err := d.base.RoundTrip(out)
	if err != nil {
		d.tr.record(op, id, parent, "cluster.dispatch", start, time.Now())
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		d.tr.add(op, "cluster.resp_bytes", float64(n))
		d.tr.record(op, id, parent, "cluster.dispatch", start, time.Now())
	}}
	return resp, nil
}

// countingBody counts the bytes read from a response body and reports them
// once, when the body is closed.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// eventCounter receives the coordinator's JSONL dispatch events and counts
// retries, hedges and degraded shards against the operation in flight.
type eventCounter struct{ tr *tracer }

func (e eventCounter) Write(p []byte) (int, error) {
	var ev struct {
		Event   string `json:"event"`
		Attempt int    `json:"attempt"`
	}
	if op := e.tr.curOp.Load(); op != 0 && json.Unmarshal(p, &ev) == nil {
		switch {
		case ev.Event == "hedge":
			e.tr.add(op, "cluster.hedges", 1)
		case ev.Event == "degraded":
			e.tr.add(op, "cluster.degraded", 1)
		case ev.Event == "dispatch" && ev.Attempt > 0:
			e.tr.add(op, "cluster.retries", 1)
		}
	}
	return len(p), nil
}
