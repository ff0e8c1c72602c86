package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
)

// options are one benchmark run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string  // span JSONL path for traced runs ("" writes none)
	flipper  string  // the flipper CLI binary (cli-cold)
	workDir  string  // generated inputs; the caller removes it
	scale    float64 // input size factor: 1 is the benchmark, tests shrink it
	// setups is the least number of set-ups a run times; more follow while
	// their total stays under setupSeconds, up to maxSetups.
	setups       int
	setupSeconds float64
	wrap         func(http.Handler) http.Handler // wraps flipperd's /v1 handler (tests)
}

// minOps is the least number of operations a measured window holds, so the
// median always rests on at least ten samples on either side.
const minOps = 20

const maxSetups = 25

// request is one operation a client sends, with what its output must be.
type request struct {
	label        string
	path         string   // HTTP path (resident workloads)
	body         []byte   // HTTP request body
	args         []string // flipper CLI arguments (cli-cold)
	want         []byte   // canonical expected output; nil computes it with wantFn
	wantFn       func() ([]byte, error)
	patternsOnly bool   // compare only pattern_count and patterns
	class        string // requests of one class share a check counter
	checkEvery   int    // check every n-th op of the class (≤ 1: every op)
}

// typ names the request's type: requests of one type do the same work.
func (r *request) typ() string {
	if r.class != "" {
		return r.class
	}
	return r.label
}

// typedMedian is the latency of a workload whose cycle mixes request types
// of different cost: each type's median, combined by a geometric mean
// weighted by the type's share of the operations. The median of the mixed
// operations themselves would sit in the gap between the cost modes and
// jump with any small shift of either; each type's median does not.
func typedMedian(byType map[string][]float64) float64 {
	var sum float64
	var n int
	for _, xs := range byType {
		sum += float64(len(xs)) * math.Log(median(xs))
		n += len(xs)
	}
	return math.Exp(sum / float64(n))
}

// opIDs are the trace IDs of one recorded operation (zero when unrecorded).
type opIDs struct{ op, span int64 }

// op is what one operation measured.
type op struct {
	dur     time.Duration // request sent → result bytes in hand
	inner   time.Duration // of dur, the time spent inside the engine's job
	mine    time.Duration // mining time, when the op mined
	queue   time.Duration // queue wait, when the op mined
	submit  time.Duration // the submitting request's round trip
	polls   int
	bytes   int
	rssKB   int64
	typ     string // the request's type
	failed  bool
	hit     bool
	mined   bool
	traced  bool
	stats   *core.StatsJSON
	created time.Time
	started time.Time
	ended   time.Time
}

// system is the program under test as a workload reaches it.
type system interface {
	// start sets the system up until every client has had its first
	// answer; the runner times it as set-up.
	start() error
	stop()
	// do runs one operation and returns its output.
	do(client int, r *request, o *op, ids opIDs) ([]byte, error)
	// afterOp runs after the operation's clock stopped, in traced runs only.
	afterOp(r *request, o *op, ids opIDs) error
}

// clientPlan is one client's share of a workload's requests: an endless
// cycle of length cycle, whose i-th operation is next(i).
type clientPlan struct {
	cycle int
	next  func(i int) *request
}

func fixedCycle(rs []*request) clientPlan {
	return clientPlan{cycle: len(rs), next: func(i int) *request { return rs[i%len(rs)] }}
}

// workload is a built workload: its system, its clients and what the probes
// of a traced run load.
type workload struct {
	sys     system
	plans   []clientPlan
	primary probeInput
	cluster bool // distributed: a degraded result counts as a failure
	child   bool // the system runs as a child process (cli-cold)
}

// clientLog is what one client kept of the measured window.
type clientLog struct {
	lat     map[string][]float64 // ms of the successful ops, by request type
	rssKB   []int64              // child max RSS of the successful ops (cli-cold)
	failed  int
	errs    []string
	elapsed time.Duration // from the window's start to the last counted op's end
	ops     []op          // every op, traced runs only
	checks  map[string]int
}

// result is one run's outcome.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	report []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner measures one workload.
type runner struct {
	w     *workload
	tr    *tracer
	logs  []*clientLog
	seq   []int
	total atomic.Int64
}

func run(o options) (*result, error) {
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	w, err := buildWorkload(o, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", o.workload, err)
	}
	rn := &runner{w: w, tr: tr, seq: make([]int, len(w.plans))}
	for range w.plans {
		rn.logs = append(rn.logs, &clientLog{lat: map[string][]float64{}, checks: map[string]int{}})
	}

	runtime.GC()
	baseHeap := readUint(liveHeapMetric)
	// Set up at least o.setups times, and more while a cheap set-up leaves
	// time in its budget, tearing down each system but the last; set-up
	// time is the median.
	var setups []float64
	for spent := 0.0; len(setups) < o.setups || (spent < o.setupSeconds && len(setups) < maxSetups); {
		if len(setups) > 0 {
			w.sys.stop()
		}
		runtime.GC()
		start := time.Now()
		if err := w.sys.start(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[len(setups)-1]
	}
	defer func() {
		w.sys.stop()
		runtime.GC()
	}()

	// One untimed pass over every client's cycle lets lazily built state
	// (indexes, sketches, cache entries) fill before the clock starts.
	if err := rn.clients(func(c int) error {
		for j := 0; j < w.plans[c].cycle; j++ {
			var o op
			if _, err := w.sys.do(c, w.plans[c].next(rn.seq[c]), &o, opIDs{}); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			rn.seq[c]++
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}

	if w.child {
		// A child's max RSS counts the peak RSS of the process that spawned
		// it (exec records the shared pre-exec memory), so the runner
		// returns its memory and resets its own peak first.
		runtime.GC()
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return nil, fmt.Errorf("reset peak RSS: %w", err)
		}
	}
	allocs0, gcs0 := readUint(allocsMetric), readUint(gcMetric)
	stopHeap, peakHeap := sampleHeap()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	_ = rn.clients(func(c int) error { rn.client(c, start, deadline); return nil })
	stopHeap()
	allocs, gcs := float64(readUint(allocsMetric)-allocs0), float64(readUint(gcMetric)-gcs0)

	res := &result{Metrics: map[string]metricValue{}}
	byType := map[string][]float64{}
	var lat, rss []float64
	var window time.Duration
	var opsPerS float64 // each client's successful ops over its own time, summed
	for c, l := range rn.logs {
		window = max(window, l.elapsed)
		ok := 0
		for k, xs := range l.lat {
			byType[k] = append(byType[k], xs...)
			lat = append(lat, xs...)
			ok += len(xs)
		}
		if l.elapsed > 0 {
			opsPerS += float64(ok) / l.elapsed.Seconds()
		}
		for _, v := range l.rssKB {
			rss = append(rss, float64(v)*1024)
		}
		res.Attempted += ok + l.failed
		res.Failed += l.failed
		for _, e := range l.errs {
			res.report = append(res.report, fmt.Sprintf("client %d failure: %s", c, e))
		}
	}
	res.Correct = res.Failed == 0
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no operation succeeded: %s", o.workload, strings.Join(res.report, "; "))
	}
	res.report = append(res.report, fmt.Sprintf("ops %d ok, %d failed, window %.2fs, GOMAXPROCS %d",
		len(lat), res.Failed, window.Seconds(), runtime.GOMAXPROCS(0)))
	su := sorted(setups)
	res.report = append(res.report, fmt.Sprintf("set-up s median %.4f over %d (min %.4f, max %.4f)",
		median(setups), len(setups), su[0], su[len(su)-1]))
	tail := "p90 not reported: "
	if p90, err := percentile(lat, 0.9); err == nil {
		tail = fmt.Sprintf("p90 %.4f", p90)
	} else {
		tail += err.Error()
	}
	res.report = append(res.report, fmt.Sprintf("latency ms of all %d ops: median %.4f, %s", len(lat), median(lat), tail))

	if !o.trace {
		mem := (float64(peakHeap()) - float64(baseHeap)) / (1 << 20)
		if w.child {
			mem = median(rss) / (1 << 20)
		}
		res.set(endToEnd, "setup_s", median(setups))
		res.set(endToEnd, "op_ms.p50", typedMedian(byType))
		res.set(endToEnd, "ops_per_s", opsPerS)
		res.set(endToEnd, "mem_mb", mem)
		return res, res.complete(endToEnd)
	}

	var ops []op
	for _, l := range rn.logs {
		ops = append(ops, l.ops...)
	}
	n := float64(res.Attempted)
	layer, extras := opMetrics(ops, tr, w.child)
	layer["runtime.alloc_bytes_per_op"] = allocs / n
	layer["runtime.gc_per_op"] = gcs / n
	probes, err := runProbes(w.primary, o.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", o.workload, err)
	}
	for k, v := range probes {
		layer[k] = v
	}
	for _, d := range perLayer {
		if v, ok := layer[d.Name]; ok {
			res.set(perLayer, d.Name, v)
		}
	}
	for _, k := range sortedKeys(extras) {
		res.report = append(res.report, fmt.Sprintf("layer %s %.6g", k, extras[k]))
	}
	if o.traceOut != "" {
		if err := tr.writeJSONL(o.traceOut); err != nil {
			return nil, err
		}
		res.report = append(res.report, "spans written to "+o.traceOut)
	}
	return res, res.complete(perLayer)
}

func (r *result) set(defs []metricDef, name string, v float64) {
	d, _ := metricByName(defs, name)
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
}

// complete reports a declared metric the run could not measure.
func (r *result) complete(defs []metricDef) error {
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			return fmt.Errorf("metric %s has no samples", d.Name)
		}
	}
	return nil
}

// clients runs body once per client concurrently and returns the first
// error.
func (rn *runner) clients(body func(c int) error) error {
	errs := make([]error, len(rn.w.plans))
	var wg sync.WaitGroup
	for c := range rn.w.plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = body(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// client is one closed-loop client of the measured window: it sends its
// next request only when the previous one completed. The window counts the
// operations that complete by the deadline, or until it holds minOps; the
// one in flight at its end is not counted, so every counted operation ran
// under the same load. In traced runs every other pass over the client's
// cycle records spans; the passes between measure the same load
// unrecorded, which gives the tracing overhead.
func (rn *runner) client(c int, start, deadline time.Time) {
	plan := rn.w.plans[c]
	for i := 0; ; i++ {
		record := rn.tr != nil && i/plan.cycle%2 == 0
		o, end, err := rn.one(c, plan.next(rn.seq[c]), record)
		rn.seq[c]++
		// A traced window also holds a recorded and an unrecorded pass.
		if end.After(deadline) && rn.total.Load() >= minOps && (rn.tr == nil || i >= 2*plan.cycle) {
			return
		}
		rn.log(c, o, err, end.Sub(start))
	}
}

// maxErrs caps the failure messages a client keeps for the report.
const maxErrs = 5

// one runs, times and checks one operation, and returns when it ended.
func (rn *runner) one(c int, r *request, record bool) (op, time.Time, error) {
	o := op{typ: r.typ()}
	var ids opIDs
	single := len(rn.w.plans) == 1
	if record {
		ids = opIDs{op: rn.tr.newID(), span: rn.tr.newID()}
		o.traced = true
		if single {
			rn.tr.curOp.Store(ids.op)
			rn.tr.curSpan.Store(ids.span)
		}
	}
	start := time.Now()
	out, err := rn.w.sys.do(c, r, &o, ids)
	end := time.Now()
	o.dur = end.Sub(start)
	if record && single {
		rn.tr.curOp.Store(0)
	}
	if err == nil {
		err = rn.check(c, r, out, &o)
	}
	if err == nil && rn.tr != nil {
		err = rn.w.sys.afterOp(r, &o, ids)
	}
	if record {
		rn.tr.record(ids.op, ids.span, 0, "op", start, end)
	}
	return o, end, err
}

// log counts one operation of the window, which has now run for elapsed.
func (rn *runner) log(c int, o op, err error, elapsed time.Duration) {
	l := rn.logs[c]
	l.elapsed = elapsed
	if err != nil {
		o.failed = true
		l.failed++
		if len(l.errs) < maxErrs {
			l.errs = append(l.errs, err.Error())
		}
	} else {
		l.lat[o.typ] = append(l.lat[o.typ], ms(o.dur))
		if rn.w.child {
			l.rssKB = append(l.rssKB, o.rssKB)
		}
	}
	if rn.tr != nil {
		l.ops = append(l.ops, o)
	}
	rn.total.Add(1)
}

// check verifies an operation's output after its clock stopped: a degraded
// distributed result or a canonical-bytes mismatch with the reference fails
// the operation.
func (rn *runner) check(c int, r *request, out []byte, o *op) error {
	if rn.tr != nil || rn.w.cluster {
		var env struct {
			Stats *core.StatsJSON `json:"stats"`
		}
		if err := json.Unmarshal(out, &env); err != nil {
			return fmt.Errorf("%s: bad result: %w", r.label, err)
		}
		if env.Stats != nil && env.Stats.Degraded {
			return fmt.Errorf("%s: degraded result", r.label)
		}
		o.stats = env.Stats
	}
	l := rn.logs[c]
	n := l.checks[r.class]
	l.checks[r.class]++
	if r.checkEvery > 1 && n%r.checkEvery != 0 {
		return nil
	}
	want := r.want
	if want == nil {
		var err error
		if want, err = r.wantFn(); err != nil {
			return fmt.Errorf("%s: reference: %w", r.label, err)
		}
	}
	got, err := canonical(out, r.patternsOnly)
	if err != nil {
		return fmt.Errorf("%s: %w", r.label, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: output differs from the reference", r.label)
	}
	return nil
}

// runtime/metrics the runner reads.
const (
	liveHeapMetric = "/gc/heap/live:bytes"
	allocsMetric   = "/gc/heap/allocs:bytes"
	gcMetric       = "/gc/cycles/total:gc-cycles"
)

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// sampleHeap samples the live heap every 100ms until stop is called; peak
// then returns the largest sample.
func sampleHeap() (stop func(), peak func() uint64) {
	done := make(chan struct{})
	var max uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			if v := readUint(liveHeapMetric); v > max {
				max = v
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }, func() uint64 { return max }
}

// newWorkDir makes a fresh directory for one run's inputs under root's
// .bench_build, so a run never reads a file an earlier run left behind.
func newWorkDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}
