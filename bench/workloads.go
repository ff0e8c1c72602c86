package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/datasets"
	"github.com/flipper-mining/flipper/internal/service"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// buildWorkload generates the workload's inputs from the seed under
// o.workDir, computes the reference outputs through in-process paths that
// avoid the system's own front end, and assembles the system and clients.
func buildWorkload(o options, tr *tracer) (*workload, error) {
	switch o.workload {
	case "cli-cold":
		return cliCold(o, tr)
	case "explore-synth":
		return exploreSynth(o, tr)
	case "serve-hot":
		return serveHot(o, tr)
	case "topk-large":
		return topkLarge(o, tr)
	case "cluster-scatter":
		return clusterScatter(o, tr)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// cliCold runs the flipper CLI on the medline simulator, one process per
// mine, exactly as a user scripting one-shot mines would.
func cliCold(o options, tr *tracer) (*workload, error) {
	md, err := datasets.ByName("medline", medlineScale*o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	ds, err := writeDataset(o.workDir, "medline", md.Tree, md.DB, 1)
	if err != nil {
		return nil, err
	}
	tree, src, err := ds.load()
	if err != nil {
		return nil, err
	}
	// The CLI's configuration: its defaults plus the flags below.
	cfg := core.DefaultConfig(tree.Height())
	cfg.Gamma, cfg.Epsilon, cfg.MinSup = md.Gamma, md.Epsilon, md.MinSup
	res, err := core.Mine(src, tree, cfg)
	if err != nil {
		return nil, err
	}
	if len(res.Patterns) == 0 {
		return nil, fmt.Errorf("medline mines no patterns; the workload would exercise nothing past counting")
	}
	want, err := canonicalResult(res, tree, false)
	if err != nil {
		return nil, err
	}
	// A second, independent counting backend must agree on the patterns.
	bm := cfg
	bm.Strategy = core.CountBitmap
	alt, err := core.Mine(src, tree, bm)
	if err != nil {
		return nil, err
	}
	a, _ := canonicalResult(res, tree, true)
	b, err := canonicalResult(alt, tree, true)
	if err != nil || !bytes.Equal(a, b) {
		return nil, fmt.Errorf("medline: scan and bitmap counting disagree on the patterns (%v)", err)
	}
	sups := make([]string, len(cfg.MinSup))
	for i, v := range cfg.MinSup {
		sups[i] = fmtFloat(v)
	}
	req := &request{
		label: "medline",
		args: []string{"-tax", ds.taxPath, "-db", ds.baskets[0],
			"-gamma", fmtFloat(cfg.Gamma), "-epsilon", fmtFloat(cfg.Epsilon),
			"-minsup", strings.Join(sups, ","), "-pruning", "full", "-json-api"},
		want: want,
	}
	return &workload{
		sys:     &cliSystem{bin: o.flipper, ds: ds, cfg: cfg, tr: tr},
		plans:   []clientPlan{fixedCycle([]*request{req})},
		primary: probeInput{ds: ds, cfg: cfg},
		child:   true,
	}, nil
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// cliSystem is the flipper binary. Its set-up is the in-process load of
// the files every invocation reads, which is the part of a one-shot run a
// resident server would pay once.
type cliSystem struct {
	bin string
	ds  dataset
	cfg core.Config
	tr  *tracer
}

func (s *cliSystem) start() error {
	_, _, err := s.ds.load()
	return err
}

func (s *cliSystem) stop() {}

func (s *cliSystem) do(_ int, r *request, o *op, _ opIDs) ([]byte, error) {
	cmd := exec.Command(s.bin, r.args...)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("flipper: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		o.rssKB = ru.Maxrss
	}
	o.bytes = out.Len()
	return out.Bytes(), nil
}

// afterOp replays the CLI's steps in process on the same files, so the
// child's time can be split by layer: its spans follow the operation's.
func (s *cliSystem) afterOp(_ *request, o *op, ids opIDs) error {
	var took time.Duration
	step := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		end := time.Now()
		took = end.Sub(start)
		o.inner += took
		if ids.op != 0 {
			s.tr.record(ids.op, 0, ids.span, name, start, end)
		}
		return err
	}
	var (
		tree *taxonomy.Tree
		src  txdb.Source
		res  *core.Result
	)
	if err := step("taxonomy.parse", func() (err error) { tree, err = s.ds.parseTree(); return }); err != nil {
		return err
	}
	if err := step("txdb.load", func() (err error) { src, err = s.ds.openSource(tree); return }); err != nil {
		return err
	}
	if err := step("core.mine", func() (err error) { res, err = core.Mine(src, tree, s.cfg); return }); err != nil {
		return err
	}
	o.mine, o.mined = took, true
	return step("core.encode", func() error { return res.WriteAPIJSON(&bytes.Buffer{}, tree) })
}

// residentSystem is an in-process flipperd serving a data directory, with
// one API client per benchmark client. Its set-up is a restart: load the
// data, start serving (and join the cluster), and answer each client's
// first request.
type residentSystem struct {
	dataDir string
	fc      flipperdConfig
	first   []*request // each client's first request
	f       *flipperd
	cls     []*apiClient
}

func (s *residentSystem) start() error {
	// A restarted flipperd would warm-start anchored search from the
	// sketches.bin an earlier set-up persisted; every set-up builds them.
	paths, _ := filepath.Glob(filepath.Join(s.dataDir, "*", "sketches.bin")) // the pattern is well-formed
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	f, err := startFlipperd(s.dataDir, s.fc)
	if err != nil {
		return err
	}
	s.f = f
	s.cls = s.cls[:0]
	for range s.first {
		s.cls = append(s.cls, newAPIClient(f.front.url))
	}
	errs := make(chan error, len(s.first))
	for c, r := range s.first {
		go func() {
			var o op
			_, err := s.do(c, r, &o, opIDs{})
			errs <- err
		}()
	}
	for range s.first {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		s.stop()
	}
	return err
}

func (s *residentSystem) stop() {
	if s.f == nil {
		return
	}
	for _, c := range s.cls {
		c.close()
	}
	s.f.close()
	s.f = nil
}

func (s *residentSystem) do(c int, r *request, o *op, ids opIDs) ([]byte, error) {
	j, err := s.cls[c].run(r, o, ids)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.label, err)
	}
	if j.Status != "done" {
		return nil, fmt.Errorf("%s: job %s %s: %s", r.label, j.ID, j.Status, j.Error)
	}
	o.hit = j.CacheHit
	o.created = j.Created
	if j.Started != nil && j.Finished != nil {
		o.started, o.ended = *j.Started, *j.Finished
		o.inner = o.ended.Sub(o.created)
		if !j.CacheHit {
			o.mined, o.mine, o.queue = true, o.ended.Sub(o.started), o.started.Sub(o.created)
		}
	}
	return j.Result, nil
}

// afterOp records the job's queue wait and run as spans, from the job's own
// timestamps.
func (s *residentSystem) afterOp(_ *request, o *op, ids opIDs) error {
	if ids.op != 0 && o.mined {
		s.fc.tr.record(ids.op, 0, ids.span, "service.queue", o.created, o.started)
		s.fc.tr.record(ids.op, 0, ids.span, "service.run", o.started, o.ended)
	}
	return nil
}

// patch is a /v1 configuration overlay (service.ConfigPatch on the wire).
type patch map[string]any

func minePatch(gamma, eps float64, minsup []float64, strategy string) patch {
	return patch{"gamma": gamma, "epsilon": eps, "min_sup": minsup, "pruning": "full", "strategy": strategy}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of numbers and strings always marshal
	}
	return b
}

// serverConfig resolves an overlay exactly as flipperd does: decoded into a
// service.ConfigPatch and applied over the dataset's default configuration.
func serverConfig(p patch, tree *taxonomy.Tree) (core.Config, error) {
	var cp service.ConfigPatch
	if err := json.Unmarshal(mustJSON(p), &cp); err != nil {
		return core.Config{}, err
	}
	return cp.Apply(core.DefaultConfig(tree.Height())), nil
}

// reference mines cfg on a bench-local engine: the same engine code, but
// none of the service's queue, cache, HTTP or JSON path.
type reference struct {
	tree *taxonomy.Tree
	eng  *core.Engine
}

func newReference(ds dataset) (*reference, error) {
	tree, src, err := ds.load()
	if err != nil {
		return nil, err
	}
	return &reference{tree: tree, eng: core.NewEngine(src, tree)}, nil
}

// jobRequest builds a POST /v1/jobs request with its reference output.
func (ref *reference) jobRequest(dataset, label string, p patch, needPatterns, patternsOnly bool) (*request, error) {
	cfg, err := serverConfig(p, ref.tree)
	if err != nil {
		return nil, err
	}
	res, err := ref.eng.Mine(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	if needPatterns && len(res.Patterns) == 0 {
		return nil, fmt.Errorf("%s mines no patterns; the workload would exercise nothing past counting", label)
	}
	want, err := canonicalResult(res, ref.tree, patternsOnly)
	if err != nil {
		return nil, err
	}
	return &request{
		label:        label,
		path:         "/v1/jobs",
		body:         mustJSON(map[string]any{"dataset": dataset, "config": p}),
		want:         want,
		patternsOnly: patternsOnly,
	}, nil
}

// split deals requests to clients round-robin, so each client cycles over
// its own disjoint part and single-flight never merges two clients' jobs.
func split(rs []*request, clients int) []clientPlan {
	parts := make([][]*request, clients)
	for i, r := range rs {
		parts[i%clients] = append(parts[i%clients], r)
	}
	plans := make([]clientPlan, clients)
	for c := range parts {
		plans[c] = fixedCycle(parts[c])
	}
	return plans
}

func firstRequests(plans []clientPlan) []*request {
	out := make([]*request, len(plans))
	for c, p := range plans {
		out[c] = p.next(0)
	}
	return out
}

var (
	paperMinsup = []float64{0.01, 0.001, 0.0005, 0.0001}     // the synthetic default profile
	thr10Minsup = []float64{0.001, 0.0001, 0.00006, 0.00003} // the paper's lowest profile (Table 3 thr10)
)

// exploreSynth is threshold exploration on a warm engine: twelve distinct
// configurations, all cache misses, over the paper's synthetic data.
func exploreSynth(o options, tr *tracer) (*workload, error) {
	tree, db, err := synthetic(o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(o.workDir, "data")
	ds, err := writeDataset(dataDir, "synth", tree, db, 1)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(ds)
	if err != nil {
		return nil, err
	}
	var reqs []*request
	for _, ms := range []struct {
		name string
		sup  []float64
	}{{"paper", paperMinsup}, {"thr10", thr10Minsup}} {
		for _, ge := range [][2]float64{{0.3, 0.1}, {0.2, 0.1}, {0.2, 0.05}} {
			for _, st := range []string{"scan", "auto"} {
				label := fmt.Sprintf("synth %s γ=%g ε=%g %s", ms.name, ge[0], ge[1], st)
				r, err := ref.jobRequest("synth", label, minePatch(ge[0], ge[1], ms.sup, st), false, false)
				if err != nil {
					return nil, err
				}
				reqs = append(reqs, r)
			}
		}
	}
	plans := split(reqs, 2)
	primary, _ := serverConfig(minePatch(0.3, 0.1, paperMinsup, "scan"), ref.tree)
	return &workload{
		sys: &residentSystem{dataDir: dataDir, first: firstRequests(plans),
			fc: flipperdConfig{cacheSize: -1, tr: tr, wrap: o.wrap}},
		plans:   plans,
		primary: probeInput{ds: ds, cfg: primary},
	}, nil
}

// serveHot is many users re-asking known questions of two small datasets
// through the result cache: per client, 9 of every 10 requests repeat one
// of its popular configurations and the 10th is a configuration never seen
// before — a miss, a mine and a cache fill.
func serveHot(o options, tr *tracer) (*workload, error) {
	dataDir := filepath.Join(o.workDir, "data")
	type base struct {
		name  string
		ref   *reference
		gamma float64
		eps   float64
		sup   []float64
	}
	var bases []*base
	var primary probeInput
	for _, name := range []string{"census", "groceries"} {
		sim, err := datasets.ByName(name, o.scale, o.seed)
		if err != nil {
			return nil, err
		}
		ds, err := writeDataset(dataDir, name, sim.Tree, sim.DB, 1)
		if err != nil {
			return nil, err
		}
		ref, err := newReference(ds)
		if err != nil {
			return nil, err
		}
		if name == "census" {
			cfg, _ := serverConfig(minePatch(sim.Gamma, sim.Epsilon, sim.MinSup, "scan"), ref.tree)
			primary = probeInput{ds: ds, cfg: cfg}
		}
		bases = append(bases, &base{name, ref, sim.Gamma, sim.Epsilon, sim.MinSup})
	}
	// The popular configurations: each dataset's Table-4 thresholds, nudged
	// in the directions that keep its planted patterns.
	var popular []*request
	for _, b := range bases {
		for _, dg := range []float64{0, 0.02} {
			for _, de := range []float64{0, 0.02} {
				for _, st := range []string{"scan", "bitmap"} {
					g, e := b.gamma+dg, b.eps+de
					label := fmt.Sprintf("%s γ=%g ε=%g %s", b.name, g, e, st)
					r, err := b.ref.jobRequest(b.name, label, minePatch(g, e, b.sup, st), true, false)
					if err != nil {
						return nil, err
					}
					r.class, r.checkEvery = "hit", 100
					popular = append(popular, r)
				}
			}
		}
	}
	const clients, cycle = 2, 10
	plans := make([]clientPlan, clients)
	for c := range plans {
		var mine []*request
		for i, r := range popular {
			if i%clients == c {
				mine = append(mine, r)
			}
		}
		rng := rand.New(rand.NewSource(o.seed*7919 + int64(c)))
		misses := 0
		plans[c] = clientPlan{cycle: cycle, next: func(i int) *request {
			if i%cycle != cycle-1 {
				return mine[(i/cycle*(cycle-1)+i%cycle)%len(mine)]
			}
			// A configuration no earlier request used: ε drawn from a
			// continuous range strictly between the popular values.
			b := bases[misses%len(bases)]
			misses++
			p := minePatch(b.gamma, b.eps+0.001+0.018*rng.Float64(), b.sup, "scan")
			label := fmt.Sprintf("%s miss ε=%v", b.name, p["epsilon"])
			return &request{
				label: label, path: "/v1/jobs", class: "miss", checkEvery: 10,
				body: mustJSON(map[string]any{"dataset": b.name, "config": p}),
				wantFn: func() ([]byte, error) {
					cfg, err := serverConfig(p, b.ref.tree)
					if err != nil {
						return nil, err
					}
					res, err := b.ref.eng.Mine(cfg)
					if err != nil {
						return nil, err
					}
					return canonicalResult(res, b.ref.tree, false)
				},
			}
		}}
	}
	return &workload{
		sys: &residentSystem{dataDir: dataDir, first: firstRequests(plans),
			fc: flipperdConfig{tr: tr, wrap: o.wrap}},
		plans:   plans,
		primary: primary,
	}, nil
}

// topkLarge asks anchored top-K questions through /v1/topk in its default
// (guaranteed) mode with the default sketch size, over a dataset 100 times
// that size, half of them through anchors a planted flip passes through.
func topkLarge(o options, tr *tracer) (*workload, error) {
	tree, db, err := topkData(o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(o.workDir, "data")
	ds, err := writeDataset(dataDir, "topk", tree, db, 1)
	if err != nil {
		return nil, err
	}
	rtree, src, err := ds.load()
	if err != nil {
		return nil, err
	}
	overlay := patch{"gamma": 0.4, "epsilon": 0.12, "min_sup": []float64{0.02, 0.005}}
	cfg, err := serverConfig(overlay, rtree)
	if err != nil {
		return nil, err
	}
	full, err := core.Mine(src, rtree, cfg)
	if err != nil {
		return nil, err
	}
	const k = 5
	anchors := []struct {
		name    string
		planted bool
	}{
		{"cat00", true}, {"leaf00.0", true}, {"cat10", false}, {"leaf20.0", false},
		{"cat02", true}, {"leaf02.1", true}, {"cat30", false}, {"leaf40.1", false},
	}
	var reqs []*request
	for _, a := range anchors {
		top, err := anchoredTopK(full, rtree, a.name, k)
		if err != nil {
			return nil, err
		}
		if a.planted && len(top.Patterns) == 0 {
			return nil, fmt.Errorf("planted anchor %s yields no patterns", a.name)
		}
		want, err := canonicalResult(top, rtree, true)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, &request{
			label: "topk " + a.name, path: "/v1/topk", patternsOnly: true, want: want,
			body: mustJSON(map[string]any{"dataset": "topk", "anchor": a.name, "k": k, "config": overlay}),
		})
	}
	plans := split(reqs, 2)
	return &workload{
		sys: &residentSystem{dataDir: dataDir, first: firstRequests(plans),
			fc: flipperdConfig{cacheSize: -1, tr: tr, wrap: o.wrap}},
		plans:   plans,
		primary: probeInput{ds: ds, cfg: cfg},
	}, nil
}

// clusterScatter mines the explore-synth data, stored as two shard files,
// through a coordinator and two workers: the search runs on the
// coordinator and each shard's counting on a worker.
func clusterScatter(o options, tr *tracer) (*workload, error) {
	tree, db, err := synthetic(o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(o.workDir, "data")
	ds, err := writeDataset(dataDir, "synth", tree, db, 2)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(ds)
	if err != nil {
		return nil, err
	}
	var reqs []*request
	for _, ge := range [][2]float64{{0.3, 0.1}, {0.2, 0.05}} {
		for _, st := range []string{"scan", "auto"} {
			label := fmt.Sprintf("cluster γ=%g ε=%g %s", ge[0], ge[1], st)
			// Remote counting leaves the counting backend's own counters
			// (bitmap work, trie probes) at zero, so a distributed result
			// matches a local one in its patterns, not its statistics.
			r, err := ref.jobRequest("synth", label, minePatch(ge[0], ge[1], paperMinsup, st), false, true)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, r)
		}
	}
	plans := split(reqs, 1)
	primary, _ := serverConfig(minePatch(0.3, 0.1, paperMinsup, "scan"), ref.tree)
	return &workload{
		sys: &residentSystem{dataDir: dataDir, first: firstRequests(plans),
			fc: flipperdConfig{cacheSize: -1, workers: 2, dataset: "synth", tr: tr, wrap: o.wrap}},
		plans:   plans,
		primary: probeInput{ds: ds, cfg: primary},
		cluster: true,
	}, nil
}
