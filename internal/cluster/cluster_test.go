package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/faultinject"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// testDataset builds a random balanced taxonomy and correlated transaction
// mix — the same generator shape core's equivalence suite uses, so flips
// actually occur.
func testDataset(rng *rand.Rand) (*txdb.DB, *taxonomy.Tree) {
	roots := 2 + rng.Intn(3)
	fanout := 2 + rng.Intn(2)
	b := taxonomy.NewBuilder(nil)
	var leaves []string
	for r := 0; r < roots; r++ {
		root := fmt.Sprintf("c%d", r)
		for m := 0; m < fanout; m++ {
			mid := fmt.Sprintf("c%d.%d", r, m)
			for l := 0; l < fanout; l++ {
				leaf := fmt.Sprintf("c%d.%d.%d", r, m, l)
				if err := b.AddPath(root, mid, leaf); err != nil {
					panic(err)
				}
				leaves = append(leaves, leaf)
			}
		}
	}
	tree, err := b.Build()
	if err != nil {
		panic(err)
	}
	db := txdb.New(tree.Dict())
	n := 60 + rng.Intn(120)
	type template struct{ a, b string }
	var templates []template
	for i := 0; i < 3+rng.Intn(4); i++ {
		templates = append(templates, template{
			a: leaves[rng.Intn(len(leaves))],
			b: leaves[rng.Intn(len(leaves))],
		})
	}
	for i := 0; i < n; i++ {
		var names []string
		if rng.Float64() < 0.65 {
			tpl := templates[rng.Intn(len(templates))]
			names = append(names, tpl.a)
			if rng.Float64() < 0.8 {
				names = append(names, tpl.b)
			}
		}
		w := 1 + rng.Intn(4)
		for j := 0; j < w; j++ {
			names = append(names, leaves[rng.Intn(len(leaves))])
		}
		db.AddNames(names...)
	}
	return db, tree
}

// patternsJSON renders a result's envelope as canonical bytes — the
// byte-identity surface of the equivalence suite: the patterns one per line,
// then the stats with the timing keys (core.VolatileStatsKeys) and the
// degraded flag scrubbed. A distributed run counts every pass with the
// kernel a local run uses and merges the workers' per-shard tallies as a
// local run merges its own, so every other counter must match too.
func patternsJSON(t *testing.T, res *core.Result, tree *taxonomy.Tree) string {
	t.Helper()
	rj := res.JSON(tree)
	var sb strings.Builder
	fmt.Fprintf(&sb, "count=%d\n", rj.PatternCount)
	for _, p := range rj.Patterns {
		line, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	raw, err := json.Marshal(rj.Stats)
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	for _, k := range append(core.VolatileStatsKeys(), "degraded") {
		delete(stats, k)
	}
	line, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(line)
	return sb.String()
}

// testCluster is an in-process multi-node cluster: N worker HTTP servers
// over their own engines, one coordinator over its own engine, all sharing
// the same in-memory db + tree (which LoadDir determinism guarantees for
// real multi-process deployments).
type testCluster struct {
	co      *Coordinator
	fp      Fingerprint
	workers []*httptest.Server
	ids     []string
	delay   []*atomic.Int64 // per-worker artificial handler delay, ns
	failAt  []*atomic.Bool  // per-worker hard-failure switch
}

// traceWriter returns the CI artifact sink: a JSONL file under
// CLUSTER_TRACE_DIR when set (the cluster-chaos job uploads the directory
// on failure), nil otherwise.
func traceWriter(t *testing.T) io.Writer {
	dir := os.Getenv("CLUSTER_TRACE_DIR")
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("trace dir: %v", err)
		return nil
	}
	name := strings.NewReplacer("/", "_", " ", "_").Replace(t.Name()) + ".jsonl"
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Logf("trace file: %v", err)
		return nil
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// newTestCluster assembles n workers and a coordinator over the dataset,
// every node counting src's shards. Workers register through real heartbeat
// HTTP pushes against the coordinator's handler, not by poking the registry.
func newTestCluster(t *testing.T, n int, src txdb.Source, tree *taxonomy.Tree, opts Options) *testCluster {
	t.Helper()
	fp := NewFingerprint("ds", src, tree)
	tc := &testCluster{fp: fp}
	if opts.TraceWriter == nil {
		opts.TraceWriter = traceWriter(t)
	}
	coordCat := NewCatalog()
	coordCat.Add("ds", core.NewEngine(src, tree), tree, fp)
	tc.co = New(coordCat, opts)
	coordSrv := httptest.NewServer(tc.co.Handler())
	t.Cleanup(coordSrv.Close)

	for i := 0; i < n; i++ {
		cat := NewCatalog()
		cat.Add("ds", core.NewEngine(src, tree), tree, fp)
		id := fmt.Sprintf("w%d", i)
		w := NewWorker(id, cat)
		delay := &atomic.Int64{}
		failing := &atomic.Bool{}
		handler := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if d := delay.Load(); d > 0 {
				select {
				case <-r.Context().Done():
					return
				case <-time.After(time.Duration(d)):
				}
			}
			if failing.Load() {
				http.Error(rw, `{"error":"worker killed"}`, http.StatusInternalServerError)
				return
			}
			w.Handler().ServeHTTP(rw, r)
		})
		srv := httptest.NewServer(handler)
		t.Cleanup(srv.Close)
		if err := w.SendHeartbeat(context.Background(), coordSrv.URL, srv.URL, nil); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		tc.workers = append(tc.workers, srv)
		tc.ids = append(tc.ids, id)
		tc.delay = append(tc.delay, delay)
		tc.failAt = append(tc.failAt, failing)
	}
	return tc
}

// reheartbeat refreshes every non-killed worker's registration (long
// matrices on slow CI machines can outlast SuspectAfter between cases, and
// heartbeats decay dispatch-failure counts).
func (tc *testCluster) reheartbeat() {
	for i, srv := range tc.workers {
		if !tc.failAt[i].Load() {
			tc.co.Registry().Heartbeat(Heartbeat{
				Worker:   tc.ids[i],
				Addr:     srv.URL,
				Datasets: []Fingerprint{tc.fp},
			})
		}
	}
}

// fastOpts keeps retry/hedge timing test-sized.
func fastOpts() Options {
	return Options{
		RetryAttempts: 4,
		RetryBase:     time.Millisecond,
		RetryCap:      5 * time.Millisecond,
		HedgeAfter:    15 * time.Millisecond,
		Seed:          7,
	}
}

func testConfig() core.Config {
	return core.Config{
		Measure:   measure.Kulczynski,
		Gamma:     0.3,
		Epsilon:   0.1,
		MinSupAbs: []int64{2, 1, 1},
		Pruning:   core.Full,
	}
}

// streamedShards writes the n parts of db to basket files and composes them
// into a ShardedSource of FileSources: the out-of-core layout, which every
// engine over it streams.
func streamedShards(t *testing.T, db *txdb.DB, n int) *txdb.ShardedSource {
	t.Helper()
	dir := t.TempDir()
	var shards []txdb.Source
	for i, part := range txdb.Partition(db, n) {
		path := filepath.Join(dir, fmt.Sprintf("shard%03d.txt", i))
		if err := part.WriteBasketFile(path); err != nil {
			t.Fatal(err)
		}
		fs, err := txdb.OpenFile(path, db.Dict())
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, fs)
	}
	ss, err := txdb.NewSharded(shards...)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestClusterEquivalence is the cluster's core guarantee: a 3-worker
// in-process cluster with injected network faults — drops, stalls, 5xx
// bursts, truncated bodies — produces envelopes (patterns and stats, see
// patternsJSON) byte-identical to single-process core.Mine, across shards
// 2/7 × fault schedules. Each
// shard count is its own cluster over txdb.PartitionSource, so the
// fingerprints carry the shard count the workers count. Workers that die
// under the fault load push the coordinator through reassignment and, at the
// limit, the degraded local fallback — the bytes must not move either way.
func TestClusterEquivalence(t *testing.T) {
	type faultCase struct {
		name string
		plan faultinject.HTTPPlan
	}
	faults := []faultCase{
		{"clean", faultinject.HTTPPlan{}},
		{"drops", faultinject.HTTPPlan{Seed: 101, DropEveryN: 4, MaxFaults: 40}},
		{"5xx-burst", faultinject.HTTPPlan{Seed: 202, Error5xxEveryN: 3, MaxFaults: 40}},
		{"truncated", faultinject.HTTPPlan{Seed: 303, TruncateEveryN: 4, MaxFaults: 40}},
		{"stalls", faultinject.HTTPPlan{Seed: 404, StallEveryN: 3, Delay: 30 * time.Millisecond}},
		{"mixed", faultinject.HTTPPlan{
			Seed: 505, DropEveryN: 6, Error5xxEveryN: 8, TruncateEveryN: 8,
			StallEveryN: 6, Delay: 20 * time.Millisecond, MaxFaults: 60,
		}},
	}
	shardCounts := []int{2, 7}
	if testing.Short() {
		faults = faults[:3]
	}

	rng := rand.New(rand.NewSource(20110831))
	db, tree := testDataset(rng)

	for _, fc := range faults {
		t.Run(fc.name, func(t *testing.T) {
			for _, shards := range shardCounts {
				opts := fastOpts()
				if fc.plan != (faultinject.HTTPPlan{}) {
					opts.HTTPClient = &http.Client{
						Transport: faultinject.NewHTTPTransport(nil, fc.plan),
						Timeout:   30 * time.Second,
					}
				}
				src := txdb.PartitionSource(db, shards)
				tc := newTestCluster(t, 3, src, tree, opts)
				if tc.fp.Shards != shards {
					t.Fatalf("fingerprint carries %d shards, want %d", tc.fp.Shards, shards)
				}
				cfg := testConfig()
				local, err := core.Mine(src, tree, cfg)
				if err != nil {
					t.Fatalf("shards=%d: local: %v", shards, err)
				}
				tc.reheartbeat()
				dist, err := tc.co.Mine(context.Background(), "ds", cfg)
				if err != nil {
					t.Fatalf("shards=%d: distributed: %v", shards, err)
				}
				want, got := patternsJSON(t, local, tree), patternsJSON(t, dist, tree)
				if got != want {
					t.Fatalf("shards=%d: distributed diverged from local.\nlocal:\n%s\ndistributed:\n%s",
						shards, want, got)
				}
			}
		})
	}
}

// TestClusterStreamingEquivalence covers the disk-resident (streaming)
// counting mode over the cluster: every node streams the same shard files.
func TestClusterStreamingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db, tree := testDataset(rng)
	src := streamedShards(t, db, 2)
	cfg := testConfig()
	local, err := core.Mine(src, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := newTestCluster(t, 3, src, tree, fastOpts())
	dist, err := tc.co.Mine(context.Background(), "ds", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := patternsJSON(t, dist, tree), patternsJSON(t, local, tree); got != want {
		t.Fatalf("streaming distributed diverged.\nlocal:\n%s\ndistributed:\n%s", want, got)
	}
}

// TestClusterWorkerDeathMidJob kills a worker (hard 500s) for the duration
// of a job: the dispatch failure counters must declare it dead, its shards
// must be reassigned to the survivors without degrading, and the result must
// stay byte-identical. Then the worker revives through heartbeat decay.
func TestClusterWorkerDeathMidJob(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	db, tree := testDataset(rng)
	src := txdb.PartitionSource(db, 7)
	cfg := testConfig()
	local, err := core.Mine(src, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := newTestCluster(t, 3, src, tree, fastOpts())
	// Kill w0: every dispatch to it fails hard, so mid-job its shards
	// reroute and the failure threshold buries it.
	tc.failAt[0].Store(true)
	dist, err := tc.co.Mine(context.Background(), "ds", cfg)
	if err != nil {
		t.Fatalf("distributed mine with dead worker: %v", err)
	}
	if got, want := patternsJSON(t, dist, tree), patternsJSON(t, local, tree); got != want {
		t.Fatalf("result diverged after worker death.\nlocal:\n%s\ndistributed:\n%s", want, got)
	}
	if dist.Stats.Degraded {
		t.Fatal("run degraded despite two healthy workers")
	}
	if st := tc.co.Registry().StateOf("w0"); st != StateDead {
		t.Fatalf("failing worker state %v, want dead", st)
	}
	// Revive: heartbeats decay the failures and the worker serves again.
	tc.failAt[0].Store(false)
	for i := 0; i < failDead; i++ {
		tc.reheartbeat()
	}
	if st := tc.co.Registry().StateOf("w0"); st != StateAlive {
		t.Fatalf("revived worker state %v, want alive", st)
	}
}

// TestClusterDegradedFallback takes every worker down: the coordinator must
// mine the whole job locally, report degraded, and still match the
// single-process result byte for byte.
func TestClusterDegradedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	db, tree := testDataset(rng)
	src := txdb.PartitionSource(db, 2)
	cfg := testConfig()
	local, err := core.Mine(src, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := newTestCluster(t, 3, src, tree, fastOpts())
	for _, f := range tc.failAt {
		f.Store(true)
	}
	dist, err := tc.co.Mine(context.Background(), "ds", cfg)
	if err != nil {
		t.Fatalf("degraded mine: %v", err)
	}
	if !dist.Stats.Degraded {
		t.Fatal("all-workers-down run not flagged degraded")
	}
	if got, want := patternsJSON(t, dist, tree), patternsJSON(t, local, tree); got != want {
		t.Fatalf("degraded result diverged.\nlocal:\n%s\ndegraded:\n%s", want, got)
	}

	// Partial recovery: one worker comes back (one heartbeat decays it from
	// dead to suspect, so it serves again). Whether any given shard lands on
	// it or falls back locally, the bytes cannot move.
	tc.failAt[1].Store(false)
	tc.reheartbeat()
	dist2, err := tc.co.Mine(context.Background(), "ds", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := patternsJSON(t, dist2, tree), patternsJSON(t, local, tree); got != want {
		t.Fatalf("partially-recovered result diverged.\nlocal:\n%s\ndistributed:\n%s", want, got)
	}
}

// TestClusterHedgeWinnerDeterminism pins first-result-wins: with one
// straggling worker forcing hedges, the merged result is byte-identical no
// matter which copy of a duplicated dispatch lands first — both orders are
// exercised by swapping which worker is the straggler.
func TestClusterHedgeWinnerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	db, tree := testDataset(rng)
	src := txdb.PartitionSource(db, 2)
	cfg := testConfig()
	local, err := core.Mine(src, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := patternsJSON(t, local, tree)

	for slow := 0; slow < 2; slow++ {
		opts := fastOpts()
		opts.HedgeAfter = 10 * time.Millisecond
		tc := newTestCluster(t, 2, src, tree, opts)
		// The slow worker stalls past the hedge deadline on every request:
		// when it is primary for a shard the hedge on the fast worker wins;
		// when it is the hedge target the primary wins. The straggler's
		// vector arrives later (or is cancelled) and is never merged.
		tc.delay[slow].Store(int64(60 * time.Millisecond))
		dist, err := tc.co.Mine(context.Background(), "ds", cfg)
		if err != nil {
			t.Fatalf("slow=%d: %v", slow, err)
		}
		if got := patternsJSON(t, dist, tree); got != want {
			t.Fatalf("slow=%d: hedged result diverged.\nlocal:\n%s\ndistributed:\n%s", slow, want, got)
		}
		if dist.Stats.Degraded {
			t.Fatalf("slow=%d: hedged run flagged degraded", slow)
		}
	}
}

// TestCoordinatorEligible pins the local-vs-distributed routing predicate
// the service queue keys off.
func TestCoordinatorEligible(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	db, tree := testDataset(rng)
	fp := NewFingerprint("ds", db, tree)
	cat := NewCatalog()
	cat.Add("ds", core.NewEngine(db, tree), tree, fp)
	co := New(cat, fastOpts())
	if co.Eligible("ds") {
		t.Fatal("eligible with no workers")
	}
	if co.Eligible("nope") {
		t.Fatal("eligible for unknown dataset")
	}
	co.Registry().Heartbeat(Heartbeat{Worker: "w1", Addr: "http://a", Datasets: []Fingerprint{fp}})
	if !co.Eligible("ds") {
		t.Fatal("not eligible with a live worker")
	}
	if co.Reachable() != 1 {
		t.Fatalf("reachable %d, want 1", co.Reachable())
	}
	// A worker advertising a different build of the dataset doesn't count.
	stale := fp
	stale.Nodes++
	co.Registry().Remove("w1")
	co.Registry().Heartbeat(Heartbeat{Worker: "w2", Addr: "http://b", Datasets: []Fingerprint{stale}})
	if co.Eligible("ds") {
		t.Fatal("eligible via mismatched fingerprint")
	}
}

// TestWorkerHandlerValidation exercises the worker's request cross-checks
// over real HTTP: every property whose mismatch would otherwise merge wrong
// integers silently must be rejected loudly.
func TestWorkerHandlerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	db, tree := testDataset(rng)
	fp := NewFingerprint("ds", db, tree)
	cat := NewCatalog()
	cat.Add("ds", core.NewEngine(db, tree), tree, fp)
	w := NewWorker("w1", cat)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	cfg := core.Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
		MinSupAbs: []int64{1, 1, 1},
	}
	var answer []byte // the body of the last response
	postBody := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+PathCount, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if answer, err = io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	post := func(req CountRequest) int {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return postBody(body)
	}
	leaves := tree.Leaves()
	a, b := leaves[0], leaves[1]
	if a > b {
		a, b = b, a
	}
	good := CountRequest{Fingerprint: fp, ShardUnit: core.ShardUnit{
		Level: tree.Height(), K: 2, Shard: 0,
		Candidates: []itemset.Set{{a, b}},
	}}
	if got := post(good); got != http.StatusOK {
		t.Fatalf("valid request: %d", got)
	}
	// Count answers go out compact: compacting changes nothing.
	var compact bytes.Buffer
	if err := json.Compact(&compact, answer); err != nil {
		t.Fatalf("count answer %q: %v", answer, err)
	}
	if !bytes.Equal(compact.Bytes(), answer) {
		t.Errorf("count answer is not compact JSON:\n%s", answer)
	}
	bad := good
	bad.Fingerprint.Transactions++
	if got := post(bad); got != http.StatusConflict {
		t.Fatalf("fingerprint mismatch: %d, want 409", got)
	}
	bad = good
	bad.Fingerprint.Dataset = "nope"
	if got := post(bad); got != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d, want 404", got)
	}
	bad = good
	bad.Shard = 5
	if got := post(bad); got != http.StatusBadRequest {
		t.Fatalf("shard out of range: %d, want 400", got)
	}
	bad = good
	bad.K = 3
	if got := post(bad); got != http.StatusBadRequest {
		t.Fatalf("k mismatch: %d, want 400", got)
	}
	bad = good
	bad.Fingerprint.Protocol = 0 // a fingerprint of a build before the packed wire
	if got := post(bad); got != http.StatusConflict {
		t.Fatalf("protocol-revision mismatch: %d, want 409", got)
	}

	// The packing and the candidates: each answers 400, naming the fault,
	// before any counting. The first two add to the good unit a field of the
	// count wire's revision 2, which a unit no longer has; the next three
	// replace its packed candidates with bytes no coordinator packs.
	var fields map[string]json.RawMessage
	raw, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for field, value := range map[string]any{"config": cfg, "config_key": cfg.CanonicalKey()} {
		with := maps.Clone(fields)
		with[field], _ = json.Marshal(value)
		body, err := json.Marshal(with)
		if err != nil {
			t.Fatal(err)
		}
		fault := fmt.Sprintf(`unknown field \"%s\"`, field) // as the JSON error envelope escapes it
		if got := postBody(body); got != http.StatusBadRequest || !bytes.Contains(answer, []byte(fault)) {
			t.Errorf("a body carrying %s: %d %s, want 400 naming %q", field, got, answer, fault)
		}
	}
	packed := func(b ...byte) string { return base64.StdEncoding.EncodeToString(b) }
	past := binary.AppendUvarint([]byte{1, 2}, math.MaxInt32+1) // one set: its first item past int32
	for _, tc := range []struct {
		name, candidates, fault string
	}{
		{"bad base64", "not base64!", "malformed packing"},
		{"truncated uvarint", packed(1, 2, 3, 0x80), "malformed packing"},
		{"ID past int32", packed(past...), "malformed packing"},
	} {
		fields["candidates"], _ = json.Marshal(tc.candidates)
		body, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		if got := postBody(body); got != http.StatusBadRequest || !bytes.Contains(answer, []byte(tc.fault)) {
			t.Errorf("%s: %d %s, want 400 naming %q", tc.name, got, answer, tc.fault)
		}
	}
	for _, tc := range []struct {
		name       string
		candidates []itemset.Set
		fault      string
	}{
		{"non-canonical candidate", []itemset.Set{{a, a}}, "not a canonical itemset"},
		{"duplicate candidate", []itemset.Set{{a, b}, {a, b}}, "duplicate candidate"},
		{"candidate of the wrong k", []itemset.Set{{a, b}, {b}}, "has 1 items, want 2"},
	} {
		bad = good
		bad.Candidates = tc.candidates
		if got := post(bad); got != http.StatusBadRequest || !bytes.Contains(answer, []byte(tc.fault)) {
			t.Errorf("%s: %d %s, want 400 naming %q", tc.name, got, answer, tc.fault)
		}
	}
}

// TestLatencyWindowQuantile pins the hedge-deadline math.
func TestLatencyWindowQuantile(t *testing.T) {
	var lw latencyWindow
	if q := lw.quantile(0.9); q != 0 {
		t.Fatalf("empty window quantile %v, want 0", q)
	}
	for i := 1; i <= 10; i++ {
		lw.add(time.Duration(i) * time.Millisecond)
	}
	if q := lw.quantile(0.9); q != 10*time.Millisecond {
		t.Fatalf("p90 of 1..10ms = %v, want 10ms", q)
	}
	if q := lw.quantile(0.5); q != 6*time.Millisecond {
		t.Fatalf("p50 of 1..10ms = %v, want 6ms", q)
	}
	// Overflow the ring: only the last 128 samples count.
	for i := 0; i < 300; i++ {
		lw.add(time.Second)
	}
	if q := lw.quantile(0.5); q != time.Second {
		t.Fatalf("post-overflow p50 %v, want 1s", q)
	}
}
