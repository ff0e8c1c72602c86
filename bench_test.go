// Benchmarks regenerating every table and figure of the paper's evaluation
// at bench scale. Each sub-benchmark is one cell (or series point) of the
// corresponding artifact; `go run ./cmd/flipbench -exp all` produces the
// full tables, and EXPERIMENTS.md records paper-vs-measured shapes.
//
// Workloads are deliberately small (a few thousand transactions) so the
// whole suite finishes in minutes even though the BASIC baseline is orders
// of magnitude slower than Flipper in the low-support regime — reproducing
// that gap is the point of Figures 8 and 9.
package flipper_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	flipper "github.com/flipper-mining/flipper"
	"github.com/flipper-mining/flipper/internal/cluster"
	"github.com/flipper-mining/flipper/internal/experiments"
	"github.com/flipper-mining/flipper/internal/gen"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
	"github.com/flipper-mining/flipper/simdata"
)

const benchN = 4000 // synthetic transactions per bench workload

// benchVariants are the four curves of Figure 8.
var benchVariants = []struct {
	name    string
	pruning flipper.PruningLevel
}{
	{"basic", flipper.Basic},
	{"flipping", flipper.Flipping},
	{"flipping_tpg", flipper.FlippingTPG},
	{"full", flipper.Full},
}

// benchSynthetic builds the paper's default synthetic workload (H=4,
// 10 categories, fanout 5, |I|≈1000) once per (n, width).
func benchSynthetic(b *testing.B, n int, width float64) (*txdb.DB, *taxonomy.Tree) {
	b.Helper()
	tree, err := gen.BuildTaxonomy(gen.DefaultTaxonomyParams())
	if err != nil {
		b.Fatal(err)
	}
	p := gen.DefaultParams()
	p.N = n
	p.AvgWidth = width
	db, err := gen.Generate(tree, p)
	if err != nil {
		b.Fatal(err)
	}
	return db, tree
}

func benchConfig(pruning flipper.PruningLevel, minsup []float64, gamma, epsilon float64) flipper.Config {
	return flipper.Config{
		Measure:  flipper.Kulczynski,
		Gamma:    gamma,
		Epsilon:  epsilon,
		MinSup:   minsup,
		Pruning:  pruning,
		Strategy: flipper.CountScan,
	}
}

var benchDefaultMinsup = []float64{0.01, 0.001, 0.0005, 0.0001}

func mineOnce(b *testing.B, db txdb.Source, tree *taxonomy.Tree, cfg flipper.Config) {
	b.Helper()
	b.ReportAllocs()
	var patterns int
	for i := 0; i < b.N; i++ {
		res, err := flipper.Mine(db, tree, cfg)
		if err != nil {
			b.Fatal(err)
		}
		patterns = len(res.Patterns)
	}
	b.ReportMetric(float64(patterns), "patterns")
}

// warmEngine returns an engine over src that has mined cfg twice: the first
// mine builds the levels, indexes and scratch, and the second the subset
// tables, which an engine builds on the second reach of each (level, shard,
// k). Every timed mine after it is the steady state, also at
// -benchtime=1x, as CI's alloc guard runs it.
func warmEngine(b *testing.B, src txdb.Source, tree *taxonomy.Tree, cfg flipper.Config) *flipper.Engine {
	b.Helper()
	eng := flipper.NewEngine(src, tree)
	for i := 0; i < 2; i++ {
		if _, err := eng.Mine(cfg); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// BenchmarkFig8aMinsupProfiles regenerates Figure 8(a): runtime per minimum
// support profile (Table 3) per pruning variant. The bench keeps three
// representative profiles; flipbench runs all ten.
func BenchmarkFig8aMinsupProfiles(b *testing.B) {
	db, tree := benchSynthetic(b, benchN, 5)
	profiles := []struct {
		name   string
		minsup []float64
	}{
		{"thr1_high", []float64{0.05, 0.05, 0.05, 0.05}},
		{"thr5_mid", []float64{0.01, 0.0005, 0.0001, 0.0001}},
		{"thr10_low", []float64{0.001, 0.0001, 0.00006, 0.00003}},
	}
	for _, p := range profiles {
		for _, v := range benchVariants {
			b.Run(fmt.Sprintf("%s/%s", p.name, v.name), func(b *testing.B) {
				mineOnce(b, db, tree, benchConfig(v.pruning, p.minsup, 0.3, 0.1))
			})
		}
	}
}

// BenchmarkFig8bTransactions regenerates Figure 8(b): runtime vs N; the
// paper reports linear growth for every variant.
func BenchmarkFig8bTransactions(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		db, tree := benchSynthetic(b, n, 5)
		for _, v := range benchVariants {
			b.Run(fmt.Sprintf("n%d/%s", n, v.name), func(b *testing.B) {
				mineOnce(b, db, tree, benchConfig(v.pruning, benchDefaultMinsup, 0.3, 0.1))
			})
		}
	}
}

// BenchmarkFig8cWidth regenerates Figure 8(c): runtime vs average
// transaction width; the baseline deteriorates dramatically with density
// while the full Flipper degrades gracefully.
func BenchmarkFig8cWidth(b *testing.B) {
	for _, w := range []int{5, 7} {
		db, tree := benchSynthetic(b, benchN, float64(w))
		for _, v := range benchVariants {
			b.Run(fmt.Sprintf("w%d/%s", w, v.name), func(b *testing.B) {
				mineOnce(b, db, tree, benchConfig(v.pruning, benchDefaultMinsup, 0.3, 0.1))
			})
		}
	}
}

// BenchmarkFig8dCorrelationThresholds regenerates Figure 8(d): runtime vs
// the (γ, ε) profiles. Correlation pruning strengthens with γ; the BASIC
// baseline ignores the thresholds entirely (flat row).
func BenchmarkFig8dCorrelationThresholds(b *testing.B) {
	db, tree := benchSynthetic(b, benchN, 5)
	profiles := [][2]float64{{0.2, 0.1}, {0.4, 0.1}, {0.6, 0.1}, {0.6, 0.5}}
	for _, p := range profiles {
		for _, v := range benchVariants {
			if v.pruning == flipper.Basic && p != profiles[0] {
				continue // BASIC does not depend on (γ, ε); bench it once
			}
			b.Run(fmt.Sprintf("g%.1f_e%.1f/%s", p[0], p[1], v.name), func(b *testing.B) {
				mineOnce(b, db, tree, benchConfig(v.pruning, benchDefaultMinsup, p[0], p[1]))
			})
		}
	}
}

// benchDatasets builds the three reality-check simulators at bench scale.
func benchDatasets(b *testing.B) []*struct {
	name string
	ds   benchDS
} {
	b.Helper()
	g, err := flipperSim("groceries", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	c, err := flipperSim("census", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	m, err := flipperSim("medline", 0.02)
	if err != nil {
		b.Fatal(err)
	}
	return []*struct {
		name string
		ds   benchDS
	}{
		{"groceries", g}, {"census", c}, {"medline", m},
	}
}

// benchDS is the minimal dataset view the benches need (avoids importing
// the simdata facade into the bench file twice).
type benchDS struct {
	db   *txdb.DB
	tree *taxonomy.Tree
	cfg  flipper.Config
}

func flipperSim(name string, scale float64) (benchDS, error) {
	ds, err := simdata.ByName(name, scale, 1)
	if err != nil {
		return benchDS{}, err
	}
	return benchDS{db: ds.DB, tree: ds.Tree, cfg: ds.Config()}, nil
}

// BenchmarkFig9aRealRuntime regenerates Figure 9(a): naive flipping-based
// pruning vs the full Flipper on the three dataset simulators. (The paper
// excludes BASIC here: it exceeded 10 hours on the smallest dataset.)
func BenchmarkFig9aRealRuntime(b *testing.B) {
	for _, e := range benchDatasets(b) {
		for _, v := range []struct {
			name    string
			pruning flipper.PruningLevel
		}{{"naive", flipper.Flipping}, {"full", flipper.Full}} {
			b.Run(fmt.Sprintf("%s/%s", e.name, v.name), func(b *testing.B) {
				cfg := e.ds.cfg
				cfg.Pruning = v.pruning
				mineOnce(b, e.ds.db, e.ds.tree, cfg)
			})
		}
	}
}

// BenchmarkFig9bRealMemory regenerates Figure 9(b): peak resident candidate
// itemsets (and estimated bytes) as custom metrics, naive vs full.
func BenchmarkFig9bRealMemory(b *testing.B) {
	for _, e := range benchDatasets(b) {
		for _, v := range []struct {
			name    string
			pruning flipper.PruningLevel
		}{{"naive", flipper.Flipping}, {"full", flipper.Full}} {
			b.Run(fmt.Sprintf("%s/%s", e.name, v.name), func(b *testing.B) {
				b.ReportAllocs()
				cfg := e.ds.cfg
				cfg.Pruning = v.pruning
				var peak, bytes int64
				for i := 0; i < b.N; i++ {
					res, err := flipper.Mine(e.ds.db, e.ds.tree, cfg)
					if err != nil {
						b.Fatal(err)
					}
					peak = res.Stats.PeakCandidates
					bytes = res.Stats.PeakBytes
				}
				b.ReportMetric(float64(peak), "peak-itemsets")
				b.ReportMetric(float64(bytes)/(1<<20), "peak-MB")
			})
		}
	}
}

// BenchmarkTable4PatternCounts regenerates Table 4: the complete positive /
// negative / flipping counts per dataset (BASIC enumeration), reported as
// custom metrics.
func BenchmarkTable4PatternCounts(b *testing.B) {
	for _, e := range benchDatasets(b) {
		b.Run(e.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := e.ds.cfg
			cfg.Pruning = flipper.Basic
			var pos, neg, flips int64
			for i := 0; i < b.N; i++ {
				res, err := flipper.Mine(e.ds.db, e.ds.tree, cfg)
				if err != nil {
					b.Fatal(err)
				}
				pos = res.Stats.PositiveItemsets
				neg = res.Stats.NegativeItemsets
				flips = int64(len(res.Patterns))
			}
			b.ReportMetric(float64(pos), "pos")
			b.ReportMetric(float64(neg), "neg")
			b.ReportMetric(float64(flips), "flips")
		})
	}
}

// denseWorkload builds the counting stress case: a flat, wide taxonomy (64
// categories × 2 leaves, height 2) and wide (16-item) transactions, so
// permissive thresholds put every one of the C(128,2) + C(64,2) ≈ 10K pair
// candidates against a dense level view that barely dedups. Cold, the scan
// counter walks each of the 8000 transactions down the candidate trie
// (every pair exists here, so nothing prunes — the store's worst case);
// warm, the level's pair tables answer. The workload is shared with the
// flipbench -json micro suite (experiments.DenseWorkload) so committed
// BENCH_*.json baselines track this exact benchmark.
func denseWorkload(b *testing.B) (*txdb.DB, *taxonomy.Tree) {
	b.Helper()
	db, tree, err := experiments.DenseWorkload(8000, 64, 2, 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	return db, tree
}

// BenchmarkCountingDense is a cold scan mine of the dense workload: one
// throwaway engine per iteration, so every level build and trie pass is
// paid (see docs/ARCHITECTURE.md for recorded numbers).
func BenchmarkCountingDense(b *testing.B) {
	db, tree := denseWorkload(b)
	b.Run("scan", func(b *testing.B) {
		mineOnce(b, db, tree, denseConfig)
	})
}

// denseConfig is the BenchmarkCountingDense configuration.
var denseConfig = flipper.Config{
	Measure:   flipper.Kulczynski,
	Gamma:     0.3,
	Epsilon:   0.1,
	MinSupAbs: []int64{5, 5},
	Pruning:   flipper.Basic,
	MaxK:      2,
}

// BenchmarkCountingDenseWarm is the steady-state counterpart of
// BenchmarkCountingDense: one engine, prewarmed by warmEngine, so the loop
// measures what a resident flipperd pays per job — level views, subset
// tables, candidate tries and scratch arenas all come from the engine's
// caches. The gap to the cold benchmark is the price of data preparation;
// the committed BENCH_*.json baselines track both.
func BenchmarkCountingDenseWarm(b *testing.B) {
	db, tree := denseWorkload(b)
	b.Run("scan", func(b *testing.B) {
		eng := warmEngine(b, db, tree, denseConfig)
		b.ReportAllocs()
		b.ResetTimer()
		var patterns int
		for i := 0; i < b.N; i++ {
			res, err := eng.Mine(denseConfig)
			if err != nil {
				b.Fatal(err)
			}
			patterns = len(res.Patterns)
		}
		b.ReportMetric(float64(patterns), "patterns")
	})
}

// BenchmarkCountingDenseSharded covers shard-parallel counting on the dense
// workload partitioned into 4 shards, cold and warm — the variants the CI
// alloc budgets pin alongside the unsharded ones.
func BenchmarkCountingDenseSharded(b *testing.B) {
	db, tree := denseWorkload(b)
	src := flipper.PartitionDB(db, 4)
	b.Run("scan", func(b *testing.B) {
		mineOnce(b, src, tree, denseConfig)
	})
	b.Run("scan_warm", func(b *testing.B) {
		eng := warmEngine(b, src, tree, denseConfig)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Mine(denseConfig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnchoredTopKRootTriples is a warm anchored top-K query on the
// dense workload at the topk-large workload's thresholds, anchored at the
// unplanted root cat30: the search counts 63 root pairs on the cached
// level-1 bitmap index and all 1,953 root triples on the query's
// conditional index. flipbench -json records the same configuration as
// AnchoredTopK/root-triples/warm, and the CI alloc budgets pin it.
func BenchmarkAnchoredTopKRootTriples(b *testing.B) {
	db, tree := denseWorkload(b)
	cfg := flipper.DefaultConfig(tree.Height())
	cfg.Gamma, cfg.Epsilon, cfg.MinSup = 0.4, 0.12, []float64{0.02, 0.005}
	cfg.Anchor, cfg.AnchorTopK = "cat30", 5
	eng := flipper.NewEngine(db, tree)
	if _, err := eng.Mine(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Mine(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountingSyntheticWarm is a warm default-config scan mine on the
// paper's default synthetic data at N = 20,000. Unlike the dense workload's
// pair cells, it counts three levels and two k = 3 cells (h = 1 and h = 2,
// 120 and 6,976 candidates), which a warm engine reads from triple tables,
// so no steady-state benchmark runs the three-deep trie descent; flipbench
// -json's cold CountingSynthetic/scan record keeps it measured. flipbench
// -json records this configuration as CountingSynthetic/scan/warm, and the
// CI alloc budgets pin it.
func BenchmarkCountingSyntheticWarm(b *testing.B) {
	db, tree, err := experiments.Synthetic(20000, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := flipper.DefaultConfig(tree.Height())
	eng := warmEngine(b, db, tree, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Mine(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterMine is the default-config mine of
// BenchmarkCountingSyntheticWarm's data, partitioned into 2 shards, through
// an in-process coordinator and two httptest workers that joined it by
// heartbeat: the search runs in the coordinator and every counting pass
// crosses the count wire as one unit per shard, so each op pays the
// request and answer encoding, the HTTP round trips and the workers'
// counting. Two prewarming mines leave every engine steady, the workers'
// subset tables built. The CI alloc budgets pin it.
func BenchmarkClusterMine(b *testing.B) {
	db, tree, err := experiments.Synthetic(20000, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	src := txdb.PartitionSource(db, 2)
	fp := cluster.NewFingerprint("synth", src, tree)
	cat := cluster.NewCatalog()
	cat.Add("synth", flipper.NewEngine(src, tree), tree, fp)
	// Heartbeats are sent once, so no worker may age out during the run.
	co := cluster.New(cat, cluster.Options{SuspectAfter: time.Hour})
	coord := httptest.NewServer(co.Handler())
	defer coord.Close()
	for i := 0; i < 2; i++ {
		wcat := cluster.NewCatalog()
		wcat.Add("synth", flipper.NewEngine(src, tree), tree, fp)
		w := cluster.NewWorker(fmt.Sprintf("w%d", i), wcat)
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		if err := w.SendHeartbeat(context.Background(), coord.URL, srv.URL, nil); err != nil {
			b.Fatal(err)
		}
	}
	cfg := flipper.DefaultConfig(tree.Height())
	mine := func() {
		res, err := co.Mine(context.Background(), "synth", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Degraded {
			b.Fatal("a unit was counted by the coordinator, not a worker")
		}
	}
	mine()
	mine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mine()
	}
}

// BenchmarkColdPrepare is the preparation a one-shot flipper run pays on
// the end-to-end benchmark's cli-cold input (medline at scale 0.1, written
// once to a temporary directory): each op loads the baskets with
// OpenBasketSource against the parsed taxonomy and builds every level as
// the engine does at its default parallelism. flipbench -json records the
// same work as ColdPrepare/medline, and the CI alloc budgets pin it.
func BenchmarkColdPrepare(b *testing.B) {
	tree, path, err := experiments.ColdInput(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.ColdPrepare(tree, path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCacheHit is one cache hit through flipperd's handler: a
// POST /v1/jobs of the census simulator's Table-4 configuration, mined
// once before the timer starts, answered 200 from the result cache. No
// mine runs inside the loop, so it measures what serve-hot's hits pay in
// process: request decoding, the cache lookup and the job envelope.
// flipbench -json records the same request as ServeCacheHit/census.
func BenchmarkServeCacheHit(b *testing.B) {
	hit, stop, err := experiments.ServeCacheHit()
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := hit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationParallelism measures counting-worker scaling.
func BenchmarkAblationParallelism(b *testing.B) {
	db, tree := benchSynthetic(b, benchN, 5)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			cfg := benchConfig(flipper.Full, benchDefaultMinsup, 0.3, 0.1)
			cfg.Parallelism = workers
			mineOnce(b, db, tree, cfg)
		})
	}
}

// BenchmarkAblationMaterialize compares materialized level views of an
// in-memory database against the disk-resident streaming mode (the paper's
// sequential-scan setting) over the same baskets in a file.
func BenchmarkAblationMaterialize(b *testing.B) {
	db, tree := benchSynthetic(b, benchN, 5)
	path := filepath.Join(b.TempDir(), "baskets.txt")
	if err := db.WriteBasketFile(path); err != nil {
		b.Fatal(err)
	}
	file, err := flipper.OpenBasketFile(path, tree.Dict())
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		src  txdb.Source
	}{{"materialized", db}, {"streaming", file}} {
		b.Run(m.name, func(b *testing.B) {
			mineOnce(b, m.src, tree, benchConfig(flipper.Full, benchDefaultMinsup, 0.3, 0.1))
		})
	}
}

// BenchmarkMeasures compares the five null-invariant measures end to end;
// the engine's pruning is measure-agnostic (Theorems 1–2 hold for all).
func BenchmarkMeasures(b *testing.B) {
	db, tree := benchSynthetic(b, benchN, 5)
	for _, m := range []flipper.Measure{
		flipper.AllConfidence, flipper.Coherence, flipper.Cosine,
		flipper.Kulczynski, flipper.MaxConfidence,
	} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := benchConfig(flipper.Full, benchDefaultMinsup, 0.3, 0.1)
			cfg.Measure = m
			mineOnce(b, db, tree, cfg)
		})
	}
}
