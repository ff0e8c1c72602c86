package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/experiments"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// The -json mode: run the counting micro-benchmark suite (the same dense
// workload as BenchmarkCountingDense, and the default synthetic data of
// BenchmarkCountingSyntheticWarm), the cold preparation of
// BenchmarkColdPrepare and the service cache hit of BenchmarkServeCacheHit
// under testing.Benchmark and write a machine-readable BENCH_<tag>.json.
// Committed baselines (BENCH_PR3.json, …) plus the CI artifact of every run
// give the repo a perf trajectory: compare ns/op and allocs/op across PRs
// without re-running old code.

// BenchRecord is one benchmark's measurements.
type BenchRecord struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Counters    map[string]float64 `json:"counters,omitempty"`
}

// BenchFile is the envelope written to BENCH_<tag>.json. MaxProcs records
// the core budget of the measuring machine: the sharded records scale with
// it, so a 1-core run legitimately shows flat ns/op across shard counts
// (the record then pins sharding overhead, not speedup).
type BenchFile struct {
	Tag        string        `json:"tag"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	MaxProcs   int           `json:"maxprocs"`
	Workload   string        `json:"workload"`
	Benchmarks []BenchRecord `json:"benchmarks"`
}

// runBenchJSON measures scan counting and anchored search on the dense
// workload, plus the synthetic, cold-preparation and cache-hit records, and
// writes the result file.
func runBenchJSON(path, tag string) error {
	db, tree, err := experiments.DenseWorkload(8000, 64, 2, 16, 3)
	if err != nil {
		return err
	}
	dense := core.Config{
		Measure:   measure.Kulczynski,
		Gamma:     0.3,
		Epsilon:   0.1,
		MinSupAbs: []int64{5, 5},
		Pruning:   core.Basic,
		MaxK:      2,
	}
	out := BenchFile{
		Tag:       tag,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Workload:  "dense: 8000 tx × 16 items, 64 cats × 2 leaves (BenchmarkCountingDense); CountingSynthetic: gen defaults, N = 20000 (BenchmarkCountingSyntheticWarm); ColdPrepare: medline, scale 0.1, seed 1 (BenchmarkColdPrepare); ServeCacheHit: census, scale 1, seed 1 (BenchmarkServeCacheHit)",
	}
	// add measures op under testing.Benchmark and appends its record.
	add := func(name string, op func() error, counters map[string]float64) {
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
		out.Benchmarks = append(out.Benchmarks, BenchRecord{
			Name:        name,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			Counters:    counters,
		})
		fmt.Fprintf(os.Stderr, "bench %-32s %12.0f ns/op %8d allocs/op\n",
			name, float64(br.T.Nanoseconds())/float64(br.N), br.AllocsPerOp())
	}
	// record measures one configuration over src. Warm, it measures the
	// steady state of one engine — prewarmed by the instrumented run, so the
	// loop reuses cached level views, indexes and scratch; cold, every
	// iteration builds a throwaway engine (the cold, one-shot cost).
	record := func(name string, cfg core.Config, src txdb.Source, tree *taxonomy.Tree, warm bool) error {
		mine := func() (*core.Result, error) { return core.Mine(src, tree, cfg) }
		if warm {
			eng := core.NewEngine(src, tree)
			mine = func() (*core.Result, error) { return eng.Mine(cfg) }
		}
		// One instrumented run for the engine's own counters (and the warm-up
		// for warm records).
		res, err := mine()
		if err != nil {
			return err
		}
		add(name, func() error { _, err := mine(); return err }, map[string]float64{
			"candidates_counted": float64(res.Stats.CandidatesCounted),
			"trie_nodes":         float64(res.Stats.TrieNodes),
			"bitmap_word_ops":    float64(res.Stats.BitmapWordOps),
			"shards":             float64(res.Stats.Shards),
			"shard_merge_ns":     float64(res.Stats.ShardMergeNs),
			"patterns":           float64(len(res.Patterns)),
		})
		return nil
	}
	if err := record("CountingDense/scan", dense, db, tree, false); err != nil {
		return err
	}
	// The warm counterpart: one persistent engine, measuring the
	// steady-state cost a resident flipperd pays per job.
	if err := record("CountingDense/scan/warm", dense, db, tree, true); err != nil {
		return err
	}
	// Shard-count scaling on the same workload.
	for _, shards := range []int{2, 4, 8} {
		name := fmt.Sprintf("CountingDense/scan/shards=%d", shards)
		if err := record(name, dense, txdb.PartitionSource(db, shards), tree, false); err != nil {
			return err
		}
	}
	if err := record("CountingDense/scan/shards=4/warm", dense, txdb.PartitionSource(db, 4), tree, true); err != nil {
		return err
	}
	// Anchored top-K on the same workload, cold and warm (a warm engine
	// reuses the cached level bitmaps, which is the steady state a resident
	// flipperd serves /v1/topk in).
	anchoredCfg := dense
	anchoredCfg.Anchor = "leaf00.0"
	anchoredCfg.AnchorTopK = 5
	if err := record("AnchoredTopK", anchoredCfg, db, tree, false); err != nil {
		return err
	}
	if err := record("AnchoredTopK/warm", anchoredCfg, db, tree, true); err != nil {
		return err
	}
	// The same data at the topk-large workload's thresholds, anchored at an
	// unplanted root: the warm search counts 63 root pairs on the cached
	// level-1 index and all 1,953 root triples on its conditional index
	// (BenchmarkAnchoredTopKRootTriples runs this configuration).
	rootCfg := core.DefaultConfig(tree.Height())
	rootCfg.Gamma, rootCfg.Epsilon, rootCfg.MinSup = 0.4, 0.12, []float64{0.02, 0.005}
	rootCfg.Anchor, rootCfg.AnchorTopK = "cat30", 5
	if err := record("AnchoredTopK/root-triples/warm", rootCfg, db, tree, true); err != nil {
		return err
	}
	// A default-config scan mine on the paper's default synthetic data, cold
	// and warm: every record above counts pairs on a height-2 taxonomy, while
	// this one counts three levels and two k = 3 cells (h = 1 and h = 2, 120
	// and 6,976 candidates). Cold, a one-shot mine builds no subset table, so
	// the trie descent runs three deep; warm, the engine reads both k = 3
	// cells from triple tables (BenchmarkCountingSyntheticWarm runs the warm
	// configuration).
	synDB, synTree, err := experiments.Synthetic(20000, 5, 1)
	if err != nil {
		return err
	}
	for _, warm := range []bool{false, true} {
		name := "CountingSynthetic/scan"
		if warm {
			name += "/warm"
		}
		if err := record(name, core.DefaultConfig(synTree.Height()), synDB, synTree, warm); err != nil {
			return err
		}
	}
	// The preparation of a one-shot flipper run on the end-to-end
	// benchmark's cli-cold input: basket load plus level build
	// (BenchmarkColdPrepare runs the same work).
	dir, err := os.MkdirTemp("", "flipbench-cold-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	coldTree, coldPath, err := experiments.ColdInput(dir)
	if err != nil {
		return err
	}
	add("ColdPrepare/medline", func() error { return experiments.ColdPrepare(coldTree, coldPath) }, nil)
	// One cache hit through flipperd's handler over the census simulator
	// (BenchmarkServeCacheHit runs the same request).
	hit, stop, err := experiments.ServeCacheHit()
	if err != nil {
		return err
	}
	add("ServeCacheHit/census", hit, nil)
	stop()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
