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
)

// The -json mode: run the counting micro-benchmark suite (the same dense
// workload as BenchmarkCountingDense, and the default synthetic data of
// BenchmarkCountingSyntheticWarm) under testing.Benchmark and write a
// machine-readable BENCH_<tag>.json. Committed baselines (BENCH_PR3.json,
// …) plus the CI artifact of every run give the repo a perf trajectory:
// compare ns/op and allocs/op across PRs without re-running old code.

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

// runBenchJSON measures every counting strategy on the dense workload and
// writes the result file.
func runBenchJSON(path, tag string) error {
	db, tree, err := experiments.DenseWorkload(8000, 64, 2, 16, 3)
	if err != nil {
		return err
	}
	cfgFor := func(strategy core.CountStrategy) core.Config {
		return core.Config{
			Measure:     measure.Kulczynski,
			Gamma:       0.3,
			Epsilon:     0.1,
			MinSupAbs:   []int64{5, 5},
			Pruning:     core.Basic,
			Strategy:    strategy,
			MaxK:        2,
			Materialize: true,
		}
	}
	out := BenchFile{
		Tag:       tag,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Workload:  "dense: 8000 tx × 16 items, 64 cats × 2 leaves (BenchmarkCountingDense); CountingSynthetic: gen defaults, N = 20000 (BenchmarkCountingSyntheticWarm)",
	}
	// record measures one configuration. With eng set it measures the warm
	// steady state — the engine is prewarmed by the instrumented run, so the
	// loop reuses cached level views, indexes and scratch; with eng nil every
	// iteration builds a throwaway engine (the cold, one-shot cost).
	record := func(name string, cfg core.Config, eng *core.Engine) error {
		mine := func() (*core.Result, error) {
			if eng != nil {
				return eng.Mine(cfg)
			}
			return core.Mine(db, tree, cfg)
		}
		// One instrumented run for the engine's own counters (and the warm-up
		// for warm records).
		res, err := mine()
		if err != nil {
			return err
		}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mine(); err != nil {
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
			Counters: map[string]float64{
				"candidates_counted": float64(res.Stats.CandidatesCounted),
				"trie_nodes":         float64(res.Stats.TrieNodes),
				"probes_pruned":      float64(res.Stats.ProbesPruned),
				"bitmap_word_ops":    float64(res.Stats.BitmapWordOps),
				"shards":             float64(res.Stats.Shards),
				"shard_merge_ns":     float64(res.Stats.ShardMergeNs),
				"patterns":           float64(len(res.Patterns)),
			},
		})
		fmt.Fprintf(os.Stderr, "bench %-32s %12.0f ns/op %8d allocs/op\n",
			name, float64(br.T.Nanoseconds())/float64(br.N), br.AllocsPerOp())
		return nil
	}
	for _, s := range []core.CountStrategy{core.CountScan, core.CountBitmap, core.CountAuto} {
		if err := record("CountingDense/"+s.String(), cfgFor(s), nil); err != nil {
			return err
		}
		// The warm counterpart: one persistent engine per strategy, measuring
		// the steady-state cost a resident flipperd pays per job.
		if err := record("CountingDense/"+s.String()+"/warm", cfgFor(s), core.NewEngine(db, tree)); err != nil {
			return err
		}
	}
	// Shard-count scaling of the parallel backends on the same workload —
	// the BENCH_PR5 sharding story next to the per-backend baselines.
	for _, s := range []core.CountStrategy{core.CountScan, core.CountBitmap} {
		for _, shards := range []int{2, 4, 8} {
			cfg := cfgFor(s)
			cfg.Shards = shards
			name := fmt.Sprintf("CountingDense/%s/shards=%d", s.String(), shards)
			if err := record(name, cfg, nil); err != nil {
				return err
			}
		}
		cfg := cfgFor(s)
		cfg.Shards = 4
		name := fmt.Sprintf("CountingDense/%s/shards=%d/warm", s.String(), 4)
		if err := record(name, cfg, core.NewEngine(db, tree)); err != nil {
			return err
		}
	}
	// Anchored top-K on the same workload, cold and warm (a warm engine
	// reuses the cached level bitmaps, which is the steady state a resident
	// flipperd serves /v1/topk in).
	anchoredCfg := cfgFor(core.CountScan)
	anchoredCfg.Anchor = "leaf00.0"
	anchoredCfg.AnchorTopK = 5
	if err := record("AnchoredTopK", anchoredCfg, nil); err != nil {
		return err
	}
	if err := record("AnchoredTopK/warm", anchoredCfg, core.NewEngine(db, tree)); err != nil {
		return err
	}
	// The same data at the topk-large workload's thresholds, anchored at an
	// unplanted root: the warm search counts 63 root pairs on the cached
	// level-1 index and all 1,953 root triples on its conditional index
	// (BenchmarkAnchoredTopKRootTriples runs this configuration).
	rootCfg := core.DefaultConfig(tree.Height())
	rootCfg.Gamma, rootCfg.Epsilon, rootCfg.MinSup = 0.4, 0.12, []float64{0.02, 0.005}
	rootCfg.Anchor, rootCfg.AnchorTopK = "cat30", 5
	if err := record("AnchoredTopK/root-triples/warm", rootCfg, core.NewEngine(db, tree)); err != nil {
		return err
	}
	// A warm default-config scan mine on the paper's default synthetic data:
	// every record above counts pairs on a height-2 taxonomy, while this one
	// counts three levels and a k = 3 cell (h = 2, 6,976 candidates), so the
	// descent runs three deep (BenchmarkCountingSyntheticWarm runs this
	// configuration).
	synDB, synTree, err := experiments.Synthetic(20000, 5, 1)
	if err != nil {
		return err
	}
	if err := record("CountingSynthetic/scan/warm", core.DefaultConfig(synTree.Height()), core.NewEngine(synDB, synTree)); err != nil {
		return err
	}
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
