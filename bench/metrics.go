package main

// The benchmark's definitions: its workloads and the metrics it reports.
// BENCHMARK.json at the repository root repeats them for the tools that
// drive the benchmark; TestDefinitionsMatchBenchmarkJSON keeps the two in
// step.

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"cli-cold", "one flipper process per mine over the medline simulator: every op pays parse, load and cold preparation, which a resident server pays once"},
	{"explore-synth", "threshold exploration of the paper's synthetic data through flipperd with the cache off: every request is a warm mine, so counting and search dominate"},
	{"serve-hot", "census and groceries through flipperd with its result cache on: 9 of 10 requests are hits, so HTTP, JSON and the cache dominate and mining nearly vanishes"},
	{"topk-large", "anchored top-K through /v1/topk over 100x the default sketch size in transactions: the only workload where sketches and anchored search run"},
	{"cluster-scatter", "the explore-synth data through a coordinator and two cluster workers: counting crosses the cluster protocol, so dispatch cost shows against explore-synth"},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics an untraced run reports on every workload. Each
// bound is the share of the parent's median by which the metric may worsen
// before a change counts as a regression. The failure rate is not among
// them: it is reported as the result's failed/attempted counts, and any
// increase is a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms.p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"mem_mb", "MB", "lower", 0.2},
}

// perLayer are the metrics a traced run reports on every workload. The op.*,
// core.* counter and runtime.* metrics come from the measured operations;
// the others from probes run after the measured window on the workload's
// own primary dataset. Metrics that exist on one workload only (service.*,
// cluster.*, flipper.exec_ms) are printed in the run's report lines instead.
var perLayer = []metricDef{
	{"op.outside_ms", "ms", "lower", 0},
	{"core.mine_ms", "ms", "lower", 0},
	{"op.response_bytes", "bytes", "lower", 0},
	{"core.candidates_counted", "count", "lower", 0},
	{"core.frequent_ratio", "ratio", "higher", 0},
	{"core.subset_pruned", "count", "higher", 0},
	{"core.db_scans", "count", "lower", 0},
	{"core.bitmap_word_ops", "count", "lower", 0},
	{"core.trie_nodes", "count", "lower", 0},
	{"core.probes_pruned", "count", "higher", 0},
	{"runtime.alloc_bytes_per_op", "bytes", "lower", 0},
	{"runtime.gc_per_op", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"taxonomy.parse_ms", "ms", "lower", 0},
	{"txdb.load_ms", "ms", "lower", 0},
	{"txdb.materialize_ms", "ms", "lower", 0},
	{"bitmap.build_ms", "ms", "lower", 0},
	{"bitmap.pair_ns", "ns", "lower", 0},
	{"bitmap.bytes_per_query", "bytes", "lower", 0},
	{"candtrie.count_ns_per_tx", "ns", "lower", 0},
	{"core.prepare_ms", "ms", "lower", 0},
	{"core.search_ms", "ms", "lower", 0},
	{"core.encode_ms", "ms", "lower", 0},
	{"core.encode_bytes", "bytes", "lower", 0},
	{"sketch.build_ms", "ms", "lower", 0},
	{"sketch.probes", "count", "lower", 0},
	{"sketch.pruned", "count", "higher", 0},
	{"sketch.skip_ratio", "ratio", "higher", 0},
	{"sketch.exact_fallbacks", "count", "lower", 0},
	{"core.anchored_ms", "ms", "lower", 0},
	{"core.anchored_over_full", "ratio", "lower", 0},
}

func metricByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
