package main

import (
	"sort"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
)

// opMetrics derives the per-layer metrics of the measured operations of a
// traced run. layer holds the metrics every workload reports; extras those
// of the layers only some workloads reach (the service, the cluster, the
// CLI process), which go into the run's report lines.
func opMetrics(ops []op, tr *tracer, child bool) (layer, extras map[string]float64) {
	layer, extras = map[string]float64{}, map[string]float64{}
	var rec, unrec []op
	for _, o := range ops {
		switch {
		case o.failed:
		case o.traced:
			rec = append(rec, o)
		default:
			unrec = append(unrec, o)
		}
	}
	each := func(in []op, keep func(o op) (float64, bool)) []float64 {
		var out []float64
		for _, o := range in {
			if v, ok := keep(o); ok {
				out = append(out, v)
			}
		}
		return out
	}
	put := func(m map[string]float64, name string, xs []float64) {
		if len(xs) > 0 {
			m[name] = median(xs)
		}
	}
	put(layer, "op.outside_ms", each(rec, func(o op) (float64, bool) { return ms(o.dur - o.inner), true }))
	put(layer, "core.mine_ms", each(rec, func(o op) (float64, bool) { return ms(o.mine), o.mined }))
	put(layer, "op.response_bytes", each(rec, func(o op) (float64, bool) { return float64(o.bytes), true }))
	if len(rec) > 0 && len(unrec) > 0 {
		layer["trace.overhead_pct"] = (typedMedian(byType(rec))/typedMedian(byType(unrec)) - 1) * 100
	}
	for name, field := range statFields {
		put(layer, name, each(rec, func(o op) (float64, bool) {
			if o.stats == nil {
				return 0, false
			}
			return field(o.stats)
		}))
	}

	spans := tr.snapshot()
	var handlers []float64
	for _, s := range spans {
		if s.Name == "service.handler" {
			handlers = append(handlers, ms(s.dur()))
		}
	}
	if child {
		// The CLI: the child's own time beyond the layers its replay timed.
		put(extras, "flipper.exec_ms", each(rec, func(o op) (float64, bool) { return ms(o.dur - o.inner), true }))
	} else {
		put(extras, "service.submit_ms", each(rec, func(o op) (float64, bool) { return ms(o.submit), true }))
		put(extras, "service.polls_per_op", each(rec, func(o op) (float64, bool) { return float64(o.polls), true }))
		put(extras, "service.queue_wait_ms", each(rec, func(o op) (float64, bool) { return ms(o.queue), o.mined }))
		put(extras, "service.http_ms", each(rec, func(o op) (float64, bool) { return ms(o.dur - o.inner), true }))
		put(extras, "service.hit_ms", each(rec, func(o op) (float64, bool) { return ms(o.dur), o.hit }))
		put(extras, "service.miss_ms", each(rec, func(o op) (float64, bool) { return ms(o.dur), !o.hit }))
		put(extras, "service.handler_ms", handlers)
		if len(rec) > 0 {
			hits := each(rec, func(o op) (float64, bool) { return 1, o.hit })
			extras["service.hit_ratio"] = float64(len(hits)) / float64(len(rec))
		}
	}
	clusterMetrics(spans, tr, extras)
	return layer, extras
}

// byType groups the operations' latencies in ms by request type.
func byType(ops []op) map[string][]float64 {
	m := map[string][]float64{}
	for _, o := range ops {
		m[o.typ] = append(m[o.typ], ms(o.dur))
	}
	return m
}

// statFields reads the engine's own counters from a result's stats.
var statFields = map[string]func(*core.StatsJSON) (float64, bool){
	"core.candidates_counted": func(s *core.StatsJSON) (float64, bool) { return float64(s.CandidatesCounted), true },
	"core.subset_pruned":      func(s *core.StatsJSON) (float64, bool) { return float64(s.SubsetPruned), true },
	"core.db_scans":           func(s *core.StatsJSON) (float64, bool) { return float64(s.DBScans), true },
	"core.bitmap_word_ops":    func(s *core.StatsJSON) (float64, bool) { return float64(s.BitmapWordOps), true },
	"core.trie_nodes":         func(s *core.StatsJSON) (float64, bool) { return float64(s.TrieNodes), true },
	"core.probes_pruned":      func(s *core.StatsJSON) (float64, bool) { return float64(s.ProbesPruned), true },
	"core.frequent_ratio": func(s *core.StatsJSON) (float64, bool) {
		if s.CandidatesCounted == 0 {
			return 0, false
		}
		return float64(s.FrequentItemsets) / float64(s.CandidatesCounted), true
	},
}

// clusterMetrics splits each distributed mine into the coordinator's own
// search time and its dispatches, and each dispatch into the worker's time
// and the wire's.
func clusterMetrics(spans []span, tr *tracer, extras map[string]float64) {
	children := map[int64][]span{}
	var mines, dispatches []span
	for _, s := range spans {
		children[s.ParentID] = append(children[s.ParentID], s)
		switch s.Name {
		case "cluster.mine":
			mines = append(mines, s)
		case "cluster.dispatch":
			dispatches = append(dispatches, s)
		}
	}
	if len(mines) == 0 {
		return
	}
	var mine, self, disp, worker, wire []float64
	ops := map[int64]bool{}
	for _, m := range mines {
		ops[m.OpID] = true
		mine = append(mine, ms(m.dur()))
		self = append(self, ms(selfTime(m, children[m.SpanID])))
	}
	for _, d := range dispatches {
		disp = append(disp, ms(d.dur()))
		var w time.Duration
		for _, c := range children[d.SpanID] {
			w += c.dur()
			worker = append(worker, ms(c.dur()))
		}
		wire = append(wire, ms(d.dur()-w))
	}
	extras["cluster.mine_ms"] = median(mine)
	extras["cluster.search_self_ms"] = median(self)
	extras["cluster.dispatch_ms"] = median(disp)
	extras["cluster.worker_ms"] = median(worker)
	extras["cluster.wire_ms"] = median(wire)
	total := func(name string) (sum float64) {
		for op := range ops {
			sum += tr.count(op, name)
		}
		return sum
	}
	n := float64(len(ops))
	extras["cluster.dispatches_per_op"] = total("cluster.dispatches") / n
	extras["cluster.req_bytes_per_op"] = total("cluster.req_bytes") / n
	extras["cluster.resp_bytes_per_op"] = total("cluster.resp_bytes") / n
	extras["cluster.retries"] = total("cluster.retries")
	extras["cluster.hedges"] = total("cluster.hedges")
	extras["cluster.degraded"] = total("cluster.degraded")
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
