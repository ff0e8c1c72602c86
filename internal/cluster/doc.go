// Package cluster distributes flipping-correlation mining over multiple
// flipperd processes with a scatter–gather protocol that keeps the output
// byte-identical to a single-process run.
//
// # Why counting, not mining, is distributed
//
// The Flipper search is iterative: each cell Q(h,k) of the table is
// generated from the counted results of its neighbors, so the search
// itself cannot fan out. What dominates cost — and parallelizes exactly —
// is support counting: every transaction lives in exactly one shard, and
// per-shard partial support vectors merge by plain int64 addition
// (commutative and associative), so counting a cell's candidates is
// embarrassingly parallel across shards with a deterministic merged
// result. The coordinator therefore runs the search locally through
// core.MineRemote, which sends each cell's counting pass as one
// core.ShardUnit per shard to the coordinator's ShardCounter, and on to a
// worker (CountRequest → CountResponse). A unit is the dataset's
// fingerprint, the level, k, the shard and the candidates; an answer is
// the candidates' supports, and nothing else. Both bulks travel packed as
// base64 uvarints. The worker counts a unit with core.Engine.CountShard,
// the kernel a local unit runs, in a candidate store from its engine's
// scratch pool, and its supports merge as a local pass's do: results are
// byte-identical to a single process, stats included, since every stat is
// the coordinator's own. Nodes exchange units only when their fingerprints
// match, protocol revision included, so builds that speak different count
// wires never meet.
//
// # Robustness model
//
// Workers push heartbeats; the coordinator's Registry grades each worker
// alive → suspect → dead from heartbeat age and dispatch failures. Each
// shard's dispatch walks the non-dead workers in shard-affinity order with
// full-jitter exponential backoff between attempts; dispatches outstanding
// past a latency-quantile deadline are hedged to a second worker, first
// result wins. Because every unit resolves to exactly one answer before
// the merge, retries and hedges can never double-count. When no worker can
// serve a shard, the coordinator counts it locally and flags the run
// degraded (Stats.Degraded) — partial cluster failure degrades capacity,
// never availability or correctness.
package cluster
