package core

import (
	"time"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Shard-parallel counting: every backend gets a variant where workers own
// transaction shards instead of candidate or transaction ranges of the
// whole database. The fan-out is a bounded pool of cfg.workers()
// goroutines (txdb.ForEachShard) — worker w handles shards w, w+W, w+2W,
// … — so shard count scales independently of core count: a 256-shard
// out-of-core dataset on 4 cores runs 4 workers with 4 partial vectors,
// not 256 of each. Each worker counts its shards into one private partial
// support vector; the partials are then summed into the cell's candtrie
// slab (mergePartials). Because a transaction lives in exactly one shard
// and the merge is plain int64 addition — commutative and associative, so
// worker assignment cannot change the totals — the merged supports, and
// everything derived from them, are identical to the unsharded run, which
// TestShardedMiningEquivalence pins across strategies, pruning levels and
// shard counts.
//
// The payoffs over range fan-out: per-shard levels are built concurrently
// at init; each worker's working set is its shards' row arenas and indexes
// rather than the whole level (cache residency);
// and with a txdb.ShardedSource over per-shard basket files, streaming
// counting scans the files in parallel — out-of-core mining of databases
// larger than RAM.

// resolveShardSources decides a run's shard layout. A ShardedSource brings
// its own shards (its on-disk partitioning is authoritative); otherwise
// cfgShards > 1 partitions an in-memory database in place. Any other
// source — e.g. a single FileSource, which cannot be split without
// rewriting the file — runs unsharded regardless of Config.Shards.
func resolveShardSources(src txdb.Source, cfgShards int) []txdb.Source {
	if ss, ok := src.(*txdb.ShardedSource); ok {
		if ss.NumShards() > 1 {
			return ss.Shards()
		}
		return nil
	}
	if cfgShards <= 1 {
		return nil
	}
	if db, ok := src.(*txdb.DB); ok {
		parts := txdb.Partition(db, cfgShards)
		if len(parts) <= 1 {
			return nil
		}
		shards := make([]txdb.Source, len(parts))
		for i, p := range parts {
			shards[i] = p
		}
		return shards
	}
	return nil
}

// boundWorkers bounds shard fan-out at the configured parallelism: at most
// cfg.workers() goroutines run however many shards there are.
func boundWorkers(cfg *Config, n int) int {
	w := cfg.workers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (m *miner) shardWorkers(n int) int { return boundWorkers(&m.cfg, n) }

// distinctCount returns how many deduplicated weighted transactions back
// the level — the database-size input of the CountAuto cost model. Sharded
// runs dedup per shard, so the count is the sum over shards (slightly above
// the global dedup when identical transactions straddle a shard boundary).
func (m *miner) distinctCount(h int) int {
	n := 0
	for _, levels := range m.ds.levels {
		n += levels[h].Rows()
	}
	return n
}

// streamSingleSupports is the streaming init: one single-item pass over the
// shard sources, a bounded worker pool scanning them concurrently, each
// worker aggregating per-level single supports and widths across its shards
// locally; the locals then merge. Integer sums and maxima make the merged
// aggregates independent of worker assignment and equal to the single-pass
// values.
func (ds *dataState) streamSingleSupports(srcs []txdb.Source, tax *taxonomy.Tree, H, workers int) error {
	type agg struct {
		sup    []map[itemset.ID]int64
		widths []int
		err    error
	}
	aggs := make([]agg, workers)
	for w := range aggs {
		aggs[w].sup = make([]map[itemset.ID]int64, H+1)
		aggs[w].widths = make([]int, H+1)
		for h := 1; h <= H; h++ {
			aggs[w].sup[h] = make(map[itemset.ID]int64)
		}
	}
	txdb.ForEachShard(workers, len(srcs), func(w, s int) {
		a := &aggs[w]
		if a.err != nil {
			return
		}
		var buf []itemset.ID
		a.err = srcs[s].Scan(func(tx itemset.Set) error {
			for h := 1; h <= H; h++ {
				buf = tax.AppendAncestors(buf[:0], tx, h)
				g := itemset.Canon(buf)
				a.widths[h] = max(a.widths[h], len(g))
				for _, id := range g {
					a.sup[h][id]++
				}
			}
			return nil
		})
	})
	for h := 1; h <= H; h++ {
		ds.sup1[h] = make(map[itemset.ID]int64)
	}
	for w := range aggs {
		if aggs[w].err != nil {
			return aggs[w].err
		}
		for h := 1; h <= H; h++ {
			if aggs[w].widths[h] > ds.widths[h] {
				ds.widths[h] = aggs[w].widths[h]
			}
			for id, n := range aggs[w].sup[h] {
				ds.sup1[h][id] += n
			}
		}
	}
	return nil
}

// mergePartials folds the per-worker partial support vectors into the
// cell's slab. The time spent here is the serial fraction of sharded
// counting and is surfaced as Stats.ShardMergeNs.
func (m *miner) mergePartials(c *cell, partials [][]int64) {
	start := time.Now()
	sup := c.store.Sup
	for _, counts := range partials {
		for i, n := range counts {
			sup[i] += n
		}
	}
	m.stats.ShardMergeNs += time.Since(start).Nanoseconds()
}

// countScanShards is the sharded scan backend over materialized levels:
// each pool worker walks its shards' row arenas down the cell's trie into
// its private scratch vector — one contiguous arena per shard, so the
// shard's transaction block stays cache-resident against the trie.
func (m *miner) countScanShards(c *cell) {
	shards := m.ds.levels
	workers := m.shardWorkers(len(shards))
	partials := m.sc.partialsFor(workers, c.store.Len())
	pruned := make([]int64, workers)
	txdb.ForEachShard(workers, len(shards), func(w, s int) {
		lv := shards[s][c.h]
		pruned[w] += scanTxsCheckpointed(c, lv, 0, lv.Rows(), partials[w], m.done)
	})
	m.mergePartials(c, partials)
	for _, n := range pruned {
		m.stats.ProbesPruned += n
	}
}

// countScanStreamingShards is the sharded disk-resident mode: every pool
// worker streams its own shard sources — for a ShardedSource of
// FileSources, its own basket files — generalizing to the cell's level on
// the fly. Memory stays one scan buffer and one partial vector per worker
// (not per shard) while the passes run in parallel: out-of-core mining at
// shard-parallel speed. A scan failure parks in m.scanErr and fails the
// mine (see count).
func (m *miner) countScanStreamingShards(c *cell) {
	if m.scanErr != nil {
		return
	}
	st := c.store
	workers := m.shardWorkers(len(m.ds.shards))
	partials := m.sc.partialsFor(workers, st.Len())
	pruned := make([]int64, workers)
	errs := make([]error, workers)
	txdb.ForEachShard(workers, len(m.ds.shards), func(w, s int) {
		if errs[w] != nil {
			return
		}
		counts := partials[w]
		var filtered itemset.Set
		var seen int
		var buf []itemset.ID
		errs[w] = m.ds.shards[s].Scan(func(tx itemset.Set) error {
			if seen++; seen&1023 == 0 && m.cancelled() {
				return errCancelled
			}
			buf = m.tax.AppendAncestors(buf[:0], tx, c.h)
			filtered = st.Filter(itemset.Canon(buf), filtered[:0])
			if len(filtered) < c.k {
				return nil
			}
			hits := st.CountTx(filtered, 1, counts)
			pruned[w] += itemset.Binomial(len(filtered), c.k) - hits
			return nil
		})
	})
	for _, err := range errs {
		if err != nil {
			m.scanErr = err
			return
		}
	}
	m.mergePartials(c, partials)
	for _, n := range pruned {
		m.stats.ProbesPruned += n
	}
}

// countTIDShards is the sharded tid-list backend: each pool worker
// intersects every candidate against its shards' per-item transaction-ID
// lists. A candidate's support is the sum of its per-shard intersection
// sizes, because each shard's lists index disjoint transactions.
func (m *miner) countTIDShards(c *cell) {
	lists := m.tidLists(c.h)
	st := c.store
	n := st.Len()
	workers := m.shardWorkers(len(lists))
	partials := m.sc.partialsFor(workers, n)
	scratches := m.sc.tidScratchFor(workers)
	txdb.ForEachShard(workers, len(lists), func(w, s int) {
		for e := 0; e < n; e++ {
			if e&cancelCheckMask == 0 && m.cancelled() {
				return
			}
			partials[w][e] += intersectSupport(st.Items(int32(e)), lists[s], &scratches[w])
		}
	})
	m.mergePartials(c, partials)
}

// countBitmapShards is the sharded bitmap backend: each pool worker ANDs
// its shards' per-item bit vectors for every candidate. Per-shard supports
// sum exactly; per-shard word-op counts accumulate into the same stat the
// unsharded backend reports.
func (m *miner) countBitmapShards(c *cell) {
	ixs := m.bitmapIndexes(c.h)
	st := c.store
	n := st.Len()
	workers := m.shardWorkers(len(ixs))
	partials := m.sc.partialsFor(workers, n)
	ops := make([]int64, workers)
	scratches := m.sc.vecsFor(workers, c.k)
	txdb.ForEachShard(workers, len(ixs), func(w, s int) {
		for e := 0; e < n; e++ {
			if e&cancelCheckMask == 0 && m.cancelled() {
				return
			}
			sup, wops := ixs[s].SupportInto(st.Items(int32(e)), scratches[w])
			partials[w][e] += sup
			ops[w] += wops
		}
	})
	m.mergePartials(c, partials)
	for _, n := range ops {
		m.stats.BitmapWordOps += n
	}
}
