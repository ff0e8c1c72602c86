package core

import (
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Transaction shards: the engine counts the shards of its source
// (txdb.ShardsOf) — a txdb.ShardedSource's own, from per-shard basket files
// or txdb.PartitionSource over an in-memory database, or the whole source as
// one shard. Every shard gets its own levels (built concurrently at init)
// and subset tables, and counting cuts its passes over them into (shard,
// range) units (counting.go), so an unsharded run is simply the one-shard
// case; anchored search alone builds each shard's bitmap indexes, lazily.
// The payoffs over one big level: each unit's working set is its shard's
// row arena or table rather than the whole level (cache residency),
// and with a ShardedSource over per-shard basket files, streaming counting
// scans the files in parallel — out-of-core mining of databases larger than
// RAM. The fan-out is a bounded pool of cfg.workers() goroutines
// (txdb.ForEachShard), so shard count scales independently of core count: a
// 256-shard out-of-core dataset on 4 cores runs 4 workers with 4 partial
// vectors, not 256 of each.

// streamSingleSupports is the streaming init: one single-item pass over the
// shard sources, a bounded worker pool scanning them concurrently, each
// worker aggregating per-level single supports (n IDs per level) and widths
// across its shards locally; the locals then merge. Integer sums and maxima
// make the merged aggregates independent of worker assignment and equal to
// the single-pass values.
func (ds *dataState) streamSingleSupports(srcs []txdb.Source, tax *taxonomy.Tree, H, n, workers int) error {
	type agg struct {
		sup    [][]int64
		widths []int
		err    error
	}
	aggs := make([]agg, workers)
	for w := range aggs {
		aggs[w].sup = make([][]int64, H+1)
		aggs[w].widths = make([]int, H+1)
		for h := 1; h <= H; h++ {
			aggs[w].sup[h] = make([]int64, n)
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
	// Worker 0's supports become the engine's; the others add into them.
	ds.sup1 = aggs[0].sup
	for w := range aggs {
		if aggs[w].err != nil {
			return aggs[w].err
		}
		for h := 1; h <= H; h++ {
			ds.widths[h] = max(ds.widths[h], aggs[w].widths[h])
			if w > 0 {
				for id, c := range aggs[w].sup[h] {
					ds.sup1[h][id] += c
				}
			}
		}
	}
	ds.orderItems()
	return nil
}
