package core

import (
	"context"
	"fmt"

	"github.com/flipper-mining/flipper/internal/candtrie"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Distributed counting support: the two exports internal/cluster builds its
// scatter–gather protocol on.
//
//   - A coordinator mines with MineRemote, which runs the full Flipper
//     search locally (candidate generation, labeling, pruning, chain
//     assembly — all cheap) but delegates every cell's support counting —
//     the dominant cost — to a CellCounter. The counter returns the merged
//     support vector for the cell's candidates, aligned index-for-index
//     with the candidate slab.
//
//   - A worker answers one shard's share of such a cell with ShardSupports:
//     the per-shard partial support vector of PR 5's sharded counting,
//     exported as a plain []int64 so it can travel over a wire. Because a
//     transaction lives in exactly one shard and supports merge by plain
//     int64 addition, summing the per-shard vectors — wherever they were
//     computed — reproduces the single-process counts exactly, which is
//     what keeps distributed mining byte-identical to local mining.
//
// Candidate order is the contract: candidates are exchanged in slab-entry
// order (the order Insert assigned their indexes), and ShardSupports
// re-inserts them in that order, reproducing the same indexes. The returned
// vector is therefore aligned with the requesting cell's support slab with
// no key exchange at all.

// CellCounter computes the merged support vector of one cell's candidates.
// Implementations (the cluster coordinator) may fan the work out over
// remote workers, retry, hedge, or fall back to local counting; the only
// obligations are that the returned slice has exactly len(candidates)
// entries, that entry i is the total support of candidates[i] over the
// whole database, and that every candidate is counted exactly once (a
// retried or hedged dispatch must not double-count a shard).
type CellCounter interface {
	CountCell(ctx context.Context, h, k int, candidates []itemset.Set) ([]int64, error)
}

// MineRemote is MineContext with support counting delegated to counter. The
// search itself — candidate generation, thresholds, labeling, TPG/SIBP
// pruning, chain assembly — runs locally over the engine's dataset state,
// so the engine must hold the same dataset the counter's workers count
// (internal/cluster enforces this with dataset fingerprints). A counter
// error fails the mine; it never returns partial results.
func (e *Engine) MineRemote(ctx context.Context, cfg Config, counter CellCounter) (*Result, error) {
	if counter == nil {
		return nil, fmt.Errorf("core: MineRemote needs a CellCounter")
	}
	return e.mineContext(ctx, cfg, counter)
}

// countRemote delegates one cell's counting to the run's CellCounter.
// Errors park in m.scanErr exactly like streaming scan failures: later
// cells short-circuit and Mine fails instead of returning undercounted
// patterns.
func (m *miner) countRemote(c *cell) {
	if m.scanErr != nil {
		return
	}
	cands := make([]itemset.Set, c.store.Len())
	c.store.Walk(func(e int32, items itemset.Set) { cands[e] = items })
	sup, err := m.remote.CountCell(m.ctx, c.h, c.k, cands)
	if err != nil {
		m.scanErr = err
		return
	}
	if len(sup) != len(cands) {
		m.scanErr = fmt.Errorf("core: remote counter returned %d supports for %d candidates", len(sup), len(cands))
		return
	}
	dst := c.store.Sup
	for i, v := range sup {
		dst[i] += v
	}
}

// ResolveShards reports how many transaction shards a run over cfg fans
// counting out over: the source's own shard count for a ShardedSource, the
// in-place partition count Config.Shards induces on an in-memory database,
// and 1 otherwise. Coordinator and workers resolve this identically from
// the same data and configuration, so shard indexes agree across nodes
// without negotiation.
func (e *Engine) ResolveShards(cfg Config) int {
	shards := resolveShardSources(e.src, cfg.Shards)
	if len(shards) <= 1 {
		return 1
	}
	return len(shards)
}

// ShardSupports counts candidates (itemsets of one size, in slab order) at
// taxonomy level h over one transaction shard and returns the partial
// support vector, aligned index-for-index with candidates. shard indexes
// the resolved shard layout (see ResolveShards); for an unsharded run,
// shard 0 is the whole database. The scan-descent counter is used
// regardless of cfg.Strategy — every backend counts identically, and the
// trie walk needs no per-shard index build, which keeps a worker's first
// request as cheap as its hundredth.
func (e *Engine) ShardSupports(ctx context.Context, cfg Config, h int, cands []itemset.Set, shard int) ([]int64, error) {
	if e.tree == nil {
		return nil, fmt.Errorf("core: nil taxonomy")
	}
	if h < 1 || h > e.tree.Height() {
		return nil, fmt.Errorf("core: level %d out of [1, %d]", h, e.tree.Height())
	}
	if len(cands) == 0 {
		return []int64{}, nil
	}
	k := len(cands[0])
	if k < 1 {
		return nil, fmt.Errorf("core: empty candidate itemset")
	}
	if _, err := cfg.validate(e.tree.Height(), e.src.Len()); err != nil {
		return nil, err
	}
	ds, err := e.dataFor(cfg)
	if err != nil {
		return nil, err
	}
	nshards := 1
	if ds.sharded() {
		nshards = len(ds.shards)
	}
	if shard < 0 || shard >= nshards {
		return nil, fmt.Errorf("core: shard %d out of [0, %d)", shard, nshards)
	}
	st := candtrie.New(k)
	for i, cand := range cands {
		if len(cand) != k {
			return nil, fmt.Errorf("core: candidate %d has %d items, want %d", i, len(cand), k)
		}
		for j, id := range cand {
			if id < 0 {
				return nil, fmt.Errorf("core: candidate %d has negative item ID %d", i, id)
			}
			if j > 0 && cand[j-1] >= id {
				return nil, fmt.Errorf("core: candidate %d is not a canonical itemset", i)
			}
		}
		idx, added := st.Insert(cand)
		if !added || idx != int32(i) {
			return nil, fmt.Errorf("core: duplicate candidate at index %d", i)
		}
	}
	st.Freeze()
	c := &cell{h: h, k: k, store: st}
	done := ctx.Done()
	if cfg.Materialize {
		lv := ds.levels[shard][h]
		scanTxsCheckpointed(c, lv, 0, lv.Rows(), st.Sup, done)
	} else {
		if err := streamCountShard(c, ds.sources(e.src)[shard], e, done); err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]int64, st.Len())
	copy(out, st.Sup)
	return out, nil
}

// streamCountShard is the streaming form of ShardSupports: one pass over
// the shard source with on-the-fly generalization to the cell's level.
func streamCountShard(c *cell, src txdb.Source, e *Engine, done <-chan struct{}) error {
	st := c.store
	var filtered itemset.Set
	var seen int
	var buf []itemset.ID
	return src.Scan(func(tx itemset.Set) error {
		if seen++; seen&1023 == 0 && canceled(done) {
			return errCancelled
		}
		buf = e.tree.AppendAncestors(buf[:0], tx, c.h)
		filtered = st.Filter(itemset.Canon(buf), filtered[:0])
		if len(filtered) < c.k {
			return nil
		}
		st.CountTx(filtered, 1, st.Sup)
		return nil
	})
}
