package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Distributed counting: the exports internal/cluster builds its
// scatter–gather protocol on. A coordinator mines with MineRemote, which
// runs the whole search locally — candidate generation, labeling, pruning,
// chain assembly — and cuts each cell's counting pass into one unit per
// transaction shard, all in flight, answered by a ShardCounter; the answers
// land in the pass's per-shard partials, which mergePartials sums as it
// sums a local pass's. A worker answers a unit with CountShard: the kernel
// a local unit runs (countTable on the shard's subset table, scanRows or
// scanSource), over the whole shard. A transaction lives in exactly one
// shard and supports merge by int64 addition, so a distributed result is
// byte-identical to a local one, stats included: every stat is the
// coordinator's own, since a count pass returns supports and nothing else.
//
// Candidate order is the contract: a unit carries its cell's candidates in
// slab-entry order, and CountShard re-inserts them in that order into a
// store from the engine's scratch pool, reproducing the same indexes. The
// answer is therefore aligned with the requesting cell's support slab with
// no key exchange at all.

// ShardUnit is one unit of a distributed counting pass: one cell's
// candidates, in slab order, to count over one transaction shard. Its JSON
// form is the body of a cluster count request: an object whose candidates
// travel packed, as one base64 string of uvarints (PackedSets), so a
// unit's bulk decodes in one pass over its bytes. It carries no mining
// configuration: a support does not depend on one.
type ShardUnit struct {
	Level      int        `json:"level"`
	K          int        `json:"k"`
	Shard      int        `json:"shard"`
	Candidates PackedSets `json:"candidates"`
}

// ShardTally is a unit's answer: the partial support vector, aligned with
// the unit's candidates. Its JSON form is the body of a cluster count
// response, with the supports packed like a unit's candidates
// (PackedSupports).
type ShardTally struct {
	Supports PackedSupports `json:"supports"`
}

// ShardCounter counts the units of a distributed pass. Implementations (the
// cluster coordinator) may send a unit to a remote worker, retry, hedge, or
// count it locally; the obligations are that the answer is the unit's shard
// counted exactly once, and that a retried or hedged unit yields a single
// answer. *Engine is the local implementation.
type ShardCounter interface {
	CountShard(ctx context.Context, u ShardUnit) (ShardTally, error)
}

// ErrBadUnit marks a unit CountShard refuses to count: a malformed or
// unservable request rather than a failed pass.
var ErrBadUnit = errors.New("core: bad shard unit")

// MineRemote is MineContext with every cell's counting pass sent to counter,
// one unit per shard. The search itself runs locally over the engine's
// dataset state, so the engine must hold the same dataset the counter's
// workers count (internal/cluster enforces this with dataset fingerprints). A
// counter error fails the mine; it never returns partial results.
func (e *Engine) MineRemote(ctx context.Context, cfg Config, counter ShardCounter) (*Result, error) {
	if counter == nil {
		return nil, fmt.Errorf("core: MineRemote needs a ShardCounter")
	}
	return e.mineContext(ctx, cfg, counter)
}

// countRemote is the distributed pass: one unit per shard, all in flight,
// counted by the run's ShardCounter. A failed unit parks its error in its
// partial, and mergePartials parks it in m.scanErr like a streaming scan
// failure.
func (m *miner) countRemote(c *cell) {
	cands := make([]itemset.Set, c.store.Len())
	for e := range cands {
		cands[e] = c.store.Items(int32(e))
	}
	n := len(m.ds.shards)
	ps := m.sc.partialsFor(c, n)
	txdb.ForEachShard(n, n, func(_, s int) {
		p := &ps[s]
		t, err := m.remote.CountShard(m.ctx, ShardUnit{Level: c.h, K: c.k, Shard: s, Candidates: cands})
		if err == nil && len(t.Supports) != len(cands) {
			err = fmt.Errorf("core: shard %d answered %d supports for %d candidates", s, len(t.Supports), len(cands))
		}
		if err != nil {
			p.err = err
			return
		}
		for i, v := range t.Supports {
			p.counts[i] += v
		}
	})
	m.mergePartials(c, ps)
}

// CountShard counts one unit over the engine's copy of the unit's shard,
// with the kernel a local pass runs. Errors wrapping ErrBadUnit reject the
// unit itself, before any counting: a level, shard, k or candidate out of
// shape. The candidate store and the counting state come out of the
// engine's scratch pool, which Mine shares, and go back to it reset; the
// tally's supports are a copy, so no later call changes them. A unit that
// reaches an engine before any mine builds the dataset state with the
// default parallelism.
func (e *Engine) CountShard(ctx context.Context, u ShardUnit) (ShardTally, error) {
	switch {
	case u.Level < 1 || u.Level > e.tree.Height():
		return badUnit("level %d out of [1, %d]", u.Level, e.tree.Height())
	case u.K < 1:
		return badUnit("k = %d", u.K)
	}
	ds, err := e.dataFor(Config{})
	if err != nil {
		return ShardTally{}, err
	}
	switch {
	case u.Shard < 0 || u.Shard >= len(ds.shards):
		return badUnit("shard %d out of [0, %d)", u.Shard, len(ds.shards))
	case u.K > ds.widths[u.Level]:
		// No mine sends one, and its k would size the scratch's cell pool.
		return badUnit("k = %d over level %d's widest row of %d items", u.K, u.Level, ds.widths[u.Level])
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	c := sc.cell(u.Level, u.K)
	defer sc.retire(c)
	st := c.store
	for i, cand := range u.Candidates {
		if len(cand) != u.K {
			return badUnit("candidate %d has %d items, want %d", i, len(cand), u.K)
		}
		for j, id := range cand {
			if id < 0 || j > 0 && cand[j-1] >= id {
				return badUnit("candidate %d is not a canonical itemset", i)
			}
		}
		if idx, added := st.Insert(cand); !added || idx != int32(i) {
			return badUnit("duplicate candidate at index %d", i)
		}
	}
	st.Freeze()
	p := &sc.partialsFor(c, 1)[0]
	if ds.stream {
		p.err = p.scanSource(c, ds.shards[u.Shard], e.tree, ctx.Done())
	} else if tab := ds.table(u.Level, u.Shard, u.K); tab != nil {
		p.countTable(c, tab)
	} else {
		lv := ds.levels[u.Shard][u.Level]
		p.scanRows(c, lv, 0, lv.Rows(), ctx.Done())
	}
	if err := ctx.Err(); err != nil {
		return ShardTally{}, err
	}
	if p.err != nil {
		return ShardTally{}, p.err
	}
	return ShardTally{Supports: slices.Clone(st.Sup)}, nil
}

// badUnit is CountShard's rejection of a unit.
func badUnit(format string, args ...any) (ShardTally, error) {
	return ShardTally{}, fmt.Errorf("%w: %s", ErrBadUnit, fmt.Sprintf(format, args...))
}
