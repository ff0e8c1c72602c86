package core

import (
	"time"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// count fills in the support of every candidate in the cell with one pass:
// over the level's subset tables or rows (countScan), over the streamed
// source (countScanStreaming) or, under MineRemote, through the run's
// ShardCounter (countRemote). The cell's trie is frozen here (rank table and
// counting layout filled), after which the store is safe for concurrent
// readers.
func (m *miner) count(c *cell) {
	m.stats.DBScans++
	m.stats.TrieNodes += int64(c.store.NodeCount())
	c.store.Freeze()
	if m.scanErr != nil {
		return // the mine fails with the parked error; later passes are moot
	}
	switch {
	case m.remote != nil:
		m.countRemote(c)
	case m.ds.stream:
		m.countScanStreaming(c)
	default:
		m.countScan(c)
	}
}

// Every local pass runs as units of (shard, range) work on a bounded pool of
// cfg.workers() goroutines (txdb.ForEachShard: each worker takes the next
// unit off a shared counter), and an unsharded representation is one shard.
// Each unit adds into its worker's partial support vector; mergePartials
// then sums the partials into the cell's candtrie slab. Because a
// transaction lives in exactly one shard and a unit covers each (shard, row)
// pair once, and because the merge is plain int64 addition, the supports —
// and everything derived from them — do not depend on the shard count, the
// cut or the worker assignment (TestShardedMiningEquivalence and
// TestWorkSplitInvariance pin this).

// unit is one piece of a counting pass: the level rows [lo, hi) of shard s.
// A unit of a shard whose subset table answers the cell covers the whole
// shard and reads no rows.
type unit struct{ s, lo, hi int }

// cutUnits appends to dst the units of a pass over shards whose ranges are
// [0, size(s)). Shard s is cut at multiples of block into ⌈workers ·
// size(s) / total⌉ units of about equal length, at most one per block, so a
// pass has at least `workers` units whenever the shards hold that many
// blocks: an unsharded level splits across the workers, and so do shards
// fewer than the workers. No unit is shorter than a row, so workers counts
// at most total, which keeps workers · size(s) from overflowing.
func cutUnits(dst []unit, shards int, size func(s int) int, workers, block int) []unit {
	total := 0
	for s := 0; s < shards; s++ {
		total += size(s)
	}
	workers = min(workers, total)
	for s := 0; s < shards; s++ {
		n := size(s)
		if n == 0 {
			continue
		}
		blocks := (n + block - 1) / block
		parts := min(blocks, (workers*n+total-1)/total)
		for i := 0; i < parts; i++ {
			dst = append(dst, unit{s, i * blocks / parts * block, min(n, (i+1)*blocks/parts*block)})
		}
	}
	return dst
}

// partial is one counting worker's share of a pass: the support vector its
// units add into — the cell's own slab for worker 0, private scratch for the
// rest — the pass's failure, if any, and reusable buffers.
type partial struct {
	counts []int64
	err    error // streaming scan or remote unit failure

	ranks []int32      // the scan's current row in rank space
	gen   []itemset.ID // streaming generalization buffer
}

// runPass counts n units into the cell: body(p, u) adds unit u into its
// worker's partial p, and the partials are merged when every unit is done.
func (m *miner) runPass(c *cell, n int, body func(p *partial, u int)) {
	workers := min(m.cfg.workers(), n)
	ps := m.sc.partialsFor(c, workers)
	txdb.ForEachShard(workers, n, func(w, u int) { body(&ps[w], u) })
	m.mergePartials(c, ps)
}

// mergePartials adds the partial vectors of workers 1.. into the cell's slab
// (worker 0 counted into it directly) and parks the first worker failure in
// m.scanErr. The vector sums are the serial fraction of a pass and are
// surfaced as Stats.ShardMergeNs.
func (m *miner) mergePartials(c *cell, ps []partial) {
	start := time.Now()
	sup := c.store.Sup
	for w := 1; w < len(ps); w++ {
		for i, n := range ps[w].counts {
			sup[i] += n
		}
	}
	m.stats.ShardMergeNs += time.Since(start).Nanoseconds()
	for i := range ps {
		if m.scanErr == nil {
			m.scanErr = ps[i].err
		}
	}
}

// countScan counts a materialized cell by trie descent over every shard's
// level rows, cut into scanBlock-aligned units: each unit's block of the row
// arena streams through cache while the trie's layout stays resident. A
// k = 2 or 3 cell reads instead the subset table of every shard that has one
// (dataState.table), one unit per such shard.
func (m *miner) countScan(c *cell) {
	levels := m.ds.levels
	tables := m.sc.tables[:0]
	for s := range levels {
		tables = append(tables, m.ds.table(c.h, s, c.k))
	}
	m.sc.tables = tables
	units := cutUnits(m.sc.units[:0], len(levels), func(s int) int {
		if tables[s] != nil {
			return 0
		}
		return levels[s][c.h].Rows()
	}, m.cfg.workers(), scanBlock)
	for s, t := range tables {
		if t != nil {
			units = append(units, unit{s: s})
		}
	}
	m.sc.units = units
	m.runPass(c, len(units), func(p *partial, i int) {
		u := units[i]
		if t := tables[u.s]; t != nil {
			p.countTable(c, t)
			return
		}
		p.scanRows(c, levels[u.s][c.h], u.lo, u.hi, m.done)
	})
}

// countScanStreaming is the disk-resident mode: one sequential pass over
// every shard source — for a ShardedSource of FileSources, its own basket
// file — with on-the-fly generalization to the cell's level. A stream cannot
// be cut, so each shard is one unit. A scan failure parks in m.scanErr and
// fails the mine.
func (m *miner) countScanStreaming(c *cell) {
	srcs := m.ds.shards
	m.runPass(c, len(srcs), func(p *partial, s int) {
		if p.err == nil {
			p.err = p.scanSource(c, srcs[s], m.tax, m.done)
		}
	})
}

// scanTxs counts the level's rows [lo, hi) into p by trie descent: map the
// row's candidate items to their ranks, then walk the ranks down the trie
// so only subsets sharing a candidate prefix are ever enumerated. The row
// arena is walked front to back, so a block of rows streams through cache
// while the trie's layout stays resident.
func (p *partial) scanTxs(c *cell, lv *txdb.Level, lo, hi int) {
	st := c.store
	items, starts, weights := lv.Items, lv.Starts, lv.Weights
	ranks, counts := p.ranks, p.counts
	for t := lo; t < hi; t++ {
		ranks = st.FilterRanks(items[starts[t]:starts[t+1]], ranks[:0])
		st.CountRanks(ranks, weights[t], counts)
	}
	p.ranks = ranks
}

// scanRows walks the level's rows [lo, hi) through scanTxs into p one
// scanBlock at a time, polling the run's cancellation channel between
// blocks — the scan kernel itself stays checkpoint-free, so a cancelled run
// abandons the pass within one block of work while the hot loop is
// untouched.
func (p *partial) scanRows(c *cell, lv *txdb.Level, lo, hi int, done <-chan struct{}) {
	for lo < hi && !canceled(done) {
		end := min(lo+scanBlock, hi)
		p.scanTxs(c, lv, lo, end)
		lo = end
	}
}

// countTable counts a cell on one shard's subset table of the cell's k into
// p, one slot read per candidate. An item the shard's level lacks has no
// rank, and a candidate holding one reads zero.
func (p *partial) countTable(c *cell, t *txdb.SubsetTable) {
	st, counts := c.store, p.counts
	var buf [txdb.MaxTableK]int32
	cand := buf[:c.k]
	for e := range counts {
		ranked := true
		for m, id := range st.Items(int32(e)) {
			r := t.Rank(id)
			ranked = ranked && r >= 0
			cand[m] = int32(r)
		}
		if ranked {
			counts[e] += t.At(cand)
		}
	}
}

// scanSource streams src once into p: every transaction is generalized to
// the cell's level on the fly, then mapped to ranks and walked down the trie
// as in scanTxs. A stream has no blocks, so it polls done inside the
// callback — every 1024 transactions, amortized to a counter increment.
func (p *partial) scanSource(c *cell, src txdb.Source, tax *taxonomy.Tree, done <-chan struct{}) error {
	st := c.store
	var seen int
	err := src.Scan(func(tx itemset.Set) error {
		if seen++; seen&1023 == 0 && canceled(done) {
			return errCancelled
		}
		p.gen = tax.AppendAncestors(p.gen[:0], tx, c.h)
		p.ranks = st.FilterRanks(itemset.Canon(p.gen), p.ranks[:0])
		st.CountRanks(p.ranks, 1, p.counts)
		return nil
	})
	return err
}

// cancelCheckMask sets the granularity of cancellation polls in candidate
// generation: one poll every 256 candidates (or parents) costs one
// AND+branch each against work that is orders of magnitude larger.
const cancelCheckMask = 255

// scanBlock is the row granularity of scan units: unit bounds align to it,
// so no two workers interleave inside one block of a row arena.
const scanBlock = 512

// table returns shard s's k-subset table of level h to a scan cell or unit
// of that k that reaches it, or nil when that reach scans the rows instead:
// every reach of a k the tables do not cover, the first reach of each
// (level, shard, k) — so a one-shot mine, which reaches each level's cell of
// each k once, never builds a table — and every reach of a level over the
// table's cap (txdb.NewSubsetTable). The second reach builds the table once
// for every later run; the build is shared and not cancellable.
func (ds *dataState) table(h, s, k int) *txdb.SubsetTable {
	if k < 2 || k > txdb.MaxTableK {
		return nil
	}
	lt := ds.tableSlot(h, s, k)
	if lt.reaches.Add(1) == 1 {
		return nil
	}
	lt.once.Do(func() { lt.t = txdb.NewSubsetTable(ds.levels[s][h], k) })
	return lt.t
}

// tableSlot returns the slot of shard s's k-subset table of level h, for
// 2 ≤ k ≤ txdb.MaxTableK.
func (ds *dataState) tableSlot(h, s, k int) *lazyTable {
	return &ds.tables[(h*len(ds.shards)+s)*(txdb.MaxTableK-1)+k-2]
}
