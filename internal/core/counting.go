package core

import (
	"time"

	"github.com/flipper-mining/flipper/internal/bitmap"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// count fills in the support of every candidate in the cell with one pass
// over the data or one batch of bitmap AND+popcounts. The cell's trie is
// frozen here (rank table and counting layout filled), after which the store
// is safe for concurrent readers.
func (m *miner) count(c *cell) {
	m.stats.DBScans++
	m.stats.TrieNodes += int64(c.store.NodeCount())
	c.store.Freeze()
	if m.scanErr != nil {
		return // the mine fails with the parked error; later passes are moot
	}
	strategy := m.cfg.Strategy
	if strategy == CountAuto {
		strategy = m.chooseStrategy(c)
	}
	if strategy == CountBitmap {
		m.noteBitmaps(c.h)
	}
	switch {
	case m.remote != nil:
		m.countRemote(c, strategy)
	case strategy == CountBitmap:
		m.countBitmap(c)
	case m.cfg.Materialize:
		m.countScan(c)
	default:
		m.countScanStreaming(c)
	}
}

// scanProbeWeight converts one scan probe (one subset reached by trie
// descent) into the model's base unit — one 64-bit word operation, which is
// what a bitmap AND costs. It was fitted to the CSR descent over item IDs on
// BenchmarkCountingDense, when a probe was a handful of node/item
// comparisons, and has not been refitted since: the dense rank-indexed
// blocks made a probe one load, and rows now descend in rank space with a
// pair kernel at the last two levels. The C(w,k) term stays an upper bound:
// descent abandons subsets with no candidate prefix early, so dense cells
// overestimate scan cost and the model errs toward the bitmap backend.
const scanProbeWeight = 2.5

// chooseStrategy is the CountAuto cost model, in units of one word
// operation. Scan cost: every distinct transaction explores at most C(w, k)
// subsets by trie descent, each worth scanProbeWeight units. Bitmap cost:
// every candidate ANDs k vectors of ⌈distinct/64⌉ words, plus a one-time
// per-level build of one word-vector per item. Scans win when candidates
// dwarf the database (their cost is candidate-independent), bitmaps when a
// high candidate count meets a dense level — many probes amortizing the
// fixed-width vectors.
//
// Sharding enters the model in two places. The merge of the partial vectors
// costs the same for both backends, so it cancels out of the comparison and
// is omitted. Bitmap vectors, however, round up to whole words per shard
// instead of once per level, so S shards pay up to S−1 extra words per
// candidate AND (and per item at build time); the distinct-transaction count
// is likewise the per-shard sum, which already reflects the dedup lost at
// shard boundaries.
//
// The build term follows the run's logical build flags (m.bmBuilt), not the
// engine cache: a warm run prices — and therefore chooses — exactly as the
// cold run did, which is what keeps reused-engine output byte-identical.
func (m *miner) chooseStrategy(c *cell) CountStrategy {
	sup1 := m.ds.sup1[c.h]
	items := len(sup1)
	if items == 0 {
		return CountScan
	}
	var volume int64
	for _, sup := range sup1 {
		volume += sup
	}
	distinct := 0
	for _, levels := range m.ds.levels {
		distinct += levels[c.h].Rows()
	}
	// Every raw transaction generalizes to one row occurrence, so the
	// level's transaction count is m.n regardless of sharding.
	avgWidth := float64(volume) / float64(m.n)
	scanCost := scanProbeWeight * float64(distinct) * float64(itemset.Binomial(int(avgWidth+1), c.k))
	words := float64(bitmap.Words(distinct) + len(m.ds.levels) - 1) // per-shard word rounding
	bitCost := float64(c.candidates) * float64(c.k) * words
	if !m.bmBuilt[c.h] {
		bitCost += float64(items) * words // the build pass, paid once per run
	}
	if bitCost < scanCost {
		return CountBitmap
	}
	return CountScan
}

// Every local pass runs as units of (shard, range) work on a bounded pool of
// cfg.workers() goroutines (txdb.ForEachShard: each worker takes the next
// unit off a shared counter), and an unsharded representation is one shard.
// Each unit adds into its worker's partial support vector; mergePartials
// then sums the partials into the cell's candtrie slab. Because a
// transaction lives in exactly one shard and a unit covers each (shard, row)
// or (shard, candidate) pair once, and because the merge is plain int64
// addition, the supports — and everything derived from them — do not depend
// on the shard count, the cut or the worker assignment
// (TestShardedMiningEquivalence and TestWorkSplitInvariance pin this).

// unit is one piece of a counting pass: the level rows (scan) or the
// candidates (bitmap) [lo, hi) of shard s.
type unit struct{ s, lo, hi int }

// cutUnits appends to dst the units of a pass over shards whose ranges are
// [0, size(s)). Shard s is cut at multiples of block into ⌈workers ·
// size(s) / total⌉ units of about equal length, at most one per block, so a
// pass has at least `workers` units whenever the shards hold that many
// blocks: an unsharded level splits across the workers, and so do shards
// fewer than the workers.
func cutUnits(dst []unit, shards int, size func(s int) int, workers, block int) []unit {
	total := 0
	for s := 0; s < shards; s++ {
		total += size(s)
	}
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
// rest — the tallies mergePartials folds into Stats, and reusable buffers.
type partial struct {
	counts []int64
	pruned int64 // subset probes the trie descent skipped (Stats.ProbesPruned)
	ops    int64 // bitmap word operations (Stats.BitmapWordOps)
	err    error // streaming scan failure

	vecs   []bitmap.Vector // bitmap AND operands
	ranks  []int32         // the scan's current row in rank space
	widths []int64         // the scan unit's rows by filtered width, see chargeProbes
	gen    []itemset.ID    // streaming generalization buffer
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
// (worker 0 counted into it directly) and folds every worker's tallies into
// the run's stats. The vector sums are the serial fraction of a pass and
// are surfaced as Stats.ShardMergeNs.
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
		m.stats.ProbesPruned += ps[i].pruned
		m.stats.BitmapWordOps += ps[i].ops
		if m.scanErr == nil {
			m.scanErr = ps[i].err
		}
	}
}

// countScan counts a materialized cell by trie descent over every shard's
// level rows, cut into scanBlock-aligned units: each unit's block of the row
// arena streams through cache while the trie's layout stays resident.
func (m *miner) countScan(c *cell) {
	levels := m.ds.levels
	units := cutUnits(m.sc.units[:0], len(levels), func(s int) int { return levels[s][c.h].Rows() }, m.cfg.workers(), scanBlock)
	m.sc.units = units
	m.runPass(c, len(units), func(p *partial, i int) {
		u := units[i]
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

// countBitmap counts by AND-ing per-item bit vectors over the distinct
// weighted rows of every shard's level, the candidate slab cut into units
// per shard. A candidate's support is the sum of its per-shard supports.
func (m *miner) countBitmap(c *cell) {
	n := c.store.Len()
	units := cutUnits(m.sc.units[:0], len(m.ds.shards), func(int) int { return n }, m.cfg.workers(), 1)
	m.sc.units = units
	m.runPass(c, len(units), func(p *partial, i int) {
		u := units[i]
		p.bitmapRange(c, m.ds.index(c.h, u.s), u.lo, u.hi, m.done)
	})
}

// bitmapRange counts the candidates [lo, hi) of the cell on one shard's
// index into p, polling the run's cancellation channel every
// cancelCheckMask+1 candidates.
func (p *partial) bitmapRange(c *cell, ix *bitmap.Index, lo, hi int, done <-chan struct{}) {
	st, counts := c.store, p.counts
	var ops int64
	for e := lo; e < hi; e++ {
		if e&cancelCheckMask == 0 && canceled(done) {
			break
		}
		sup, n := ix.SupportInto(st.Items(int32(e)), p.vecs)
		counts[e] += sup
		ops += n
	}
	p.ops += ops
}

// scanTxs counts the level's rows [lo, hi) into p by trie descent: map the
// row's candidate items to their ranks, then walk the ranks down the trie
// so only subsets sharing a candidate prefix are ever enumerated. The row
// arena is walked front to back, so a block of rows streams through cache
// while the trie's layout stays resident. Each counted row's filtered width
// goes into p.widths and its hits come off p.pruned; chargeProbes settles
// the unit's probe tally.
func (p *partial) scanTxs(c *cell, lv *txdb.Level, lo, hi int) {
	st, k := c.store, c.k
	items, starts, weights := lv.Items, lv.Starts, lv.Weights
	ranks, counts := p.ranks, p.counts
	var hits int64
	for t := lo; t < hi; t++ {
		ranks = st.FilterRanks(items[starts[t]:starts[t+1]], ranks[:0])
		if len(ranks) < k {
			continue
		}
		p.noteWidth(len(ranks))
		hits += st.CountRanks(ranks, weights[t], counts)
	}
	p.ranks = ranks
	p.pruned -= hits
}

// noteWidth records one counted row of filtered width w in the unit's
// histogram, growing it when w is the widest row the worker has seen.
func (p *partial) noteWidth(w int) {
	if w >= len(p.widths) {
		p.widths = append(p.widths, make([]int64, w+1-len(p.widths))...)
	}
	p.widths[w]++
}

// chargeProbes ends a scan unit: a row of filtered width w is worth C(w, k)
// probes to a flat subset enumeration, so the unit adds C(w, k) once per
// width, times the rows of that width, to the hits scanTxs already took
// off — Stats.ProbesPruned with one binomial per width instead of one per
// row — and clears the histogram for the worker's next unit.
func (p *partial) chargeProbes(k int) {
	for w, n := range p.widths {
		if n != 0 {
			p.pruned += n * itemset.Binomial(w, k)
			p.widths[w] = 0
		}
	}
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
	p.chargeProbes(c.k)
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
		if len(p.ranks) < c.k {
			return nil
		}
		p.noteWidth(len(p.ranks))
		p.pruned -= st.CountRanks(p.ranks, 1, p.counts)
		return nil
	})
	p.chargeProbes(c.k)
	return err
}

// cancelCheckMask sets the granularity of per-candidate cancellation polls
// in the bitmap backend and candidate generation: one poll every 256
// candidates costs one AND+branch per candidate against work that is orders
// of magnitude larger (k vector ANDs).
const cancelCheckMask = 255

// scanBlock is the row granularity of scan units: unit bounds align to it,
// so no two workers interleave inside one block of a row arena.
const scanBlock = 512

// index returns shard s's bitmap index of level h, built over the shard's
// rows — row r at bit r — on first use by any run of the engine and cached.
// An engine builds only the shards it counts: a cluster worker, the shards
// it is sent.
func (ds *dataState) index(h, s int) *bitmap.Index {
	li := &ds.bitmaps[h*len(ds.shards)+s]
	li.once.Do(func() {
		lv := ds.levels[s][h]
		rows := make([]itemset.Set, lv.Rows())
		for r := range rows {
			rows[r] = lv.Row(r)
		}
		li.ix = bitmap.Build(rows, lv.Weights)
	})
	return li.ix
}

// noteBitmaps accounts the run's use of level h's bitmap indexes: the first
// use per level per run counts one build per shard, whether the engine's
// cache or a worker already held them, so warm and distributed runs report —
// and chooseStrategy prices — what a cold local run does.
func (m *miner) noteBitmaps(h int) {
	if !m.bmBuilt[h] {
		m.bmBuilt[h] = true
		m.stats.BitmapBuilds += int64(len(m.ds.shards))
	}
}
