package core

import (
	"sync"

	"github.com/flipper-mining/flipper/internal/bitmap"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// count fills in the support of every candidate in the cell with one pass
// over the data, one set of tid-list intersections, or one batch of bitmap
// AND+popcounts. The cell's trie is frozen here (CSR spans and the
// item-membership bitset filled), after which the store is safe for
// concurrent readers.
func (m *miner) count(c *cell) {
	m.stats.DBScans++
	m.stats.TrieNodes += int64(c.store.NodeCount())
	c.store.Freeze()
	if m.remote != nil {
		// Delegated counting (MineRemote): the CellCounter owns the pass —
		// strategy choice, sharding, fan-out all happen on its side.
		m.countRemote(c)
		return
	}
	strategy := m.cfg.Strategy
	if strategy == CountAuto {
		strategy = m.chooseStrategy(c)
	}
	if m.sharded() {
		// Shard-parallel variants: a bounded worker pool over the shards,
		// partial support vectors summed into the slab (counting_shard.go).
		switch strategy {
		case CountTIDList:
			m.countTIDShards(c)
		case CountBitmap:
			m.countBitmapShards(c)
		default:
			if m.cfg.Materialize {
				m.countScanShards(c)
			} else {
				m.countScanStreamingShards(c)
			}
		}
		return
	}
	switch strategy {
	case CountTIDList:
		m.countTID(c)
	case CountBitmap:
		m.countBitmap(c)
	default:
		if m.cfg.Materialize {
			m.countScanMaterialized(c)
		} else {
			m.countScanStreaming(c)
		}
	}
}

// scanProbeWeight converts one scan probe (one subset reached by trie
// descent) into the model's base unit — one sequential word/element
// operation, which is what a tid-list merge step and a bitmap AND both
// cost. The trie store cut the probe from a key build plus a string-map
// lookup (~8 units pre-PR3) to a handful of node/item comparisons;
// recalibrated on BenchmarkCountingDense (~12ns per probed subset vs ~5ns
// per word op on a 2.1GHz Xeon). The C(w,k) term stays an upper bound:
// descent abandons subsets with no candidate prefix early, so dense cells
// overestimate scan cost slightly and the model errs toward the vertical
// backends exactly where they win.
const scanProbeWeight = 2.5

// chooseStrategy is the CountAuto cost model, in units of one sequential
// word/element operation. Scan cost: every distinct transaction explores at
// most C(w, k) subsets by trie descent, each worth scanProbeWeight units.
// Tid-list cost: every candidate intersects k sorted lists whose combined
// length averages k·(level volume / level item count). Bitmap cost: every
// candidate ANDs k vectors of ⌈distinct/64⌉ words, plus a one-time
// per-level build of one word-vector per item. Scans win when candidates
// dwarf the database (their cost is candidate-independent), tid-lists win
// when a few candidates face sparse lists, and bitmaps win when a high
// candidate count meets a dense level — many probes amortizing the
// fixed-width vectors.
//
// Sharding enters the model in two places. The per-candidate merge of S
// partial vectors costs the same S additions for every backend, so it
// cancels out of the comparison and is omitted. Bitmap vectors, however,
// round up to whole words per shard instead of once per level, so S shards
// pay up to S−1 extra words per candidate AND (and per item at build time);
// the distinct-transaction count is likewise the per-shard sum, which
// already reflects the dedup lost at shard boundaries.
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
	distinct := m.distinctCount(c.h)
	// Every raw transaction generalizes to one row occurrence, so the
	// level's transaction count is m.n regardless of sharding.
	avgWidth := float64(volume) / float64(m.n)
	scanCost := scanProbeWeight * float64(distinct) * float64(itemset.Binomial(int(avgWidth+1), c.k))
	tidCost := float64(c.candidates) * float64(c.k) * float64(volume) / float64(items)
	words := float64(bitmap.Words(distinct))
	if m.sharded() {
		words += float64(len(m.ds.shards) - 1) // per-shard word rounding
	}
	bitCost := float64(c.candidates) * float64(c.k) * words
	if !m.bmBuilt[c.h] {
		bitCost += float64(items) * words // the build pass, paid once per run
	}
	best, cost := CountScan, scanCost
	if tidCost < cost {
		best, cost = CountTIDList, tidCost
	}
	if bitCost < cost {
		best = CountBitmap
	}
	return best
}

// scanTxs counts the level's rows [lo, hi) into counts by trie descent:
// filter the row to candidate-relevant items, then walk the items down the
// trie so only subsets sharing a candidate prefix are ever enumerated. The
// row arena is walked front to back, so a block of rows streams through
// cache while the trie's CSR slabs stay resident. Returns the number of
// subset probes the descent skipped relative to a flat C(w,k) enumeration.
func scanTxs(c *cell, lv *txdb.Level, lo, hi int, counts []int64, filtered itemset.Set) (pruned int64, scratch itemset.Set) {
	k := c.k
	st := c.store
	items, starts, weights := lv.Items, lv.Starts, lv.Weights
	for t := lo; t < hi; t++ {
		filtered = st.Filter(items[starts[t]:starts[t+1]], filtered[:0])
		if len(filtered) < k {
			continue
		}
		hits := st.CountTx(filtered, weights[t], counts)
		pruned += itemset.Binomial(len(filtered), k) - hits
	}
	return pruned, filtered
}

// scanTxsCheckpointed walks [lo, hi) through scanTxs one scanBlock at a
// time, polling the run's cancellation channel between blocks — the scan
// kernel itself stays checkpoint-free, so a cancelled run abandons the pass
// within one block of work while the hot loop is untouched.
func scanTxsCheckpointed(c *cell, lv *txdb.Level, lo, hi int, counts []int64, done <-chan struct{}) (pruned int64) {
	var filtered itemset.Set
	for lo < hi {
		if canceled(done) {
			return pruned
		}
		end := lo + scanBlock
		if end > hi {
			end = hi
		}
		var p int64
		p, filtered = scanTxs(c, lv, lo, end, counts, filtered)
		pruned += p
		lo = end
	}
	return pruned
}

// cancelCheckMask sets the granularity of per-candidate cancellation polls
// in the tid-list and bitmap backends: one poll every 256 candidates costs
// one AND+branch per candidate against work that is orders of magnitude
// larger (a k-way list intersection or k vector ANDs).
const cancelCheckMask = 255

// scanBlock is the transaction-block granularity of parallel scan
// splitting: worker ranges align to it, so no two workers interleave inside
// one block of the arena.
const scanBlock = 512

// countScanMaterialized counts over the level's row arena, fanning
// block-aligned ranges out to cfg.workers() goroutines.
func (m *miner) countScanMaterialized(c *cell) {
	lv := m.ds.levels[0][c.h]
	n := lv.Rows()
	workers := m.cfg.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		m.stats.ProbesPruned += scanTxsCheckpointed(c, lv, 0, n, c.store.Sup, m.done)
		return
	}
	chunk := (n + workers - 1) / workers
	chunk = (chunk + scanBlock - 1) / scanBlock * scanBlock
	partials := m.sc.partialsFor(workers, c.store.Len())
	pruned := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			pruned[w] = scanTxsCheckpointed(c, lv, lo, hi, partials[w], m.done)
		}(w, lo, hi)
	}
	wg.Wait()
	sup := c.store.Sup
	for _, counts := range partials {
		for i, n := range counts {
			sup[i] += n
		}
	}
	for _, n := range pruned {
		m.stats.ProbesPruned += n
	}
}

// countScanStreaming is the disk-resident mode: one sequential pass over the
// raw source with on-the-fly generalization to the cell's level.
func (m *miner) countScanStreaming(c *cell) {
	if m.scanErr != nil {
		return
	}
	st := c.store
	counts := st.Sup
	var filtered itemset.Set
	var pruned int64
	buf := m.sc.genBuf
	var seen int
	err := m.src.Scan(func(tx itemset.Set) error {
		// Streaming passes can't chunk the loop, so poll inside the callback
		// — every 1024 transactions, amortized to a counter increment.
		if seen++; seen&1023 == 0 && m.cancelled() {
			return errCancelled
		}
		buf = m.tax.AppendAncestors(buf[:0], tx, c.h)
		filtered = st.Filter(itemset.Canon(buf), filtered[:0])
		if len(filtered) < c.k {
			return nil
		}
		hits := st.CountTx(filtered, 1, counts)
		pruned += itemset.Binomial(len(filtered), c.k) - hits
		return nil
	})
	m.sc.genBuf = buf
	if err != nil {
		m.scanErr = err
	}
	m.stats.ProbesPruned += pruned
}

// countTID counts by intersecting per-item transaction-ID lists, building
// the level's lists on first use. Candidates are read straight off the
// cell's slab; workers own disjoint index ranges, so they write disjoint
// slots of the shared support slice.
func (m *miner) countTID(c *cell) {
	lists := m.tidLists(c.h)[0]
	st := c.store
	n := st.Len()
	workers := m.cfg.workers()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	scratches := m.sc.tidScratchFor(workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for e := lo; e < hi; e++ {
				if e&cancelCheckMask == 0 && m.cancelled() {
					return
				}
				st.Sup[e] = intersectSupport(st.Items(int32(e)), lists, &scratches[w])
			}
		}(w, lo, hi)
	}
	wg.Wait()
}

// countBitmap counts by AND-ing per-item bit vectors over the distinct
// weighted rows of the level, fanning candidate ranges out to
// cfg.workers() goroutines. The per-level index comes from the engine's
// dataset cache, built on first use by any run.
func (m *miner) countBitmap(c *cell) {
	ix := m.bitmapIndexes(c.h)[0]
	st := c.store
	n := st.Len()
	workers := m.cfg.workers()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	ops := make([]int64, workers)
	scratches := m.sc.vecsFor(workers, c.k)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			scratch := scratches[w]
			var local int64
			for e := lo; e < hi; e++ {
				if e&cancelCheckMask == 0 && m.cancelled() {
					break
				}
				sup, n := ix.SupportInto(st.Items(int32(e)), scratch)
				st.Sup[e] = sup
				local += n
			}
			ops[w] = local
		}(w, lo, hi)
	}
	wg.Wait()
	for _, n := range ops {
		m.stats.BitmapWordOps += n
	}
}

// bitmapIndexes returns every shard's bitmap index of a level (one when
// unsharded), built over the shard's rows — row r at bit r — on first use
// by any run of the engine, a bounded worker pool over the shards, and
// cached in the dataset state. Stats.BitmapBuilds follows the run's logical
// flags: the first use per level per run counts one build per shard, cached
// or not.
func (m *miner) bitmapIndexes(h int) []*bitmap.Index {
	ds := m.ds
	ds.mu.Lock()
	ixs := ds.bitmaps[h]
	if ixs == nil {
		ixs = make([]*bitmap.Index, len(ds.levels))
		txdb.ForEachShard(m.shardWorkers(len(ixs)), len(ixs), func(_, s int) {
			lv := ds.levels[s][h]
			rows := make([]itemset.Set, lv.Rows())
			for r := range rows {
				rows[r] = lv.Row(r)
			}
			ixs[s] = bitmap.Build(rows, lv.Weights)
		})
		ds.bitmaps[h] = ixs
	}
	ds.mu.Unlock()
	if !m.bmBuilt[h] {
		m.bmBuilt[h] = true
		m.stats.BitmapBuilds += int64(len(ixs))
	}
	return ixs
}

// tidLists returns every shard's per-item transaction-ID lists of a level
// (one map when unsharded), built on first use by any run of the engine —
// each shard's transactions walked in order through its row index, a
// bounded worker pool over the shards — and cached in the dataset state.
func (m *miner) tidLists(h int) []map[itemset.ID][]int32 {
	ds := m.ds
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.tid[h] != nil {
		return ds.tid[h]
	}
	lists := make([]map[itemset.ID][]int32, len(ds.levels))
	txdb.ForEachShard(m.shardWorkers(len(lists)), len(lists), func(_, s int) {
		lv := ds.levels[s][h]
		l := make(map[itemset.ID][]int32)
		for t, r := range lv.RowOf {
			for _, id := range lv.Row(int(r)) {
				l[id] = append(l[id], int32(t))
			}
		}
		lists[s] = l
	})
	ds.tid[h] = lists
	return lists
}

// tidScratch is one tid-list worker's reusable state: the two alternating
// intersection targets plus the length-ordered list-of-lists, hoisted out
// of intersectSupport so the per-candidate loop allocates nothing.
type tidScratch struct {
	bufs    [2][]int32
	ordered [][]int32
}

// intersectSupport returns the size of the k-way intersection of the items'
// tid lists, intersecting smallest-first for early exit. The scratch buffers
// alternate as intersection targets so the map-owned lists are never
// written to.
func intersectSupport(items itemset.Set, lists map[itemset.ID][]int32, s *tidScratch) int64 {
	ordered := s.ordered[:0]
	for _, id := range items {
		l := lists[id]
		if len(l) == 0 {
			return 0
		}
		ordered = append(ordered, l)
	}
	s.ordered = ordered // retain the (possibly regrown) backing array
	// Selection sort by length; k is tiny.
	for i := range ordered {
		min := i
		for j := i + 1; j < len(ordered); j++ {
			if len(ordered[j]) < len(ordered[min]) {
				min = j
			}
		}
		ordered[i], ordered[min] = ordered[min], ordered[i]
	}
	cur := ordered[0] // borrowed from the map; read-only
	for step, next := range ordered[1:] {
		dst := s.bufs[step%2][:0]
		i, j := 0, 0
		for i < len(cur) && j < len(next) {
			switch {
			case cur[i] < next[j]:
				i++
			case cur[i] > next[j]:
				j++
			default:
				dst = append(dst, cur[i])
				i++
				j++
			}
		}
		s.bufs[step%2] = dst
		cur = dst
		if len(cur) == 0 {
			return 0
		}
	}
	return int64(len(cur))
}
