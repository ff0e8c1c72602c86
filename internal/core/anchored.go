package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/flipper-mining/flipper/internal/bitmap"
	"github.com/flipper-mining/flipper/internal/itemset"
)

// Anchored top-K search: given one taxonomy item X (the anchor), find the
// AnchorTopK flipping patterns whose generalization chain passes through X,
// ranked by descending flip gap. Instead of mining the full pattern set and
// filtering, the search enumerates only chains through X and counts every
// candidate exactly. A branch is cut only on exact knowledge — an infrequent
// set, a label that cannot continue the flip, or a gap strictly below the
// current K-th best — so the answer is exactly what filtering and ranking
// the full exact mine returns.
//
// Counting is vertical, in two regimes. Root pairs {root, x} and every
// descent candidate (levels ≥ 2) count on the level's cached bitmap index
// (bitmap.Index.SupportInto per shard). Root sets of three or more count on a
// conditional index, built once per query when the first such set is
// counted: the level-1 rows that hold the anchor's root (FP-growth's
// conditional database — every root set contains the root, so no other row
// can add to its support), their weights, and one vector per frequent root
// over just those rows. The search carries each frequent set's AND down its
// recursion (Eclat's carried intersection), so every deeper root set costs
// one bitmap.AndSupport over the conditional rows.

// ErrUnknownAnchor reports an anchored run whose Config.Anchor names no item
// in the taxonomy.
var ErrUnknownAnchor = errors.New("core: unknown anchor item")

// mineAnchored runs anchored top-K search. Runs over in-memory levels use
// the anchored DFS; a streamed source has no levels to index, so its runs
// fall back to the exact full mine plus a chain filter.
func (m *miner) mineAnchored() ([]Pattern, error) {
	anchor, ok := m.tax.Dict().Lookup(m.cfg.Anchor)
	if !ok || !m.tax.Contains(anchor) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAnchor, m.cfg.Anchor)
	}
	la := m.tax.LevelOf(anchor)
	topK := m.cfg.AnchorTopK

	if m.ds.stream {
		var pats []Pattern
		if m.cfg.Pruning == Basic {
			pats = m.mineBasic()
		} else {
			// Vertical gating alone is complete (see childCell); TPG and
			// SIBP can drop patterns the DFS returns when a gated cell is
			// empty, so the fallback stops at Flipping.
			m.cfg.Pruning = Flipping
			pats = m.mineFlipper()
		}
		var kept []Pattern
		for _, p := range pats {
			if p.Chain[la-1].Items.Contains(anchor) {
				kept = append(kept, p)
			}
		}
		return rankAnchored(kept, topK), nil
	}

	a := &anchoredSearch{
		m:      m,
		anchor: anchor,
		root:   m.tax.RootOf(anchor),
		la:     la,
		topK:   topK,
		sc:     &m.sc.anchored,
	}
	a.run()
	return rankAnchored(a.patterns, topK), nil
}

// index returns shard s's bitmap index of level h, built over the shard's
// rows — row r at bit r — on first use by any run of the engine and cached.
// Only anchored search counts on these indexes; a mine counts by scan.
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

// lazyIndex is one shard's bitmap index of one level, built on first use.
type lazyIndex struct {
	once sync.Once
	ix   *bitmap.Index
}

// noteBitmaps accounts the run's use of level h's bitmap indexes: the first
// use per level per run counts one build per shard, whether or not the
// engine's cache already held them, so a warm run reports what a cold one
// does.
func (m *miner) noteBitmaps(h int) {
	if !m.bmBuilt[h] {
		m.bmBuilt[h] = true
		m.stats.BitmapBuilds += int64(len(m.ds.shards))
	}
}

// rankAnchored orders patterns by descending gap and keeps the top K.
func rankAnchored(pats []Pattern, topK int) []Pattern {
	sortPatternsByGap(pats)
	if len(pats) > topK {
		pats = pats[:topK]
	}
	return pats
}

// anchoredSearch is the state of one anchored DFS.
type anchoredSearch struct {
	m      *miner
	anchor itemset.ID
	root   itemset.ID // the anchor's level-1 root, present in every chain
	la     int        // the anchor's own taxonomy level
	topK   int

	sc    *anchoredScratch
	words int // words per conditional vector; -1 until built

	path     []LevelInfo // chain of the current DFS branch, levels 1..h
	patterns []Pattern
	gaps     []float64 // collected gaps, descending, capped at topK
}

// anchoredScratch is the memory of anchored search, kept in the run scratch
// so that later runs reuse it and a warm query allocates nothing per row or
// per counted root set.
type anchoredScratch struct {
	others []itemset.ID    // the frequent roots other than the anchor's root, ascending
	sets   [][]itemset.ID  // sets[k]: the root set of size k being counted
	vecs   []bitmap.Vector // vector headers for counts on a cached index

	// The conditional index: cond holds others[i]'s vector at
	// [i·words, (i+1)·words), and and holds the carried AND of the root set
	// of size k at [k·words, (k+1)·words).
	cond    []uint64
	and     []uint64
	weights []int64       // conditional row weights
	heavy   bitmap.Vector // conditional rows whose weight is not 1
	slot    []int32       // build scratch: item → 1 + its index in others
	block   []uint64      // build scratch: 64 rows' words, one per frequent root
}

// run enumerates every chain through the anchor: level-1 root sets
// containing the anchor's root, then vertical descent with the anchor
// position locked to the anchor's ancestor path and subtree.
func (a *anchoredSearch) run() {
	m := a.m
	if !m.frequent(1, a.root) {
		return // the anchor's own root is infrequent; no chain can exist
	}
	isRoot := func(id itemset.ID) bool { return id == a.root }
	a.sc.others, a.words = slices.DeleteFunc(m.appendFrequent(a.sc.others[:0], 1), isRoot), -1
	a.sc.vecs = growTo(a.sc.vecs, m.maxK)
	a.extend(itemset.Set{a.root}, 0, nil)
}

// extend grows the level-1 root set cur (always containing the anchor's
// root) by roots from a.sc.others[idx:] in increasing ID order, so every
// superset is enumerated exactly once. Frequency is anti-monotone within a
// level: an infrequent extension closes that whole branch. Frequent sets
// keep extending regardless of label; labeled ones additionally start a
// chain and descend.
//
// Pairs count on the cached level-1 index. Larger sets count on the
// conditional index: prefix is the AND of cur's roots other than the
// anchor's over the conditional rows — nil when cur is the pair {root,
// a.sc.others[idx-1]}, whose prefix is that root's conditional vector — and
// each extension ANDs one more vector into the buffer of its size, which
// its own extensions then carry.
func (a *anchoredSearch) extend(cur itemset.Set, idx int, prefix bitmap.Vector) {
	m := a.m
	k := len(cur) + 1
	if k > m.maxK {
		return
	}
	for i := idx; i < len(a.sc.others); i++ {
		if m.cancelled() {
			return
		}
		cand := a.setOf(cur, a.sc.others[i])
		var sup int64
		var and bitmap.Vector
		if k == 2 {
			sup = a.exactSupport(cand, 1)
		} else {
			if prefix == nil {
				prefix = a.condVec(idx - 1)
			}
			and = a.sc.and[k*a.words : (k+1)*a.words]
			sup = a.condSupport(and, prefix, a.condVec(i))
		}
		if sup < m.minSup[1] {
			continue
		}
		if corr, label := m.label(cand, sup, 1); label.Labeled() {
			a.path = append(a.path, LevelInfo{Level: 1, Items: cand.Clone(), Support: sup, Corr: corr, Label: label})
			if m.height == 1 {
				a.emit()
			} else {
				a.descend(cand, cand.IndexOf(a.root), 1, corr, label, math.Inf(1))
			}
			a.path = a.path[:len(a.path)-1]
		}
		a.extend(cand, i+1, and)
	}
}

// setOf writes cur with id inserted, in canonical order, into the buffer of
// its size and returns it. The buffer is overwritten by the next set of
// that size; clone it to keep it.
func (a *anchoredSearch) setOf(cur itemset.Set, id itemset.ID) itemset.Set {
	k := len(cur) + 1
	for len(a.sc.sets) <= k {
		a.sc.sets = append(a.sc.sets, nil)
	}
	if cap(a.sc.sets[k]) < k {
		a.sc.sets[k] = make([]itemset.ID, k)
	}
	out := a.sc.sets[k][:k]
	i := 0
	for i < len(cur) && cur[i] < id {
		i++
	}
	copy(out, cur[:i])
	out[i] = id
	copy(out[i+1:], cur[i:])
	return out
}

// buildCond builds the query's conditional index (see the file comment):
// the rows set in the root's cached level-1 vector of every shard, in shard
// order and then row order, with their weights, a heavy-row vector, and
// every frequent root's vector over those rows. It is query scratch, not a
// cached index: Stats.BitmapBuilds does not count it and it charges no word
// operations.
//
// The vectors fill row by row from the level's row arena. A row's items go
// to a block of one word per frequent root, which collects the current 64
// conditional rows and is flushed into the vectors when full, so the
// scattered row reads write to one cache-resident block.
func (a *anchoredSearch) buildCond() {
	m, sc := a.m, a.sc
	others := sc.others
	n := 0
	for s := range m.ds.shards {
		if rv, ok := m.ds.index(1, s).ItemVector(a.root); ok {
			n += rv.Count()
		}
	}
	words := bitmap.Words(n)
	a.words = words
	sc.weights = growTo(sc.weights, n)
	sc.heavy = growTo(sc.heavy, words)
	clear(sc.heavy)
	sc.cond = growTo(sc.cond, len(others)*words) // every word is flushed below
	sc.and = growTo(sc.and, (m.maxK+1)*words)
	// slot[id] is 1 + the index in others of a frequent root, and 0 for
	// any other item below the largest; block[0] absorbs those. The entries
	// are zeroed again at the end, so the table is all-zero between builds.
	sc.slot = growTo(sc.slot, int(others[len(others)-1])+1)
	for i, x := range others {
		sc.slot[x] = int32(i + 1)
	}
	sc.block = growTo(sc.block, len(others)+1)
	clear(sc.block)
	slot, block, cond, weights, heavy := sc.slot, sc.block, sc.cond, sc.weights, sc.heavy
	flush := func(at int) {
		for i, word := range block[1:] {
			cond[i*words+at] = word
		}
		clear(block)
	}
	j := 0 // the conditional row being filled
	for s := range m.ds.shards {
		rv, ok := m.ds.index(1, s).ItemVector(a.root)
		if !ok {
			continue
		}
		lv := m.ds.levels[s][1]
		for w, word := range rv {
			for ; word != 0; word &= word - 1 {
				r := w<<6 + bits.TrailingZeros64(word)
				if weights[j] = lv.Weights[r]; weights[j] != 1 {
					heavy.Set(j)
				}
				bit := uint64(1) << (j & 63)
				for _, id := range lv.Row(r) {
					if int(id) < len(slot) {
						block[slot[id]] |= bit
					}
				}
				if j++; j&63 == 0 {
					flush(j>>6 - 1)
				}
			}
		}
	}
	if j&63 != 0 {
		flush(j >> 6)
	}
	for _, x := range others {
		slot[x] = 0
	}
}

// condVec returns a.sc.others[i]'s vector over the conditional rows,
// building the conditional index on first use.
func (a *anchoredSearch) condVec(i int) bitmap.Vector {
	if a.words < 0 {
		a.buildCond()
	}
	return a.sc.cond[i*a.words : (i+1)*a.words]
}

// condSupport counts a root set of three or more on the conditional index:
// the AND of its carried prefix and its newest root's vector, written into
// dst, weighted. Counted and accounted as exactSupport accounts a set.
func (a *anchoredSearch) condSupport(dst, prefix, vec bitmap.Vector) int64 {
	m := a.m
	m.stats.CandidatesCounted++
	m.noteBitmaps(1)
	sup, ops := bitmap.AndSupport(dst, prefix, vec, a.sc.heavy, a.sc.weights)
	m.stats.BitmapWordOps += ops
	return sup
}

// growTo returns s resliced to length n, reallocated if its capacity is
// short; the contents are unspecified.
func growTo[T ~[]E, E any](s T, n int) T {
	if cap(s) < n {
		return make(T, n)
	}
	return s[:n]
}

// descend expands an alive itemset at level h into its level-(h+1)
// candidates: the anchor position follows the anchor's ancestor path while
// above the anchor's level and its subtree below it; every other position
// fans out over taxonomy children. Options are pre-filtered by
// level-(h+1) single-item frequency (members of a frequent set are
// themselves frequent), so the cartesian product only enumerates viable
// combinations.
func (a *anchoredSearch) descend(items itemset.Set, anchorIdx, h int, corrPrev float64, labelPrev Label, gapSoFar float64) {
	m := a.m
	next := h + 1
	opts := make([][]itemset.ID, len(items))
	for i, id := range items {
		var cands []itemset.ID
		if i == anchorIdx && next <= a.la {
			if anc, ok := m.tax.AncestorAt(a.anchor, next); ok {
				cands = []itemset.ID{anc}
			}
		} else {
			cands = m.tax.ChildrenAt(id)
		}
		var keep []itemset.ID
		for _, c := range cands {
			if m.frequent(next, c) {
				keep = append(keep, c)
			}
		}
		if len(keep) == 0 {
			return
		}
		opts[i] = keep
	}
	combo := make([]itemset.ID, len(items))
	var walk func(pos int)
	walk = func(pos int) {
		if pos == len(items) {
			cand := itemset.New(combo...)
			a.visit(cand, cand.IndexOf(combo[anchorIdx]), next, corrPrev, labelPrev, gapSoFar)
			return
		}
		for _, c := range opts[pos] {
			combo[pos] = c
			walk(pos + 1)
		}
	}
	walk(0)
}

// visit judges one descent candidate at level h: exact count, frequency,
// the label the flip requires, the top-K gap floor, then recursion.
func (a *anchoredSearch) visit(cand itemset.Set, anchorIdx, h int, corrPrev float64, labelPrev Label, gapSoFar float64) {
	m := a.m
	if m.cancelled() {
		return
	}
	sup := a.exactSupport(cand, h)
	if sup < m.minSup[h] {
		return
	}
	corr, label := m.label(cand, sup, h)
	if !label.Flips(labelPrev) {
		return
	}
	gap := corr - corrPrev
	if gap < 0 {
		gap = -gap
	}
	if gap > gapSoFar {
		gap = gapSoFar
	}
	// Deeper transitions only shrink the running gap, so a chain strictly
	// below the top-K floor cannot recover (ties keep going — the floor
	// pattern could lose the leaf-key tiebreak).
	if g, full := a.gapFloor(); full && gap < g {
		return
	}
	a.path = append(a.path, LevelInfo{Level: h, Items: cand, Support: sup, Corr: corr, Label: label})
	if h == m.height {
		a.emit()
	} else {
		a.descend(cand, anchorIdx, h, corr, label, gap)
	}
	a.path = a.path[:len(a.path)-1]
}

// emit turns the current DFS path into a Pattern and records its gap.
func (a *anchoredSearch) emit() {
	chain := make([]LevelInfo, len(a.path))
	copy(chain, a.path)
	p := Pattern{Leaf: chain[len(chain)-1].Items, Chain: chain}
	p.computeGap()
	a.patterns = append(a.patterns, p)
	a.noteGap(p.Gap)
}

// exactSupport counts a candidate's support: an AND+popcount over the
// level's cached bitmap index, summed over shards when the representation
// is sharded, with the index builds accounted by noteBitmaps.
func (a *anchoredSearch) exactSupport(items itemset.Set, h int) int64 {
	m := a.m
	m.stats.CandidatesCounted++
	m.noteBitmaps(h)
	var sup int64
	for s := range m.ds.shards {
		n, ops := m.ds.index(h, s).SupportInto(items, a.sc.vecs)
		sup += n
		m.stats.BitmapWordOps += ops
	}
	return sup
}

// gapFloor returns the current K-th best collected gap, and whether K
// patterns have been collected at all (no floor exists before that).
func (a *anchoredSearch) gapFloor() (float64, bool) {
	if len(a.gaps) < a.topK {
		return 0, false
	}
	return a.gaps[len(a.gaps)-1], true
}

// noteGap inserts a collected gap into the descending top-K gap list.
func (a *anchoredSearch) noteGap(g float64) {
	i := len(a.gaps)
	a.gaps = append(a.gaps, g)
	for i > 0 && a.gaps[i-1] < g {
		a.gaps[i] = a.gaps[i-1]
		i--
	}
	a.gaps[i] = g
	if len(a.gaps) > a.topK {
		a.gaps = a.gaps[:a.topK]
	}
}
