package core

import "github.com/flipper-mining/flipper/internal/itemset"

// Single-item based pruning (SIBP), the paper's Section 4.3.2.
//
// Per level h the frequent 1-items by ascending (support, ID) are
// ds.order[h][cut[h]:]. After counting cell Q(h,k), the maximal prefix of
// that list whose items appear in no positive k-itemset forms R_h(k): by
// Corollary 2, every itemset of size > k containing such an item is
// non-positive. When an item sits in R_h(k) while its parent sits in
// R_{h-1}(k), no superset of the item can be part of a flipping pattern —
// two consecutive chain levels would be non-positive — so the item is
// excluded from candidate generation in the remaining columns of row h.
// R_h(k) is kept as its end, rsetEnd[h]. Items the row excluded in earlier
// columns are in no candidate, so they are only skipped as members.

// sibpUpdate computes R_h(k) from a freshly counted cell.
func (m *miner) sibpUpdate(h, k int, c *cell) {
	end, pos := len(m.ds.order[h]), m.ds.pos[h]
	for i := range c.meta {
		if c.meta[i].label != LabelPositive {
			continue
		}
		for _, id := range c.store.Items(int32(i)) {
			end = min(end, int(pos[id]))
		}
	}
	m.rsetEnd[h], m.rsetCol[h] = end, k
}

// inRSet reports whether item id is in level h's most recent R set. An item
// excluded in that set's own column was excluded after the set was taken,
// so it still counts.
func (m *miner) inRSet(h int, id itemset.ID) bool {
	if at := m.excluded[h][id]; at != 0 && int(at) != m.rsetCol[h] {
		return false
	}
	return m.frequent(h, id) && int(m.ds.pos[h][id]) < m.rsetEnd[h]
}

// sibpExclude excludes items of R_h(k) whose parents are in R_{h-1}(k).
// Both R sets must come from the same column; a stale upper set (possible
// when the row above terminated earlier) proves nothing.
func (m *miner) sibpExclude(h, k int) {
	if h < 2 || m.rsetCol[h] != k || m.rsetCol[h-1] != k {
		return
	}
	excl := m.excluded[h]
	for _, id := range m.ds.order[h][m.cut[h]:m.rsetEnd[h]] {
		if excl[id] != 0 {
			continue
		}
		// AncestorAt rather than Parent: under leaf-copy extension a shallow
		// leaf stands in for itself, and its level-(h-1) generalization is
		// the stand-in, not the tree parent.
		p, ok := m.tax.AncestorAt(id, h-1)
		if ok && m.inRSet(h-1, p) {
			excl[id] = int32(k)
			m.stats.SIBPExcludedItems++
		}
	}
}
