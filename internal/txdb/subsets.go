package txdb

import (
	"slices"

	"github.com/flipper-mining/flipper/internal/itemset"
)

// SubsetTable holds the k-subset supports of one level, for k = 2 or 3: for
// every k of the level's items, their weighted support. Items are ranked in
// ID order, and the subset of ranks r1 < … < rk sits at slot C(r1,1) + … +
// C(rk,k) of one array — the combinatorial number system, which puts the
// pair i < j at j(j−1)/2 + i and the triple i < j < l at C(l,3) + C(j,2) +
// i — so a lookup is k rank reads and one load, and the build adds a row's
// weight to one slot per k-subset of the row, with no branch. The table
// depends on the level alone, so a resident engine can build it once and
// read it for every later count.
type SubsetTable struct {
	lo    itemset.ID // the level's smallest item
	rank  []int16    // rank[id-lo] is id's rank among the level's items, or -1
	slots []int64    // ranks r1 < … < rk at Σ C(rm, m): the weighted support
}

// MaxTableK is the largest k a table covers; the smallest is 2.
const MaxTableK = 3

// maxTableSlots is the most slots a table may hold: 2^17 eight-byte words
// (1 MiB). It covers levels of up to 512 items for pairs (C(512,2) =
// 130,816 slots) and up to 93 for triples (C(93,3) = 129,766).
const maxTableSlots = 1 << 17

// NewSubsetTable builds the k-subset table of l, 2 ≤ k ≤ MaxTableK, in one
// pass over its rows, or returns nil when k is out of that range or l is
// over the cap of maxTableSlots k-subsets of its items. l.Support must name
// every item of its rows, as BuildLevels leaves it. Beside the slots, the
// table keeps a 2-byte rank for every ID from the level's smallest item to
// its largest.
func NewSubsetTable(l *Level, k int) *SubsetTable {
	n := len(l.Support)
	if k < 2 || k > MaxTableK || itemset.Binomial(n, k) > maxTableSlots {
		return nil
	}
	ids := make([]itemset.ID, 0, n)
	for id := range l.Support {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	t := &SubsetTable{slots: make([]int64, itemset.Binomial(n, k))}
	if n > 0 {
		t.lo = ids[0]
		t.rank = make([]int16, ids[n-1]-ids[0]+1)
		for i := range t.rank {
			t.rank[i] = -1
		}
		for r, id := range ids {
			t.rank[id-t.lo] = int16(r)
		}
	}
	ranks := make([]int32, 0, l.MaxWidth)
	for r, w := range l.Weights {
		ranks = ranks[:0]
		for _, id := range l.Row(r) {
			ranks = append(ranks, int32(t.rank[id-t.lo]))
		}
		// Rows are canonical, so their ranks ascend.
		t.add(ranks, k, 0, w)
	}
	return t
}

// add adds w to the slot of every m-subset of the ascending ranks r, the
// slots offset by base: each rank that can close a subset picks its block,
// C(rank, m) slots on, and the subsets of the ranks before it fill the
// block. At m = 1 the block is a line of slots indexed by rank.
func (t *SubsetTable) add(r []int32, m, base int, w int64) {
	if m == 1 {
		line := t.slots[base:]
		for _, i := range r {
			line[i] += w
		}
		return
	}
	for b := m - 1; b < len(r); b++ {
		t.add(r[:b], m-1, base+choose(int(r[b]), m), w)
	}
}

// choose returns C(x, m) for m = 1, 2, 3: the offset rank x contributes at
// position m of a subset. It is itemset.Binomial without the general loop,
// which would cost more than the slot add it indexes.
func choose(x, m int) int {
	switch m {
	case 1:
		return x
	case 2:
		return x * (x - 1) / 2
	}
	return x * (x - 1) * (x - 2) / 6
}

// Rank returns id's rank among the level's items in ID order, or -1 when id
// is not an item of the level — an ID no row holds, or one below or above
// every item.
func (t *SubsetTable) Rank(id itemset.ID) int {
	off := uint(int(id) - int(t.lo))
	if off >= uint(len(t.rank)) {
		return -1
	}
	return int(t.rank[off])
}

// At returns the weighted support of the k items whose ranks ascend in r.
func (t *SubsetTable) At(r []int32) int64 {
	s := int(r[0]) + choose(int(r[1]), 2)
	if len(r) == 3 {
		s += choose(int(r[2]), 3)
	}
	return t.slots[s]
}
