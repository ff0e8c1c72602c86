package txdb

import (
	"math"
	"slices"

	"github.com/flipper-mining/flipper/internal/itemset"
)

// PairTable holds the pair supports of one level: for every pair of the
// level's items, the pair's weighted support and the number of distinct rows
// that hold both. Items are ranked in ID order, and the pair of ranks
// i < j sits at slot j(j−1)/2 + i of one triangular array, so a lookup is
// two rank reads and one load. A slot packs the weighted support into its
// high 32 bits and the row count into its low 32, so the build adds one word
// per pair of each row, with no branch.
//
// A k = 2 count over the level needs nothing else: the supports are slot
// reads, and summed row counts give what a pass over the rows would tally,
// such as how many pairs of some chosen items the rows hold in all. The
// table depends on the level alone, so a resident engine can build it once
// and read it for every later count.
type PairTable struct {
	n     int        // the level's items
	lo    itemset.ID // the level's smallest item
	rank  []int16    // rank[id-lo] is id's rank among the level's items, or -1
	slots []uint64   // pair i < j at j(j-1)/2+i: weighted support<<32 | rows
}

// MaxPairItems is the most items a level may hold for NewPairTable to build
// its table: C(512, 2) = 130,816 slots, within 2^17 eight-byte words
// (1 MiB).
const MaxPairItems = 512

// NewPairTable builds the pair table of l in one pass over its rows, or
// returns nil when l is over the cap: more than MaxPairItems items, or a
// total weight a slot's 32-bit support field cannot hold. l.Support must name
// every item of its rows, as BuildLevels leaves it. Beside the slots, the
// table keeps a 2-byte rank for every ID from the level's smallest item to
// its largest.
func NewPairTable(l *Level) *PairTable {
	n := len(l.Support)
	if n > MaxPairItems {
		return nil
	}
	var total int64
	for _, w := range l.Weights {
		total += w
	}
	if total > math.MaxUint32 {
		return nil
	}
	ids := make([]itemset.ID, 0, n)
	for id := range l.Support {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	t := &PairTable{n: n, slots: make([]uint64, n*(n-1)/2)}
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
	ranks := make([]int, 0, l.MaxWidth)
	for r, w := range l.Weights {
		ranks = ranks[:0]
		for _, id := range l.Row(r) {
			ranks = append(ranks, int(t.rank[id-t.lo]))
		}
		// Rows are canonical, so their ranks ascend: every rank pairs with
		// each rank before it.
		inc := uint64(w)<<32 | 1
		for b, j := range ranks {
			line := t.slots[j*(j-1)/2:]
			for _, i := range ranks[:b] {
				line[i] += inc
			}
		}
	}
	return t
}

// Len returns the number of items of the level; ranks run from 0 to Len()-1.
func (t *PairTable) Len() int { return t.n }

// Rank returns id's rank among the level's items in ID order, or -1 when id
// is not an item of the level — an ID no row holds, or one below or above
// every item.
func (t *PairTable) Rank(id itemset.ID) int {
	off := uint(int(id) - int(t.lo))
	if off >= uint(len(t.rank)) {
		return -1
	}
	return int(t.rank[off])
}

// Pair returns the weighted support of the items ranked i and j, i < j, and
// the number of distinct rows that hold both.
func (t *PairTable) Pair(i, j int) (sup, rows int64) {
	v := t.slots[j*(j-1)/2+i]
	return int64(v >> 32), int64(v & math.MaxUint32)
}
