package txdb

import (
	"math/bits"
	"slices"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
)

// The level build: one sequential pass over a source generalizes every
// transaction to every taxonomy level in a reused scratch buffer and interns
// it in that level's row table, so generalizing N transactions to H levels
// allocates per distinct generalized transaction, not per transaction and
// level. Generalization collapses many raw transactions onto few distinct
// ones at the upper levels, which is why the table pays: the counting
// backends and the bitmap index both work on the distinct rows.

// Level is one abstraction level of a transaction source: every
// transaction's items replaced by their level-h taxonomy ancestors (items
// without one dropped) and identical generalized transactions stored once,
// as a weighted row.
//
// The rows sit back to back in one arena in lexicographic itemset order —
// the order Dedup returns — with row r at Items[Starts[r]:Starts[r+1]].
// The order is fixed, not incidental: bitmap vectors put row r at bit r, so
// it decides which words the bitmap backend touches and the word-op counts
// reported in Stats.
type Level struct {
	Items   []itemset.ID
	Starts  []int32 // len Rows()+1
	Weights []int64 // Weights[r] is how many transactions generalize to row r
	// RowOf maps every transaction, in scan order, to its row.
	RowOf []int32
	// Support holds the single-item supports of the level.
	Support map[itemset.ID]int64
	// MaxWidth is the widest row, bounding the itemset size worth exploring
	// at this level.
	MaxWidth int
}

// Rows returns the number of distinct generalized transactions.
func (l *Level) Rows() int { return len(l.Weights) }

// Row returns row r, capped so that an append never writes into the next
// row. The row is owned by the level — read only.
func (l *Level) Row(r int) itemset.Set {
	lo, hi := l.Starts[r], l.Starts[r+1]
	return itemset.Set(l.Items[lo:hi:hi])
}

// BuildLevels scans src once and returns all of its levels under tree,
// indexed by level (index 0 unused).
func BuildLevels(src Source, tree *taxonomy.Tree) ([]*Level, error) {
	return buildLevels(src, tree, 1, tree.Height())
}

// buildLevels builds levels lo..hi of src in one pass.
func buildLevels(src Source, tree *taxonomy.Tree, lo, hi int) ([]*Level, error) {
	tables := make([]*rowTable, hi+1)
	for h := lo; h <= hi; h++ {
		tables[h] = newRowTable(src.Len())
	}
	var buf []itemset.ID
	err := src.Scan(func(tx itemset.Set) error {
		for h := lo; h <= hi; h++ {
			buf = tree.AppendAncestors(buf[:0], tx, h)
			tables[h].add(itemset.Canon(buf))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Interning is over: free every table's slots before any sort allocates.
	for h := lo; h <= hi; h++ {
		tables[h].slots = nil
	}
	levels := make([]*Level, hi+1)
	for h := lo; h <= hi; h++ {
		l := tables[h].finish()
		tables[h] = nil // the table's arena is garbage once its level is out
		l.Support, l.MaxWidth = supports(l)
		levels[h] = l
	}
	return levels, nil
}

// supports sums every item's weight over the rows holding it and finds the
// widest row. Items are taxonomy node IDs, dense from zero, so the sums go
// through a slice before landing in the map.
func supports(l *Level) (map[itemset.ID]int64, int) {
	maxID := itemset.ID(-1)
	for _, id := range l.Items {
		maxID = max(maxID, id)
	}
	dense := make([]int64, maxID+1)
	width := 0
	for r, w := range l.Weights {
		row := l.Row(r)
		width = max(width, len(row))
		for _, id := range row {
			dense[id] += w
		}
	}
	sup := make(map[itemset.ID]int64)
	for id, s := range dense {
		if s > 0 {
			sup[itemset.ID(id)] = s
		}
	}
	return sup, width
}

// rowTable interns the generalized transactions of one level: an
// open-addressing hash table over a flat arena of distinct rows. Each slot
// keeps its row's hash, so a probe compares items only on a hash match and
// growing rehashes without reading the arena.
type rowTable struct {
	arena   []itemset.ID // distinct rows back to back, in first-seen order
	starts  []int32      // row r is arena[starts[r]:starts[r+1]]
	weights []int64
	rowOf   []int32
	slots   []rowSlot // power-of-two length, at most half full
}

type rowSlot struct {
	hash uint32
	row  int32 // row index + 1; 0 marks an empty slot
}

// newRowTable returns an empty table for a source of n transactions.
func newRowTable(n int) *rowTable {
	return &rowTable{
		starts: []int32{0},
		rowOf:  make([]int32, 0, n),
		slots:  make([]rowSlot, 64),
	}
}

func (t *rowTable) row(r int32) itemset.Set { return t.arena[t.starts[r]:t.starts[r+1]] }

// add interns one canonical transaction and records its row.
func (t *rowTable) add(tx itemset.Set) {
	h := hashRow(tx)
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.row == 0 {
			r := int32(len(t.weights))
			t.arena = append(t.arena, tx...)
			t.starts = append(t.starts, int32(len(t.arena)))
			t.weights = append(t.weights, 1)
			t.rowOf = append(t.rowOf, r)
			t.slots[i] = rowSlot{hash: h, row: r + 1}
			if 2*len(t.weights) > len(t.slots) {
				t.grow()
			}
			return
		}
		if s.hash == h && t.row(s.row-1).Equal(tx) {
			t.weights[s.row-1]++
			t.rowOf = append(t.rowOf, s.row-1)
			return
		}
	}
}

// grow doubles the slot array, placing every row by its kept hash.
func (t *rowTable) grow() {
	slots := make([]rowSlot, 2*len(t.slots))
	mask := uint32(len(slots) - 1)
	for _, s := range t.slots {
		if s.row == 0 {
			continue
		}
		i := s.hash & mask
		for slots[i].row != 0 {
			i = (i + 1) & mask
		}
		slots[i] = s
	}
	t.slots = slots
}

// finish sorts the distinct rows into lexicographic itemset order and emits
// them as a Level with the row index renumbered to match. Rows are
// distinct, so the order is total and the same whatever order the scan
// first met them in.
func (t *rowTable) finish() *Level {
	n := len(t.weights)
	order := t.sortRows()
	l := &Level{
		Items:   make([]itemset.ID, 0, len(t.arena)),
		Starts:  make([]int32, 1, n+1),
		Weights: make([]int64, n),
		RowOf:   t.rowOf,
	}
	rank := make([]int32, n)
	for i, o := range order {
		rank[o.row] = int32(i)
		l.Items = append(l.Items, t.row(o.row)...)
		l.Starts = append(l.Starts, int32(len(l.Items)))
		l.Weights[i] = t.weights[o.row]
	}
	for i, r := range l.RowOf {
		l.RowOf[i] = rank[r]
	}
	return l
}

// sortRows returns the rows in lexicographic itemset order. Each row gets
// its leading items packed into one word, the words go through an LSD radix
// sort, and only rows whose packed items all tie are then ordered by
// comparing the rows themselves.
func (t *rowTable) sortRows() []sortKey {
	pk := newPrefixKeys(t.arena)
	keys := make([]sortKey, len(t.weights))
	for r := range keys {
		keys[r] = sortKey{prefix: pk.key(t.row(int32(r))), row: int32(r)}
	}
	keys = radixSort(keys, pk.bits*pk.n)
	byRow := func(a, b sortKey) int { return itemset.Compare(t.row(a.row), t.row(b.row)) }
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].prefix == keys[lo].prefix {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(keys[lo:hi], byRow)
		}
		lo = hi
	}
	return keys
}

// sortKey is a row with its packed leading items.
type sortKey struct {
	prefix uint64
	row    int32
}

// radixBits is the digit width of radixSort: 2,048 counters fit in L1.
const radixBits = 11

// radixSort sorts keys by the low keyBits bits of their prefix, one stable
// counting pass per digit from the least significant, and returns the
// sorted slice (keys or its scratch twin).
func radixSort(keys []sortKey, keyBits int) []sortKey {
	tmp := make([]sortKey, len(keys))
	var count [1 << radixBits]int32
	for shift := 0; shift < keyBits; shift += radixBits {
		clear(count[:])
		for _, k := range keys {
			count[k.prefix>>shift&(1<<radixBits-1)]++
		}
		var sum int32
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		for _, k := range keys {
			d := k.prefix >> shift & (1<<radixBits - 1)
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// prefixKeys packs a row's leading items into a uint64 that orders rows as
// itemset.Compare does wherever two keys differ: each item becomes its
// offset from the smallest item plus one, in as few bits as the item range
// needs, and a missing item packs as 0, which sorts a row before its
// extensions. Rows that share every packed position tie.
type prefixKeys struct {
	lo   int64 // smallest item
	bits int   // bits per packed item
	n    int   // items packed per key
}

func newPrefixKeys(items []itemset.ID) prefixKeys {
	if len(items) == 0 {
		return prefixKeys{}
	}
	lo, hi := slices.Min(items), slices.Max(items)
	b := bits.Len64(uint64(int64(hi) - int64(lo) + 1))
	return prefixKeys{lo: int64(lo), bits: b, n: 64 / b}
}

func (p prefixKeys) key(row itemset.Set) uint64 {
	var k uint64
	for i := 0; i < p.n; i++ {
		k <<= p.bits
		if i < len(row) {
			k |= uint64(int64(row[i]) - p.lo + 1)
		}
	}
	return k
}

// hashRow hashes a transaction's items: a multiply-xorshift per item and a
// final fold of the high half into the low bits the table indexes by.
func hashRow(tx itemset.Set) uint32 {
	h := uint64(len(tx))
	for _, id := range tx {
		h = (h ^ uint64(uint32(id))) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return uint32(h) ^ uint32(h>>32)
}
