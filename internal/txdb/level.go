package txdb

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
)

// The level build: a pass over a source generalizes every transaction to a
// taxonomy level in a reused scratch buffer and interns it in that level's
// row table, so generalizing N transactions to H levels allocates per
// distinct generalized transaction, not per transaction and level.
// Generalization collapses many raw transactions onto few distinct ones at
// the upper levels, which is why the table pays: the scan counter, the
// subset tables and anchored search's bitmap indexes all work on the
// distinct rows.

// Level is one abstraction level of a transaction source: every
// transaction's items replaced by their level-h taxonomy ancestors (items
// without one dropped) and identical generalized transactions stored once,
// as a weighted row.
//
// The rows sit back to back in one arena in lexicographic itemset order —
// the order Dedup returns — with row r at Items[Starts[r]:Starts[r+1]].
// The order is fixed, not incidental: bitmap vectors put row r at bit r, so
// it decides which words anchored search touches and the word-op counts
// reported in Stats.
type Level struct {
	Items   []itemset.ID
	Starts  []int32 // len Rows()+1
	Weights []int64 // Weights[r] is how many transactions generalize to row r
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

// BuildLevels builds levels 1..H of every shard under tree and returns them
// by shard and level (levels[s][h], index 0 unused), running its units on
// up to `workers` goroutines (ForEachShard). An in-memory shard (*DB) is
// one unit per level, each its own pass over the shard; any other source is
// one unit that builds all of its levels in a single pass, so a
// disk-resident shard is read once. Leaf levels go first: they hold the
// most distinct rows and cost the most, so the longest units start
// earliest. Units intern in parallel, but a level's finish — the sort and
// the arena copy, when the old arena, the new one and the sort keys are all
// live — takes a lock shared by the build, so at most one finish runs at a
// time and the build's peak memory stays that of the serial build.
func BuildLevels(shards []Source, tree *taxonomy.Tree, workers int) ([][]*Level, error) {
	H := tree.Height()
	type unit struct{ s, h int } // h = 0: every level in one pass
	var units []unit
	for s, src := range shards {
		if _, ok := src.(*DB); !ok {
			units = append(units, unit{s, 0})
		}
	}
	for h := H; h >= 1; h-- {
		for s, src := range shards {
			if _, ok := src.(*DB); ok {
				units = append(units, unit{s, h})
			}
		}
	}
	levels := make([][]*Level, len(shards))
	for s := range levels {
		levels[s] = make([]*Level, H+1)
	}
	errs := make([]error, len(units))
	var finish sync.Mutex
	ForEachShard(workers, len(units), func(_, i int) {
		u := units[i]
		lo, hi := u.h, u.h
		if u.h == 0 {
			lo, hi = 1, H
		}
		errs[i] = buildLevels(shards[u.s], tree, lo, hi, &finish, levels[u.s])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return levels, nil
}

// buildLevels builds levels lo..hi of src in one pass into levels[lo..hi],
// finishing each under the finish lock.
func buildLevels(src Source, tree *taxonomy.Tree, lo, hi int, finish *sync.Mutex, levels []*Level) error {
	tables := make([]*rowTable, hi+1)
	for h := lo; h <= hi; h++ {
		tables[h] = newRowTable()
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
		return err
	}
	// Interning is over: free every table's slots before any sort allocates.
	for h := lo; h <= hi; h++ {
		tables[h].slots = nil
	}
	for h := lo; h <= hi; h++ {
		l, _ := tables[h].finishLocked(finish)
		tables[h] = nil // the table's arena is garbage once its level is out
		l.Support, l.MaxWidth = supports(l)
		levels[h] = l
	}
	return nil
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
// open-addressing hash table over an arena of distinct rows. The arena is a
// list of chunks that never move: a row that does not fit in the last chunk
// starts a new one, so the arena grows without copying what it holds. (A
// slice grown by append allocates about five times its final size on the
// way, and parallel level units would pay that for several levels at once.)
// Each slot keeps its row's hash, so a probe compares items only on a hash
// match and growing rehashes without reading the arena.
type rowTable struct {
	chunks  [][]itemset.ID // distinct rows back to back in first-seen order; no row spans two chunks
	starts  []int64        // row r starts in chunk starts[r]>>32 at offset uint32(starts[r]); starts[Rows] marks the end
	items   int            // items over all rows
	weights []int64
	slots   []rowSlot // power-of-two length, at most half full
}

type rowSlot struct {
	hash uint32
	row  int32 // row index + 1; 0 marks an empty slot
}

// arenaChunk is the most items a row table's arena chunk holds (256 KiB),
// unless one row needs more. Chunks grow to it from 64 items, each about
// the size of the arena so far.
const arenaChunk = 1 << 16

// newRowTable returns an empty table.
func newRowTable() *rowTable {
	return &rowTable{chunks: [][]itemset.ID{nil}, starts: []int64{0}, slots: make([]rowSlot, 64)}
}

func (t *rowTable) row(r int32) itemset.Set {
	lo, hi := t.starts[r], t.starts[r+1]
	c := t.chunks[lo>>32]
	end := len(c) // the last row of its chunk
	if hi>>32 == lo>>32 {
		end = int(uint32(hi))
	}
	return c[uint32(lo):end]
}

// add interns one canonical transaction and returns its row, numbered in
// first-seen order.
func (t *rowTable) add(tx itemset.Set) int32 {
	h := hashRow(tx)
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.row == 0 {
			r := int32(len(t.weights))
			c := len(t.chunks) - 1
			if len(t.chunks[c])+len(tx) > cap(t.chunks[c]) {
				t.chunks = append(t.chunks, make([]itemset.ID, 0, max(len(tx), min(arenaChunk, t.items+64))))
				c++
				t.starts[r] = int64(c) << 32
			}
			t.chunks[c] = append(t.chunks[c], tx...)
			t.items += len(tx)
			t.starts = append(t.starts, int64(c)<<32|int64(len(t.chunks[c])))
			t.weights = append(t.weights, 1)
			t.slots[i] = rowSlot{hash: h, row: r + 1}
			if 2*len(t.weights) > len(t.slots) {
				t.grow()
			}
			return r
		}
		if s.hash == h && t.row(s.row-1).Equal(tx) {
			t.weights[s.row-1]++
			return s.row - 1
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

// finishLocked is finish under lock mu, released however finish returns.
func (t *rowTable) finishLocked(mu *sync.Mutex) (*Level, []sortKey) {
	mu.Lock()
	defer mu.Unlock()
	return t.finish()
}

// finish sorts the distinct rows into lexicographic itemset order and emits
// them as a Level, with order[i].row the first-seen number of its row i.
// Rows are distinct, so the order is total and the same whatever order the
// scan first met them in.
func (t *rowTable) finish() (l *Level, order []sortKey) {
	n := len(t.weights)
	l = &Level{
		Items:   make([]itemset.ID, 0, t.items),
		Starts:  make([]int32, 1, n+1),
		Weights: make([]int64, n),
	}
	order = t.sortRows()
	for i, o := range order {
		l.Items = append(l.Items, t.row(o.row)...)
		l.Starts = append(l.Starts, int32(len(l.Items)))
		l.Weights[i] = t.weights[o.row]
	}
	return l, order
}

// sortRows returns the rows in lexicographic itemset order. Each row gets
// its leading items packed into one word, the words go through an LSD radix
// sort, and only rows whose packed items all tie are then ordered by
// comparing the rows themselves.
func (t *rowTable) sortRows() []sortKey {
	pk := newPrefixKeys(t.chunks)
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

func newPrefixKeys(chunks [][]itemset.ID) prefixKeys {
	lo, hi := itemset.ID(math.MaxInt32), itemset.ID(math.MinInt32)
	for _, c := range chunks {
		for _, id := range c {
			lo, hi = min(lo, id), max(hi, id)
		}
	}
	if lo > hi {
		return prefixKeys{}
	}
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
