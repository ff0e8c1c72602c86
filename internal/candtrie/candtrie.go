// Package candtrie implements the engine's candidate store: the set of
// k-itemsets whose supports one cell of the search-space table is counting.
//
// The store replaces the former map[string]*entry representation. Entries
// live in a flat slab — one contiguous item arena plus one support slice,
// addressed by dense int32 indexes — and are indexed by a prefix trie over
// item IDs. The trie serves three roles at once:
//
//   - membership: Lookup descends k nodes instead of building a 4k-byte key
//     and hashing it, so Apriori subset checks allocate nothing;
//   - counting: CountTx walks a transaction's items down the trie, so the
//     scan counter only ever explores subsets that share a prefix with some
//     candidate — subsets with no candidate prefix are pruned before they
//     are enumerated, and no key bytes or map probes appear in the inner
//     loop;
//   - determinism: sibling lists are kept sorted by item ID, so Walk visits
//     entries in lexicographic itemset order — the order the old code
//     obtained by sorting the map's key strings on every use.
//
// Insert builds the trie with the classic first-child/next-sibling encoding
// and int32 links into one node slab. Freeze then ranks the cell's R
// distinct candidate items and lays out the trie for counting, in one of two
// layouts chosen by size:
//
//   - dense: every internal node owns a block of R int32 slots, one per
//     rank, holding the child with that item (a block number, or an entry
//     index at the last level) or -1, so the descent finds each child with
//     one load;
//   - CSR: every node's children form one contiguous span sorted by item,
//     which the descent merges against the transaction or binary-searches.
//     It serves the sparse tries whose blocks would not fit the dense cap.
//
// A cell frees its store by dropping the single *Store pointer: slabs are
// released wholesale, with no per-entry cleanup.
package candtrie

import (
	"github.com/flipper-mining/flipper/internal/itemset"
)

// node is one trie node. Links are indexes into Store.nodes; -1 is nil.
// Siblings are sorted ascending by item, which Lookup exploits to stop
// early, Freeze to fill CSR spans in order and Walk to iterate
// lexicographically.
type node struct {
	item  itemset.ID
	child int32 // first child
	next  int32 // next sibling
	entry int32 // entry index for depth-k nodes; -1 above
}

// denseCap bounds the dense layout: Freeze lays out blocks only when the
// rank table plus one R-slot block per internal node fit in this many int32
// slots (1 MiB).
const denseCap = 1 << 18

// Store is the candidate store of one cell: all k-itemsets registered for
// counting, k fixed per store.
type Store struct {
	k     int
	nodes []node       // nodes[0] is the root (item field unused there)
	ids   []itemset.ID // item arena: entry e owns ids[e*k : (e+1)*k]
	Sup   []int64      // per-entry support, filled by the counting backends

	// kids[n] is node n's child count, maintained incrementally by Insert so
	// Freeze can size every CSR span exactly without walking sibling chains
	// twice or regrowing slabs.
	kids []int32

	// rank[id-minID] is id's rank among the distinct candidate items in
	// ascending ID order, or -1 where no candidate holds id; width is the
	// number of ranks, R. The ID bounds are maintained incrementally by
	// Insert, the table is filled by Freeze. Filter consults it to drop
	// transaction items no candidate contains, and the dense descent to find
	// each item's slot.
	rank         []int32
	width        int
	minID, maxID itemset.ID
	frozen       bool

	// dense selects the layout Freeze built. Exactly one is built per
	// Freeze; the other's slabs are truncated but keep their capacity, and
	// every slab is reused across Freeze/Reset cycles.
	dense bool

	// The dense layout: block b is blocks[b*width : (b+1)*width], block 0 is
	// the root. Slot r of a block above depth k-1 holds the block number of
	// the child whose item has rank r; at depth k-1 it holds that child's
	// entry index; -1 where there is no such child.
	blocks []int32

	// The CSR layout: node n's children live at
	// csrItems/csrChild/csrEntry[csrStart[n]:csrStart[n+1]], sorted
	// ascending by item. Span sizes accumulate at Insert time (kids), so
	// building it is one exact-size fill pass. The descent merges each span
	// against the transaction (binary search when the span is much longer),
	// and csrEntry keeps terminal hits from ever touching the node slab.
	csrStart []int32
	csrItems []itemset.ID
	csrChild []int32
	csrEntry []int32
}

// New returns an empty store for k-itemsets.
func New(k int) *Store {
	return &Store{
		k:     k,
		nodes: []node{{child: -1, next: -1, entry: -1}},
		kids:  []int32{0},
		minID: 1, // inverted sentinel range until the first insert
	}
}

// Reset empties the store for reuse with the same k, retaining every slab's
// capacity — node slab, item arena, support slice, rank table and both
// layouts' slabs — and truncating the read side, so nothing an earlier
// Freeze laid out stays reachable. A pooled store that cycles through
// Reset/Insert/Freeze allocates only when a later candidate set outgrows the
// largest one it has held.
func (s *Store) Reset() {
	s.nodes = s.nodes[:1]
	s.nodes[0] = node{child: -1, next: -1, entry: -1}
	s.kids = s.kids[:1]
	s.kids[0] = 0
	s.ids = s.ids[:0]
	s.Sup = s.Sup[:0]
	s.minID, s.maxID = 1, 0
	s.frozen = false
	s.rank, s.width, s.blocks = s.rank[:0], 0, s.blocks[:0]
	s.csrStart, s.csrItems, s.csrChild, s.csrEntry = s.csrStart[:0], s.csrItems[:0], s.csrChild[:0], s.csrEntry[:0]
}

// Len returns the number of entries (registered candidates).
func (s *Store) Len() int { return len(s.Sup) }

// NodeCount returns the number of trie nodes allocated (excluding the root).
func (s *Store) NodeCount() int { return len(s.nodes) - 1 }

// K returns the itemset size the store holds.
func (s *Store) K() int { return s.k }

// Items returns entry e's itemset, aliasing the store's arena. The slice is
// valid for the lifetime of the store and must not be modified.
func (s *Store) Items(e int32) itemset.Set {
	return itemset.Set(s.ids[int(e)*s.k : (int(e)+1)*s.k])
}

// Insert registers a k-itemset and returns its entry index. If the itemset
// is already present, its existing index is returned with added=false.
// Insert must not be called concurrently with any other method.
func (s *Store) Insert(items itemset.Set) (int32, bool) {
	if len(items) != s.k {
		panic("candtrie: itemset size does not match store k")
	}
	s.frozen = false
	n := int32(0)
	for _, id := range items {
		prev := int32(-1)
		c := s.nodes[n].child
		for c != -1 && s.nodes[c].item < id {
			prev, c = c, s.nodes[c].next
		}
		if c == -1 || s.nodes[c].item != id {
			nn := int32(len(s.nodes))
			s.nodes = append(s.nodes, node{item: id, child: -1, next: c, entry: -1})
			s.kids = append(s.kids, 0)
			s.kids[n]++
			if s.minID > s.maxID {
				s.minID, s.maxID = id, id
			} else if id < s.minID {
				s.minID = id
			} else if id > s.maxID {
				s.maxID = id
			}
			if prev == -1 {
				s.nodes[n].child = nn
			} else {
				s.nodes[prev].next = nn
			}
			c = nn
		}
		n = c
	}
	if e := s.nodes[n].entry; e >= 0 {
		return e, false
	}
	e := int32(len(s.Sup))
	s.nodes[n].entry = e
	s.ids = append(s.ids, items...)
	s.Sup = append(s.Sup, 0)
	return e, true
}

// Lookup returns the entry index of items, or -1 when absent.
func (s *Store) Lookup(items itemset.Set) int32 {
	if len(items) != s.k {
		return -1
	}
	n := int32(0)
	for _, id := range items {
		c := s.nodes[n].child
		for c != -1 && s.nodes[c].item < id {
			c = s.nodes[c].next
		}
		if c == -1 || s.nodes[c].item != id {
			return -1
		}
		n = c
	}
	return s.nodes[n].entry
}

// Walk visits every entry in lexicographic itemset order. The itemset passed
// to fn aliases the arena; clone to retain.
func (s *Store) Walk(fn func(e int32, items itemset.Set)) {
	s.walk(0, fn)
}

func (s *Store) walk(n int32, fn func(e int32, items itemset.Set)) {
	for c := s.nodes[n].child; c != -1; c = s.nodes[c].next {
		if e := s.nodes[c].entry; e >= 0 {
			fn(e, s.Items(e))
		} else {
			s.walk(c, fn)
		}
	}
}

// grown returns buf resized to n elements, reusing its backing array when
// the capacity suffices (contents are unspecified; callers overwrite).
func grown(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n)
}

// Freeze builds the read-side indexes: the rank table and one counting
// layout, dense when the rank table plus one block per internal node fit in
// denseCap slots, CSR otherwise. The expensive parts were already paid
// incrementally by Insert — per-node child counts size every span exactly
// and the ID bounds are known — so Freeze is a few fill passes into slabs
// reused across Freeze/Reset cycles, not a stop-the-world rebuild with
// regrowing appends. It must be called after the last Insert and before
// Filter/CountTx are used (possibly from multiple goroutines); all read-side
// methods are then safe for concurrent use.
func (s *Store) Freeze() {
	if !s.frozen {
		s.freeze(denseCap)
	}
}

// freeze is Freeze with the dense cap as a parameter: the layout is dense
// when the rank table plus the blocks fit in limit slots. Tests pass -1 to
// force CSR and a limit above any store's size to force dense.
func (s *Store) freeze(limit int) {
	span := max(int(s.maxID)-int(s.minID)+1, 0) // 0 for the empty store's inverted range
	s.rank = grown(s.rank, span)
	for i := range s.rank {
		s.rank[i] = -1
	}
	for _, n := range s.nodes[1:] {
		s.rank[n.item-s.minID] = 0
	}
	r := int32(0)
	for i, v := range s.rank {
		if v == 0 {
			s.rank[i] = r
			r++
		}
	}
	s.width = int(r)
	// Every node but the depth-k terminals is internal, and each terminal
	// holds exactly one entry.
	internal := len(s.nodes) - len(s.Sup)
	s.frozen = true
	s.dense = span+internal*s.width <= limit
	if s.dense {
		s.csrStart, s.csrItems, s.csrChild, s.csrEntry = s.csrStart[:0], s.csrItems[:0], s.csrChild[:0], s.csrEntry[:0]
		s.blocks = grown(s.blocks, internal*s.width)
		for i := range s.blocks {
			s.blocks[i] = -1
		}
		s.fillBlock(0, 0, 1)
		return
	}
	s.blocks = s.blocks[:0]
	// Every non-root node is exactly one parent's child, so the spans hold
	// len(nodes)-1 slots in total.
	total := len(s.nodes) - 1
	s.csrStart = grown(s.csrStart, len(s.nodes)+1)
	s.csrItems = grown(s.csrItems, total)
	s.csrChild = grown(s.csrChild, total)
	s.csrEntry = grown(s.csrEntry, total)
	sum := int32(0)
	for n := range s.nodes {
		s.csrStart[n] = sum
		sum += s.kids[n]
	}
	s.csrStart[len(s.nodes)] = sum
	for n := range s.nodes {
		pos := s.csrStart[n]
		for c := s.nodes[n].child; c != -1; c = s.nodes[c].next {
			s.csrItems[pos] = s.nodes[c].item
			s.csrChild[pos] = c
			s.csrEntry[pos] = s.nodes[c].entry
			pos++
		}
	}
}

// fillBlock writes node n's children into block b, numbering child blocks
// depth-first from free, and returns the next unused block number.
func (s *Store) fillBlock(n, b, free int32) int32 {
	blk := s.blocks[int(b)*s.width:][:s.width]
	for c := s.nodes[n].child; c != -1; c = s.nodes[c].next {
		slot := s.rank[s.nodes[c].item-s.minID]
		if e := s.nodes[c].entry; e >= 0 {
			blk[slot] = e
		} else {
			blk[slot] = free
			free = s.fillBlock(c, free, free+1)
		}
	}
	return free
}

// rankOf returns id's rank, or -1 when no candidate holds id (including
// every ID outside [minID, maxID]). Freeze must have run.
func (s *Store) rankOf(id itemset.ID) int32 {
	off := uint(int(id) - int(s.minID))
	if off >= uint(len(s.rank)) {
		return -1
	}
	return s.rank[off]
}

// Filter appends the items of tx that occur in at least one candidate to buf
// and returns it. Narrowing transactions to candidate-relevant items before
// CountTx shortens the descent's loops. Freeze must have run.
func (s *Store) Filter(tx itemset.Set, buf itemset.Set) itemset.Set {
	for _, id := range tx {
		if s.rankOf(id) >= 0 {
			buf = append(buf, id)
		}
	}
	return buf
}

// CountTx adds w to counts[e] for every candidate e that is a subset of tx,
// by descending the trie along tx's items: each item either continues a
// candidate prefix one level down or is skipped, so the descent enumerates
// only the subsets of tx that are prefixes of some candidate. It returns the
// number of candidates matched (paths that reached depth k); the caller can
// subtract that from C(len(tx), k) to measure how many of the k-subsets a
// flat subset enumeration would have probed the descent never visited.
//
// counts must have length Len(). tx must be canonical (sorted ascending) and
// may be of any width and hold any IDs; pass the result of Filter for best
// performance. Safe for concurrent use after Freeze (counts are
// caller-owned).
func (s *Store) CountTx(tx itemset.Set, w int64, counts []int64) int64 {
	if len(tx) < s.k {
		return 0
	}
	if s.dense {
		return s.countDense(0, s.k, tx, w, counts)
	}
	return s.countRec(0, 0, tx, w, counts)
}

// countDense is the descent over the dense layout from block b, with need
// items still required to complete a candidate: each item of tx costs one
// rank lookup and one load of its slot in the block.
func (s *Store) countDense(b int32, need int, tx itemset.Set, w int64, counts []int64) int64 {
	var hits int64
	blk := s.blocks[int(b)*s.width:][:s.width]
	if need == 1 {
		for _, t := range tx {
			if r := s.rankOf(t); r >= 0 {
				if e := blk[r]; e >= 0 {
					counts[e] += w
					hits++
				}
			}
		}
		return hits
	}
	for ti := 0; len(tx)-ti >= need; ti++ {
		if r := s.rankOf(tx[ti]); r >= 0 {
			if c := blk[r]; c >= 0 {
				hits += s.countDense(c, need-1, tx[ti+1:], w, counts)
			}
		}
	}
	return hits
}

// countRec is the descent over the CSR layout from node n at depth depth.
func (s *Store) countRec(n int32, depth int, tx itemset.Set, w int64, counts []int64) int64 {
	var hits int64
	need := s.k - depth // items still required to complete a candidate
	lo, hi := s.csrStart[n], s.csrStart[n+1]
	items := s.csrItems[lo:hi]
	if len(items) > 16*len(tx) {
		// Child span much wider than the transaction: binary-search each
		// item instead of merging past mostly-absent children. The
		// threshold is deliberately high — binary search's data-dependent
		// branches mispredict ~every level, while the merge's skip branch
		// is predictable, so merging wins until the span dwarfs the
		// transaction (measured on BenchmarkCountingDense).
		for ti := 0; len(tx)-ti >= need; ti++ {
			t := tx[ti]
			a, b := 0, len(items)
			for a < b {
				mid := (a + b) >> 1
				if items[mid] < t {
					a = mid + 1
				} else {
					b = mid
				}
			}
			if a == len(items) || items[a] != t {
				continue
			}
			if e := s.csrEntry[lo+int32(a)]; e >= 0 {
				counts[e] += w
				hits++
			} else {
				hits += s.countRec(s.csrChild[lo+int32(a)], depth+1, tx[ti+1:], w, counts)
			}
		}
		return hits
	}
	entries := s.csrEntry[lo:hi]
	if need == 1 {
		// Terminal level: every match is a candidate hit; a skip-heavy
		// two-pointer merge with no recursion or entry test in the loop.
		ci := 0
		for _, t := range tx {
			for ci < len(items) && items[ci] < t {
				ci++
			}
			if ci == len(items) {
				break
			}
			if items[ci] == t {
				counts[entries[ci]] += w
				hits++
				ci++
			}
		}
		return hits
	}
	ci, ti := 0, 0
	for ci < len(items) && len(tx)-ti >= need {
		t := tx[ti]
		for items[ci] < t {
			ci++
			if ci == len(items) {
				return hits
			}
		}
		if items[ci] == t {
			if e := entries[ci]; e >= 0 {
				counts[e] += w
				hits++
			} else {
				hits += s.countRec(s.csrChild[lo+int32(ci)], depth+1, tx[ti+1:], w, counts)
			}
			ci++
		}
		ti++
	}
	return hits
}
