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
//   - counting: CountRanks walks a row down the trie, so the scan counter
//     only ever explores subsets that share a prefix with some candidate —
//     subsets with no candidate prefix are pruned before they are
//     enumerated, and no key bytes or map probes appear in the inner loop;
//   - determinism: sibling lists are kept sorted by item ID, so Walk visits
//     entries in lexicographic itemset order — the order the old code
//     obtained by sorting the map's key strings on every use.
//
// Insert builds the trie with the classic first-child/next-sibling encoding
// and int32 links into one node slab. It keeps a finger per depth — the
// path of the last itemset inserted — and starts each level's sibling walk
// there whenever the new itemset shares the path above it and its item does
// not sort before the finger's. Candidate generation inserts in near-lexicographic order (Apriori
// joins over lexicographic operands, child products walked parent by
// parent, a cluster unit re-inserted in slab order), so most levels cost
// one comparison instead of a walk from the head of a growing list.
//
// Freeze then ranks the cell's R distinct candidate items — ranks follow ID
// order — and lays out the trie for counting in rank space, in one of two
// layouts chosen by size:
//
//   - dense: every internal node owns a block of R int32 slots, one per
//     rank, holding the child with that rank (a block number, or an entry
//     index at the last level) or -1, so the descent finds each child with
//     one load;
//   - CSR: every node's children form one contiguous span of ranks in
//     ascending order, which the descent merges against the row or
//     binary-searches. It serves the sparse tries whose blocks would not fit
//     the dense cap.
//
// Counting works on rows in rank space. FilterRanks maps a row's candidate
// items to their ranks once, dropping every item no candidate holds; the
// result is ascending because the row is. One descent (CountRanks) then
// reads ranks on both layouts: a dense block is indexed by rank with no
// further lookup, a CSR span is merged rank against rank. The last two
// levels of a dense descent, which are the whole of a k = 2 cell, run as a
// two-loop pair kernel with no recursion. Lookup on a frozen dense store
// reads the blocks too, one rank and one slot per item.
//
// A cell frees its store by dropping the single *Store pointer: slabs are
// released wholesale, with no per-entry cleanup.
package candtrie

import (
	"github.com/flipper-mining/flipper/internal/itemset"
)

// node is one trie node. Links are indexes into Store.nodes; -1 is nil.
// Siblings are sorted ascending by item, which Insert and Lookup exploit to
// stop early, Freeze to fill CSR spans in order and Walk to iterate
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

	// finger[d] is the depth-(d+1) node on the path of the last inserted
	// itemset, or -1 in a fresh or Reset store. Once set, the entries form
	// one root-to-leaf path, so finger[d] is a child of the node Insert
	// reached at depth d exactly when that node is finger[d-1].
	finger []int32

	// rank[id-minID] is id's rank among the distinct candidate items in
	// ascending ID order, or -1 where no candidate holds id; width is the
	// number of ranks, R. The ID bounds are maintained incrementally by
	// Insert, the table is filled by Freeze. FilterRanks maps rows through
	// it, Filter uses it to drop items, and a frozen dense Lookup to find
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
	// csrRanks/csrChild/csrEntry[csrStart[n]:csrStart[n+1]], sorted
	// ascending by rank. Span sizes accumulate at Insert time (kids), so
	// building it is one exact-size fill pass. The descent merges each span
	// against the row (binary search when the span is much longer), and
	// csrEntry keeps terminal hits from ever touching the node slab.
	csrStart []int32
	csrRanks []int32
	csrChild []int32
	csrEntry []int32
}

// New returns an empty store for k-itemsets, k ≥ 1.
func New(k int) *Store {
	s := &Store{
		k:      k,
		nodes:  []node{{child: -1, next: -1, entry: -1}},
		kids:   []int32{0},
		finger: make([]int32, k),
		minID:  1, // inverted sentinel range until the first insert
	}
	for d := range s.finger {
		s.finger[d] = -1
	}
	return s
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
	for d := range s.finger {
		s.finger[d] = -1 // the old path's nodes are gone
	}
	s.ids = s.ids[:0]
	s.Sup = s.Sup[:0]
	s.minID, s.maxID = 1, 0
	s.frozen = false
	s.rank, s.width, s.blocks = s.rank[:0], 0, s.blocks[:0]
	s.csrStart, s.csrRanks, s.csrChild, s.csrEntry = s.csrStart[:0], s.csrRanks[:0], s.csrChild[:0], s.csrEntry[:0]
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
// Each level's sibling walk starts at the finger when the itemset shares the
// last inserted one's path above that level and its item does not sort
// before the finger's, and at the head of the list otherwise; either way
// the walk ends at the same place, so the trie does not depend on insertion
// order. Insert must not be called concurrently with any other method.
func (s *Store) Insert(items itemset.Set) (int32, bool) {
	if len(items) != s.k {
		panic("candtrie: itemset size does not match store k")
	}
	s.frozen = false
	n := int32(0)
	onPath := true // n is on the finger path, so finger[d] is one of n's children
	for d, id := range items {
		c := s.nodes[n].child
		if f := s.finger[d]; onPath && f >= 0 && s.nodes[f].item <= id {
			c = f
		}
		prev := int32(-1)
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
		onPath = c == s.finger[d]
		s.finger[d] = c
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

// Lookup returns the entry index of items, or -1 when absent. On a frozen
// dense store it reads the blocks, one rank and one slot per item; otherwise
// it walks the sorted sibling lists.
func (s *Store) Lookup(items itemset.Set) int32 {
	if len(items) != s.k {
		return -1
	}
	if s.frozen && s.dense {
		v := int32(0) // a block number, and after the last item an entry index
		for _, id := range items {
			r := s.rankOf(id)
			if r < 0 {
				return -1
			}
			if v = s.blocks[int(v)*s.width+int(r)]; v < 0 {
				return -1
			}
		}
		return v
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
// FilterRanks/CountRanks are used (possibly from multiple goroutines); all
// read-side methods are then safe for concurrent use.
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
		s.csrStart, s.csrRanks, s.csrChild, s.csrEntry = s.csrStart[:0], s.csrRanks[:0], s.csrChild[:0], s.csrEntry[:0]
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
	s.csrRanks = grown(s.csrRanks, total)
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
			s.csrRanks[pos] = s.rank[s.nodes[c].item-s.minID]
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

// FilterRanks appends the ranks of tx's items that occur in at least one
// candidate to buf and returns it: the row in rank space, the form
// CountRanks reads. Ranks follow ID order, so the result is ascending when
// tx is canonical. Freeze must have run.
func (s *Store) FilterRanks(tx itemset.Set, buf []int32) []int32 {
	for _, id := range tx {
		if r := s.rankOf(id); r >= 0 {
			buf = append(buf, r)
		}
	}
	return buf
}

// Filter appends the items of tx that occur in at least one candidate to buf
// and returns it: FilterRanks with the items kept as IDs. Freeze must have
// run.
func (s *Store) Filter(tx itemset.Set, buf itemset.Set) itemset.Set {
	for _, id := range tx {
		if s.rankOf(id) >= 0 {
			buf = append(buf, id)
		}
	}
	return buf
}

// CountTx is CountRanks over the row tx in ID space: it maps tx through
// FilterRanks, into a stack buffer when the filtered row fits one, and
// counts the result. tx must be canonical (sorted ascending) and may be of
// any width and hold any IDs. Safe for concurrent use after Freeze (counts
// are caller-owned).
func (s *Store) CountTx(tx itemset.Set, w int64, counts []int64) int64 {
	var buf [64]int32
	return s.CountRanks(s.FilterRanks(tx, buf[:0]), w, counts)
}

// CountRanks adds w to counts[e] for every candidate e that is a subset of
// the row, by descending the trie along the row's ranks: each rank either
// continues a candidate prefix one level down or is skipped, so the descent
// enumerates only the subsets of the row that are prefixes of some
// candidate. It returns the number of candidates matched (paths that
// reached depth k); the caller can subtract that from C(len(ranks), k) to
// measure how many of the k-subsets a flat subset enumeration would have
// probed the descent never visited.
//
// ranks must be a result of FilterRanks on this store since its last
// Freeze, over a canonical row; counts must have length Len(). Safe for
// concurrent use after Freeze (counts are caller-owned).
func (s *Store) CountRanks(ranks []int32, w int64, counts []int64) int64 {
	if len(ranks) < s.k {
		return 0
	}
	return s.descend(0, s.k, ranks, w, counts)
}

// descend counts the candidates below one node — a block number on the
// dense layout, a node index on CSR — that need more ranks of the row, in
// ascending order, to complete. len(ranks) ≥ need.
func (s *Store) descend(n int32, need int, ranks []int32, w int64, counts []int64) int64 {
	var hits int64
	if s.dense {
		blk := s.blocks[int(n)*s.width:][:s.width]
		switch need {
		case 1:
			for _, r := range ranks {
				if e := blk[r]; e >= 0 {
					counts[e] += w
					hits++
				}
			}
		case 2:
			// The pair kernel: every rank that opens a block is paired with
			// every later rank in two plain loops, with no recursion.
			for i, r := range ranks[:len(ranks)-1] {
				c := blk[r]
				if c < 0 {
					continue
				}
				leaf := s.blocks[int(c)*s.width:][:s.width]
				for _, r2 := range ranks[i+1:] {
					if e := leaf[r2]; e >= 0 {
						counts[e] += w
						hits++
					}
				}
			}
		default:
			for i := 0; len(ranks)-i >= need; i++ {
				if c := blk[ranks[i]]; c >= 0 {
					hits += s.descend(c, need-1, ranks[i+1:], w, counts)
				}
			}
		}
		return hits
	}
	lo, hi := s.csrStart[n], s.csrStart[n+1]
	span := s.csrRanks[lo:hi]
	if len(span) > 16*len(ranks) {
		// Child span much wider than the row: binary-search each rank
		// instead of merging past mostly-absent children. The threshold is
		// deliberately high — binary search's data-dependent branches
		// mispredict ~every level, while the merge's skip branch is
		// predictable, so merging wins until the span dwarfs the row
		// (measured on BenchmarkCountingDense).
		for i := 0; len(ranks)-i >= need; i++ {
			r := ranks[i]
			a, b := 0, len(span)
			for a < b {
				mid := (a + b) >> 1
				if span[mid] < r {
					a = mid + 1
				} else {
					b = mid
				}
			}
			if a == len(span) || span[a] != r {
				continue
			}
			if e := s.csrEntry[lo+int32(a)]; e >= 0 {
				counts[e] += w
				hits++
			} else {
				hits += s.descend(s.csrChild[lo+int32(a)], need-1, ranks[i+1:], w, counts)
			}
		}
		return hits
	}
	entries := s.csrEntry[lo:hi]
	if need == 1 {
		// Terminal level: every match is a candidate hit; a skip-heavy
		// two-pointer merge with no recursion or entry test in the loop.
		ci := 0
		for _, r := range ranks {
			for ci < len(span) && span[ci] < r {
				ci++
			}
			if ci == len(span) {
				break
			}
			if span[ci] == r {
				counts[entries[ci]] += w
				hits++
				ci++
			}
		}
		return hits
	}
	ci, i := 0, 0
	for ci < len(span) && len(ranks)-i >= need {
		r := ranks[i]
		for span[ci] < r {
			ci++
			if ci == len(span) {
				return hits
			}
		}
		if span[ci] == r {
			hits += s.descend(s.csrChild[lo+int32(ci)], need-1, ranks[i+1:], w, counts)
			ci++
		}
		i++
	}
	return hits
}
