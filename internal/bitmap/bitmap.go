// Package bitmap implements vertical bit-vector support counting: one bit
// vector per item over the distinct transactions of a level view, so that a
// candidate's support is the AND of its item vectors followed by a weighted
// population count. The counter pays one 64-bit word operation per item
// vector per 64 distinct transactions — the classic vertical layout of the
// condensed correlated-pattern literature, and the cheapest regime when
// many candidates face a dense level.
//
// Index folds a candidate's item vectors from scratch. AndSupport is the
// kernel for a search that carries an intersection down its recursion, as
// Eclat carries tid-sets: it ANDs a carried prefix with one more vector into
// a destination and returns the weighted support of the result. It weighs
// rows by a popcount plus a correction over the rows whose weight is not
// 1, which a heavy-row vector marks, so when few rows repeat, weighting
// costs little beyond the popcount.
package bitmap

import (
	"math/bits"

	"github.com/flipper-mining/flipper/internal/itemset"
)

// Vector is a bit vector over transaction slots, packed into 64-bit words.
// Slot i lives in word i/64 at bit i%64.
type Vector []uint64

// NewVector returns an all-zero vector with capacity for n slots.
func NewVector(n int) Vector { return make(Vector, Words(n)) }

// Words returns the number of 64-bit words needed for n slots.
func Words(n int) int { return (n + 63) / 64 }

// Set sets slot i.
func (v Vector) Set(i int) { v[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether slot i is set.
func (v Vector) Get(i int) bool { return v[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set slots.
func (v Vector) Count() int {
	total := 0
	for _, w := range v {
		total += bits.OnesCount64(w)
	}
	return total
}

// Index holds the per-item bit vectors of one materialized level view,
// together with the per-slot transaction weights (multiplicities of the
// deduplicated transactions).
type Index struct {
	n       int
	words   int
	total   int64 // sum of all weights: the empty itemset's support
	uniform bool  // every weight is 1: plain popcount suffices
	weights []int64
	items   map[itemset.ID]Vector
}

// Build constructs the index over n = len(txs) distinct transactions.
// weights[i] is the multiplicity of txs[i]; a nil weights means all ones.
// Transactions must be canonical itemsets; the same item may appear in any
// number of them.
func Build(txs []itemset.Set, weights []int64) *Index {
	ix := &Index{
		n:       len(txs),
		words:   Words(len(txs)),
		uniform: true,
		weights: weights,
		items:   make(map[itemset.ID]Vector),
	}
	if weights == nil {
		ix.total = int64(len(txs))
	}
	for _, w := range weights {
		ix.total += w
		if w != 1 {
			ix.uniform = false
		}
	}
	for i, tx := range txs {
		for _, id := range tx {
			v, ok := ix.items[id]
			if !ok {
				v = NewVector(len(txs))
				ix.items[id] = v
			}
			v.Set(i)
		}
	}
	return ix
}

// N returns the number of transaction slots.
func (ix *Index) N() int { return ix.n }

// Items returns the number of distinct items indexed.
func (ix *Index) Items() int { return len(ix.items) }

// MemoryBytes estimates the resident footprint of the item vectors.
func (ix *Index) MemoryBytes() int64 {
	return int64(len(ix.items)) * int64(ix.words) * 8
}

// ItemVector returns the bit vector of one item; ok is false when the item
// never occurs. The returned vector is owned by the index — read only.
func (ix *Index) ItemVector(id itemset.ID) (Vector, bool) {
	v, ok := ix.items[id]
	return v, ok
}

// Support returns the weighted support of the itemset — the sum of weights
// over transactions containing every item — by AND-ing the item vectors word
// by word. The second return value counts 64-bit word operations performed,
// the unit the engine's stats report. An itemset with an
// unindexed item has support 0; the empty itemset is vacuously contained in
// every transaction and has the total weight as its support.
func (ix *Index) Support(items itemset.Set) (sup int64, wordOps int64) {
	return ix.SupportInto(items, make([]Vector, len(items)))
}

// SupportInto is Support with a caller-provided scratch slice for the vector
// headers, so hot counting loops stay allocation-free. The scratch must have
// capacity ≥ len(items).
func (ix *Index) SupportInto(items itemset.Set, scratch []Vector) (sup int64, wordOps int64) {
	if len(items) == 0 {
		return ix.total, 0
	}
	vecs := scratch[:len(items)]
	for i, id := range items {
		v, ok := ix.items[id]
		if !ok {
			return 0, 0
		}
		vecs[i] = v
	}
	return ix.supportOf(vecs)
}

// supportOf AND-folds the vectors word-major: for each word position the
// partial AND short-circuits to the next position as soon as it hits zero,
// then surviving bits are resolved against the weight vector (or a plain
// popcount when every weight is 1). Pairs — the dominant case, since level-2
// cells of the search table hold 2-itemsets — take a specialized unrolled
// path that reports the same word-op count the general fold would.
func (ix *Index) supportOf(vecs []Vector) (sup int64, wordOps int64) {
	if len(vecs) == 2 {
		return ix.supportOf2(vecs[0], vecs[1])
	}
	for w := 0; w < ix.words; w++ {
		word := vecs[0][w]
		wordOps++
		for j := 1; j < len(vecs) && word != 0; j++ {
			word &= vecs[j][w]
			wordOps++
		}
		if word == 0 {
			continue
		}
		if ix.uniform {
			sup += int64(bits.OnesCount64(word))
			continue
		}
		base := w << 6
		for word != 0 {
			sup += ix.weights[base+bits.TrailingZeros64(word)]
			word &= word - 1
		}
	}
	return sup, wordOps
}

// supportOf2 is the pair kernel: a straight AND+popcount sweep with no
// per-word branching. The general fold would charge one op for loading a's
// word plus one for the AND whenever that word is non-zero (the short-circuit
// skips the AND on zero words), so the equivalent count is
// words + nonzero-words-of-a, accumulated branchlessly.
func (ix *Index) supportOf2(a, b Vector) (sup int64, wordOps int64) {
	a = a[:ix.words]
	b = b[:ix.words]
	nz := int64(0)
	if ix.uniform {
		for w, aw := range a {
			nz += int64((aw | -aw) >> 63)
			sup += int64(bits.OnesCount64(aw & b[w]))
		}
		return sup, int64(len(a)) + nz
	}
	for w, aw := range a {
		nz += int64((aw | -aw) >> 63)
		word := aw & b[w]
		base := w << 6
		for word != 0 {
			sup += ix.weights[base+bits.TrailingZeros64(word)]
			word &= word - 1
		}
	}
	return sup, int64(len(a)) + nz
}

// AndSupport sets dst to a AND b and returns the weighted support of the
// result: its popcount, plus weights[i]−1 for every set slot i that heavy
// also sets. heavy must mark every slot whose weight is not 1; weights is
// read only at those slots. a, b and heavy need at least len(dst) words, and
// dst may alias a or b. wordOps is len(dst): one AND per word.
func AndSupport(dst, a, b, heavy Vector, weights []int64) (sup int64, wordOps int64) {
	a, b, heavy = a[:len(dst)], b[:len(dst)], heavy[:len(dst)]
	for w := range dst {
		word := a[w] & b[w]
		dst[w] = word
		sup += int64(bits.OnesCount64(word))
		for h := word & heavy[w]; h != 0; h &= h - 1 {
			sup += weights[w<<6+bits.TrailingZeros64(h)] - 1
		}
	}
	return sup, int64(len(dst))
}
