package bitmap

import (
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
)

// decodeTxs turns arbitrary fuzz bytes into a small weighted database: a
// zero byte ends the current transaction, any other byte contributes its
// low nibble as an item ID and its high nibble (plus one) to the
// transaction's weight. The decoder is total — every byte string yields a
// valid database — so the fuzzer explores shapes, not parse errors.
func decodeTxs(data []byte) (txs []itemset.Set, weights []int64) {
	var cur []itemset.ID
	var w int64 = 1
	flush := func() {
		txs = append(txs, itemset.New(cur...))
		weights = append(weights, w)
		cur, w = nil, 1
	}
	for _, b := range data {
		if b == 0 {
			flush()
			continue
		}
		cur = append(cur, itemset.ID(b&0x0f))
		w += int64(b >> 4)
	}
	if len(cur) > 0 {
		flush()
	}
	return txs, weights
}

// FuzzSupportEquivalence is the bitmap/scan support-equivalence property as
// a fuzz target: for every database the fuzzer can encode and every 1-, 2-
// and 3-itemset over its item universe, the bitmap index must report exactly
// the brute-force scan support, and so must a chain of AndSupport calls
// carrying the itemset's AND one item at a time.
func FuzzSupportEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 2, 0, 0x21, 0x32})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xff, 0xf1, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return // keep each execution fast
		}
		txs, weights := decodeTxs(data)
		ix := Build(txs, weights)
		// The nibble encoding bounds the universe to 0..15; probe every
		// 1- and 2-itemset and a diagonal of 3-itemsets.
		for a := itemset.ID(0); a < 16; a++ {
			check(t, ix, txs, weights, itemset.New(a))
			for b := a + 1; b < 16; b++ {
				check(t, ix, txs, weights, itemset.New(a, b))
			}
			check(t, ix, txs, weights, itemset.New(a, (a+1)%16, (a+5)%16))
		}
	})
}

func check(t *testing.T, ix *Index, txs []itemset.Set, weights []int64, items itemset.Set) {
	t.Helper()
	got, _ := ix.Support(items)
	want := bruteSupport(txs, weights, items)
	if got != want {
		t.Fatalf("Support(%v) = %d, scan reference = %d (n=%d)", items, got, want, len(txs))
	}
	if chained := chainSupport(ix, items); chained != got {
		t.Fatalf("chained AndSupport(%v) = %d, Support = %d (n=%d)", items, chained, got, len(txs))
	}
}

// chainSupport counts a non-empty itemset as a search carrying its prefix
// AND does: the first item ANDed with itself, then one AndSupport per
// further item into the carried vector. An unindexed item contributes an
// all-zero vector.
func chainSupport(ix *Index, items itemset.Set) int64 {
	heavy := NewVector(ix.n)
	for i, w := range ix.weights {
		if w != 1 {
			heavy.Set(i)
		}
	}
	vec := func(id itemset.ID) Vector {
		if v, ok := ix.ItemVector(id); ok {
			return v
		}
		return NewVector(ix.n)
	}
	carried := NewVector(ix.n)
	sup, _ := AndSupport(carried, vec(items[0]), vec(items[0]), heavy, ix.weights)
	for _, id := range items[1:] {
		sup, _ = AndSupport(carried, carried, vec(id), heavy, ix.weights)
	}
	return sup
}
