package candtrie

import (
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
)

// decodeTxs turns arbitrary fuzz bytes into a small weighted database with
// the same total encoding the bitmap fuzzer uses: a zero byte ends the
// current transaction, any other byte contributes its low nibble as an item
// ID and its high nibble to the transaction's weight.
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

// decodeCands turns fuzz bytes into a sparse set of k-itemsets over the same
// 0..15 universe: every k consecutive bytes name one candidate by their low
// nibbles, and a group that repeats an item is skipped.
func decodeCands(pick []byte, k int) []itemset.Set {
	var cands []itemset.Set
	for i := 0; i+k <= len(pick); i += k {
		ids := make([]itemset.ID, k)
		for j := range ids {
			ids[j] = itemset.ID(pick[i+j] & 0x0f)
		}
		if set := itemset.New(ids...); len(set) == k {
			cands = append(cands, set)
		}
	}
	return cands
}

// FuzzSupportEquivalence is the trie-store half of the counting-equivalence
// property: for every database the fuzzer can encode, trie-descent counting
// must report exactly the supports of the retained brute-force
// map[string]int64 reference — the representation the store replaced —
// under both counting layouts. Each input is checked against two candidate
// sets per k: the full k-itemset universe over the 16 items (k = 2, 3), and
// a sparse set decoded from pick (k = 2..4), whose tries leave most of every
// dense block empty and most transaction items outside the rank table.
func FuzzSupportEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 2, 0, 0x21, 0x32}, []byte{1, 2, 2, 3, 1, 3, 4})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0}, []byte{5, 9})
	f.Add([]byte{0xff, 0xf1, 1, 0, 1}, []byte{0x0f, 1, 0x1f, 0x2e, 3, 7, 9, 11})
	f.Fuzz(func(t *testing.T, data, pick []byte) {
		if len(data) > 1024 || len(pick) > 256 {
			return // keep each execution fast
		}
		txs, weights := decodeTxs(data)
		for k := 2; k <= 3; k++ {
			checkK(t, txs, weights, k, allSets(k, 16), true)
		}
		for k := 2; k <= 4; k++ {
			checkK(t, txs, weights, k, decodeCands(pick, k), false)
		}
	})
}

// checkK registers cands in a k-store and checks, under each layout, that
// descent counting over txs — filtered first, as the scan counter does, and
// unfiltered — matches the map reference. With complete set, cands is the
// whole k-itemset universe, so every k-subset the reference counted must
// also be a store entry.
func checkK(t *testing.T, txs []itemset.Set, weights []int64, k int, cands []itemset.Set, complete bool) {
	t.Helper()
	s := New(k)
	for _, c := range cands {
		s.Insert(c)
	}

	// Reference side: the old representation — subset enumeration probing a
	// map keyed by itemset key strings.
	ref := make(map[string]int64)
	for i, tx := range txs {
		itemset.KSubsets(tx, k, func(sub itemset.Set) {
			ref[sub.Key()] += weights[i]
		})
	}

	for _, l := range layouts {
		s.freeze(l.limit)
		// Trie side: filter + descent, exactly the scan counter's hot loop,
		// and the descent over the raw transaction.
		counts := make([]int64, s.Len())
		raw := make([]int64, s.Len())
		var buf itemset.Set
		for i, tx := range txs {
			buf = s.Filter(tx, buf[:0])
			if h, hr := s.CountTx(buf, weights[i], counts), s.CountTx(tx, weights[i], raw); h != hr {
				t.Fatalf("k=%d %s: tx %v hit %d filtered, %d unfiltered", k, l.name, tx, h, hr)
			}
		}
		s.Walk(func(e int32, items itemset.Set) {
			if counts[e] != ref[items.Key()] || raw[e] != counts[e] {
				t.Fatalf("k=%d %s: trie support of %v = %d (unfiltered %d), map reference = %d (n=%d)",
					k, l.name, items, counts[e], raw[e], ref[items.Key()], len(txs))
			}
		})
		if !complete {
			continue
		}
		// And nothing the reference counted is missing from the store.
		for key, want := range ref {
			set, err := itemset.ParseKey(key)
			if err != nil {
				t.Fatal(err)
			}
			e := s.Lookup(set)
			if e < 0 {
				t.Fatalf("k=%d: reference counted %v but store has no entry", k, set)
			}
			if counts[e] != want {
				t.Fatalf("k=%d %s: support of %v = %d, want %d", k, l.name, set, counts[e], want)
			}
		}
	}
}
