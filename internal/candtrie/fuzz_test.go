package candtrie

import (
	"slices"
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

// widen spreads a row over the 16-item universe to a wide one: item i
// becomes the five items 16+16c+i, c = 0..4, so a row can hold up to 80
// candidate items of a store over [16, 96) — more than CountTx's stack
// buffer — and the original items below that range and the item 200 above
// it ride along.
func widen(tx itemset.Set) itemset.Set {
	wide := slices.Clone(tx)
	for c := 0; c < 5; c++ {
		for _, id := range tx {
			wide = append(wide, itemset.ID(16+16*c)+id)
		}
	}
	return itemset.New(append(wide, 200)...)
}

// FuzzSupportEquivalence is the trie-store half of the counting-equivalence
// property: for every database the fuzzer can encode, trie-descent counting
// must report exactly the supports of the retained brute-force
// map[string]int64 reference — the representation the store replaced —
// under both counting layouts. Each input is checked against three kinds of
// candidate set: the full k-itemset universe over the 16 items (k = 2, 3);
// a sparse set decoded from pick (k = 2..4), whose tries leave most of every
// dense block empty and most row items outside the rank table; and the full
// pair universe over the 80 items of the first rows, widened (widen).
func FuzzSupportEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 2, 0, 0x21, 0x32}, []byte{1, 2, 2, 3, 1, 3, 4})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0}, []byte{5, 9})
	f.Add([]byte{0xff, 0xf1, 1, 0, 1}, []byte{0x0f, 1, 0x1f, 0x2e, 3, 7, 9, 11})
	// Every item in one row, which widens to 80 candidate items.
	f.Add([]byte{0x10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 3, 5}, []byte{1, 2, 3, 4, 5, 6})
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
		wide := make([]itemset.Set, min(len(txs), 8))
		for i := range wide {
			wide[i] = widen(txs[i])
		}
		var widePairs []itemset.Set
		for _, p := range allSets(2, 96) {
			if p[0] >= 16 {
				widePairs = append(widePairs, p)
			}
		}
		checkK(t, wide, weights, 2, widePairs, true)
	})
}

// checkK registers cands in a k-store and checks, under each layout, that
// descent counting over txs — through the rank entry point, as the scan
// counter does, and through CountTx over the row filtered and unfiltered —
// matches the map reference. With complete set, cands is the whole
// k-itemset universe over the rows' candidate items, so every k-subset of
// those the reference counted must also be a store entry.
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
		// Trie side: rows mapped to ranks and descended, exactly the scan
		// counter's hot loop, and CountTx over the filtered and raw rows.
		byRank := make([]int64, s.Len())
		counts := make([]int64, s.Len())
		raw := make([]int64, s.Len())
		var buf itemset.Set
		var ranks []int32
		for i, tx := range txs {
			ranks = s.FilterRanks(tx, ranks[:0])
			buf = s.Filter(tx, buf[:0])
			h := s.CountRanks(ranks, weights[i], byRank)
			if hf, hr := s.CountTx(buf, weights[i], counts), s.CountTx(tx, weights[i], raw); hf != h || hr != h {
				t.Fatalf("k=%d %s: tx %v hit %d by rank, %d filtered, %d unfiltered", k, l.name, tx, h, hf, hr)
			}
		}
		s.Walk(func(e int32, items itemset.Set) {
			if byRank[e] != ref[items.Key()] || counts[e] != byRank[e] || raw[e] != byRank[e] {
				t.Fatalf("k=%d %s: trie support of %v = %d by rank (filtered %d, unfiltered %d), map reference = %d (n=%d)",
					k, l.name, items, byRank[e], counts[e], raw[e], ref[items.Key()], len(txs))
			}
		})
		if !complete {
			continue
		}
		// And nothing the reference counted over candidate items is
		// missing from the store.
		for key, want := range ref {
			set, err := itemset.ParseKey(key)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Filter(set, nil)) < k {
				continue // an item outside the candidate universe
			}
			e := s.Lookup(set)
			if e < 0 {
				t.Fatalf("k=%d: reference counted %v but store has no entry", k, set)
			}
			if byRank[e] != want {
				t.Fatalf("k=%d %s: support of %v = %d, want %d", k, l.name, set, byRank[e], want)
			}
		}
	}
}
