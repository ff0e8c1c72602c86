package txdb

import (
	"math"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
)

// pairLevel lays rows out as a level's row arena, each row canonicalized,
// with the single supports and width BuildLevels would leave. Rows need not
// be distinct: a subset table sums over whatever rows the level holds.
func pairLevel(rows []itemset.Set, weights []int64) *Level {
	l := &Level{Starts: []int32{0}}
	for r, row := range rows {
		l.Items = append(l.Items, itemset.New(row...)...)
		l.Starts = append(l.Starts, int32(len(l.Items)))
		l.Weights = append(l.Weights, weights[r])
	}
	l.Support, l.MaxWidth = supports(l)
	return l
}

// probeIDs returns, ascending, the IDs checkPairTable probes for k-subsets:
// for pairs every ID from two below the level's smallest item to two above
// its largest, and for triples, which would be too many over a wide span,
// every item, the ID after each — the first of any gap between items — and
// the two IDs below the smallest item and above the largest.
func probeIDs(l *Level, k int) itemset.Set {
	var lo, hi itemset.ID
	var ids []itemset.ID
	for id := range l.Support {
		if len(ids) == 0 {
			lo, hi = id, id
		}
		lo, hi = min(lo, id), max(hi, id)
		ids = append(ids, id, id+1)
	}
	if k == 2 {
		ids = ids[:0]
		for id := lo; id <= hi; id++ {
			ids = append(ids, id)
		}
	}
	return itemset.New(append(ids, lo-2, lo-1, hi+1, hi+2)...)
}

// checkPairTable builds the pair and the triple table of l and compares
// every pair and triple of probe IDs (probeIDs: gaps, and IDs outside the
// level, included) against a brute-force count over the rows: the weighted
// support of the subset. An ID a table does not rank must be one no row
// holds, and a subset with such an ID reads zero.
func checkPairTable(t *testing.T, l *Level) {
	t.Helper()
	for k := 2; k <= MaxTableK; k++ {
		probes := probeIDs(l, k)
		tab := NewSubsetTable(l, k)
		if tab == nil {
			t.Fatalf("k=%d: no table for a level of %d items", k, len(l.Support))
		}
		for _, id := range probes {
			if tab.Rank(id) < 0 && l.Support[id] > 0 {
				t.Fatalf("k=%d: item %d of the level has no rank", k, id)
			}
		}
		ranks := make([]int32, k)
		itemset.KSubsets(probes, k, func(sub itemset.Set) {
			var want int64
			for r := 0; r < l.Rows(); r++ {
				if sub.SubsetOf(l.Row(r)) {
					want += l.Weights[r]
				}
			}
			var sup int64
			ranked := true
			for m, id := range sub {
				ranks[m] = int32(tab.Rank(id))
				ranked = ranked && ranks[m] >= 0
				if m > 0 && ranked && ranks[m-1] >= ranks[m] {
					t.Fatalf("k=%d: ranks %v of items %v do not follow ID order", k, ranks[:m+1], sub)
				}
			}
			if ranked {
				sup = tab.At(ranks)
			}
			if sup != want {
				t.Fatalf("k=%d: subset %v: support %d, brute force %d", k, sub, sup, want)
			}
		})
	}
}

// TestPairTable covers the level shapes the pair and triple tables must
// count exactly: no rows at all, rows of no, one or two items, gapped and
// negative-free sparse IDs, repeated rows, and weights past 32 bits.
func TestPairTable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rows    []itemset.Set
		weights []int64
	}{
		{"empty level", nil, nil},
		{"rows of no or one item", []itemset.Set{{}, {4}, {9}, {}}, []int64{3, 1, 2, 5}},
		{"rows of two items", []itemset.Set{{4, 9}, {9, 12}, {4}, {4, 12}}, []int64{3, 1, 2, 5}},
		{"gapped IDs", []itemset.Set{{3, 10, 40}, {10, 40}, {3}, {}, {3, 40}, {1000}, {3, 10, 40, 1000}}, []int64{1, 5, 2, 9, 4, 1, 6}},
		{"repeated rows", []itemset.Set{{2, 4}, {2, 4}, {2, 4, 6}, {2, 4, 6}}, []int64{1, 1, 3, 2}},
		{"heavy weights", []itemset.Set{{7, 8, 9}, {8, 9}, {6, 7, 8, 9}}, []int64{1 << 31, 1 << 40, 1<<32 + 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkPairTable(t, pairLevel(tc.rows, tc.weights))
		})
	}
	for k := 2; k <= MaxTableK; k++ {
		empty := NewSubsetTable(pairLevel(nil, nil), k)
		for _, id := range []itemset.ID{-1, 0, 1, math.MaxInt32} {
			if r := empty.Rank(id); r != -1 {
				t.Errorf("k=%d: empty level ranks %d as %d", k, id, r)
			}
		}
	}
	for _, k := range []int{-1, 0, 1, MaxTableK + 1} {
		if NewSubsetTable(pairLevel([]itemset.Set{{1, 2, 3, 4}}, []int64{1}), k) != nil {
			t.Errorf("a table for k = %d", k)
		}
	}
}

// TestPairTableCap pins the cap of 2^17 slots: 512 items build a pair table
// and 513 do not, 93 build a triple table and 94 do not. The cap counts
// items alone: a level whose total weight passes 32 bits builds both tables
// and reads its supports whole.
func TestPairTableCap(t *testing.T) {
	wide := func(n int) *Level {
		row := make(itemset.Set, n)
		for i := range row {
			row[i] = itemset.ID(3 * i)
		}
		return pairLevel([]itemset.Set{row[:3], row}, []int64{1, 2})
	}
	for _, tc := range []struct{ k, items int }{{2, 512}, {3, 93}} {
		if itemset.Binomial(tc.items, tc.k) > maxTableSlots || itemset.Binomial(tc.items+1, tc.k) <= maxTableSlots {
			t.Fatalf("k=%d: %d items is not the most maxTableSlots holds", tc.k, tc.items)
		}
		tab := NewSubsetTable(wide(tc.items), tc.k)
		if tab == nil {
			t.Fatalf("k=%d: no table for %d items", tc.k, tc.items)
		}
		first, last := make([]int32, tc.k), make([]int32, tc.k)
		for m := range first {
			first[m], last[m] = int32(m), int32(tc.items-tc.k+m)
		}
		if sup := tab.At(first); sup != 3 {
			t.Errorf("k=%d: first subset: support %d, want 3", tc.k, sup)
		}
		if sup := tab.At(last); sup != 2 {
			t.Errorf("k=%d: last subset: support %d, want 2", tc.k, sup)
		}
		if NewSubsetTable(wide(tc.items+1), tc.k) != nil {
			t.Errorf("k=%d: a table for %d items", tc.k, tc.items+1)
		}
		heavy := NewSubsetTable(pairLevel([]itemset.Set{{1, 2, 3}, {1, 2, 3, 4}}, []int64{1 << 31, 1 << 31}), tc.k)
		if heavy == nil {
			t.Fatalf("k=%d: no table for a total weight of 2^32", tc.k)
		}
		if sup := heavy.At(first); sup != 1<<32 {
			t.Errorf("k=%d: a total weight of 2^32 reads %d", tc.k, sup)
		}
	}
}

// FuzzPairTable decodes the input into weighted rows over a gapped ID
// alphabet — widths 0 to 7, weights 1 to 256, IDs spread by a stride and an
// offset from the input — and checks the pair and triple tables against the
// brute-force count.
func FuzzPairTable(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 5, 2, 1, 2, 3, 4, 5, 0, 1, 9, 9, 9})
	f.Add([]byte("gapped ids, weighted rows, and rows of one item"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		stride, offset := itemset.ID(1+next()%5), itemset.ID(next())
		var rows []itemset.Set
		var weights []int64
		for len(data) > 0 && len(rows) < 40 {
			row := make(itemset.Set, next()%8)
			for i := range row {
				row[i] = offset + stride*itemset.ID(next()%24)
			}
			rows = append(rows, row)
			weights = append(weights, int64(1+next()))
		}
		checkPairTable(t, pairLevel(rows, weights))
	})
}
