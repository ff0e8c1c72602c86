package txdb

import (
	"math"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
)

// pairLevel lays rows out as a level's row arena, each row canonicalized,
// with the single supports and width BuildLevels would leave. Rows need not
// be distinct: the pair table sums over whatever rows the level holds.
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

// checkPairTable compares every pair of IDs from two below the level's
// smallest item to two above its largest — gaps, and IDs outside the level,
// included — against a brute-force count over the rows: the weighted support
// of the pair and the number of rows holding both items. An ID the table
// does not rank must be one no row holds, and it reads zero.
func checkPairTable(t *testing.T, l *Level) {
	t.Helper()
	tab := NewPairTable(l)
	if tab == nil {
		t.Fatalf("no table for a level of %d items", len(l.Support))
	}
	if tab.Len() != len(l.Support) {
		t.Fatalf("Len() = %d, level has %d items", tab.Len(), len(l.Support))
	}
	lo, hi := itemset.ID(0), itemset.ID(0)
	if len(l.Items) > 0 {
		lo, hi = l.Items[0], l.Items[0]
	}
	for _, id := range l.Items {
		lo, hi = min(lo, id), max(hi, id)
	}
	for a := lo - 2; a <= hi+2; a++ {
		if tab.Rank(a) < 0 && l.Support[a] > 0 {
			t.Fatalf("item %d of the level has no rank", a)
		}
		for b := a + 1; b <= hi+2; b++ {
			var wantSup, wantRows int64
			for r := 0; r < l.Rows(); r++ {
				if row := l.Row(r); row.Contains(a) && row.Contains(b) {
					wantSup += l.Weights[r]
					wantRows++
				}
			}
			var sup, rows int64
			if i, j := tab.Rank(a), tab.Rank(b); i >= 0 && j >= 0 {
				if i >= j {
					t.Fatalf("ranks %d, %d of items %d < %d do not follow ID order", i, j, a, b)
				}
				sup, rows = tab.Pair(i, j)
			}
			if sup != wantSup || rows != wantRows {
				t.Fatalf("pair {%d, %d}: support %d over %d rows, brute force %d over %d", a, b, sup, rows, wantSup, wantRows)
			}
		}
	}
}

// TestPairTable covers the level shapes the table must count exactly: no
// rows at all, rows of no or one item, gapped and negative-free sparse IDs,
// repeated rows, and weights that fill the support field's high bits.
func TestPairTable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rows    []itemset.Set
		weights []int64
	}{
		{"empty level", nil, nil},
		{"rows of no or one item", []itemset.Set{{}, {4}, {9}, {}}, []int64{3, 1, 2, 5}},
		{"gapped IDs", []itemset.Set{{3, 10, 40}, {10, 40}, {3}, {}, {3, 40}, {1000}}, []int64{1, 5, 2, 9, 4, 1}},
		{"repeated rows", []itemset.Set{{2, 4}, {2, 4}, {2, 4, 6}}, []int64{1, 1, 3}},
		{"heavy weights", []itemset.Set{{7, 8, 9}, {8, 9}}, []int64{1 << 31, 1<<32 - 1 - 1<<31}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkPairTable(t, pairLevel(tc.rows, tc.weights))
		})
	}
	empty := NewPairTable(pairLevel(nil, nil))
	for _, id := range []itemset.ID{-1, 0, 1, math.MaxInt32} {
		if r := empty.Rank(id); r != -1 {
			t.Errorf("empty level ranks %d as %d", id, r)
		}
	}
}

// TestPairTableCap pins the cap: MaxPairItems items build, one more does
// not, and neither does a level whose total weight overflows a slot's
// 32-bit support field.
func TestPairTableCap(t *testing.T) {
	wide := func(n int) *Level {
		row := make(itemset.Set, n)
		for i := range row {
			row[i] = itemset.ID(3 * i)
		}
		return pairLevel([]itemset.Set{row, row[:2]}, []int64{2, 1})
	}
	tab := NewPairTable(wide(MaxPairItems))
	if tab == nil {
		t.Fatalf("no table for %d items", MaxPairItems)
	}
	if sup, rows := tab.Pair(0, 1); sup != 3 || rows != 2 {
		t.Errorf("first pair: support %d over %d rows, want 3 over 2", sup, rows)
	}
	if sup, rows := tab.Pair(MaxPairItems-2, MaxPairItems-1); sup != 2 || rows != 1 {
		t.Errorf("last pair: support %d over %d rows, want 2 over 1", sup, rows)
	}
	if NewPairTable(wide(MaxPairItems+1)) != nil {
		t.Errorf("a table for %d items", MaxPairItems+1)
	}
	heavy := pairLevel([]itemset.Set{{1, 2}, {2, 3}}, []int64{1 << 31, 1 << 31})
	if NewPairTable(heavy) != nil {
		t.Error("a table for a total weight of 2^32")
	}
}

// FuzzPairTable decodes the input into weighted rows over a gapped ID
// alphabet — widths 0 to 7, weights 1 to 256, IDs spread by a stride and an
// offset from the input — and checks the pair table against the brute-force
// count.
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
