package txdb

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
)

func TestAddCanonicalizes(t *testing.T) {
	db := New(nil)
	db.Add(3, 1, 3, 2)
	if got := db.Tx(0); !got.Equal(itemset.New(1, 2, 3)) {
		t.Errorf("Tx(0) = %v", got)
	}
	db.Add()
	if db.Len() != 2 {
		t.Errorf("Len = %d", db.Len())
	}
	if len(db.Tx(1)) != 0 {
		t.Error("empty transaction lost")
	}
}

func TestAddNames(t *testing.T) {
	db := New(nil)
	db.AddNames("beer", "diapers", "beer")
	if db.Len() != 1 || db.Tx(0).K() != 2 {
		t.Fatalf("bad transaction: %v", db.Tx(0))
	}
	id, ok := db.Dict().Lookup("beer")
	if !ok || !db.Tx(0).Contains(id) {
		t.Error("beer missing")
	}
}

func TestScanOrderAndError(t *testing.T) {
	db := New(nil)
	db.AddNames("a")
	db.AddNames("b")
	var seen []string
	err := db.Scan(func(tx itemset.Set) error {
		seen = append(seen, db.Dict().Name(tx[0]))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(seen, ",") != "a,b" {
		t.Errorf("scan order %v", seen)
	}
	calls := 0
	sentinel := os.ErrClosed
	err = db.Scan(func(itemset.Set) error {
		calls++
		return sentinel
	})
	if err != sentinel || calls != 1 {
		t.Errorf("error propagation failed: err=%v calls=%d", err, calls)
	}
}

func TestComputeStats(t *testing.T) {
	db := New(nil)
	db.AddNames("a", "b", "c")
	db.AddNames("a")
	db.Add()
	s, err := ComputeStats(db)
	if err != nil {
		t.Fatal(err)
	}
	if s.Transactions != 3 || s.DistinctItems != 3 || s.TotalItems != 4 || s.MaxWidth != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.AvgWidth < 1.33 || s.AvgWidth > 1.34 {
		t.Errorf("avg width = %v", s.AvgWidth)
	}
	if !strings.Contains(s.String(), "3 transactions") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestBasketRoundTrip(t *testing.T) {
	db := New(nil)
	db.AddNames("canned beer", "baby cosmetics")
	db.Add()
	db.AddNames("fish")
	var sb strings.Builder
	if err := db.WriteBaskets(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBaskets(strings.NewReader(sb.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip %d -> %d transactions", db.Len(), back.Len())
	}
	for i := 0; i < db.Len(); i++ {
		a, b := db.Tx(i), back.Tx(i)
		if a.K() != b.K() {
			t.Fatalf("tx %d width changed", i)
		}
		for j := range a {
			if db.Dict().Name(a[j]) != back.Dict().Name(b[j]) {
				t.Errorf("tx %d item %d: %q vs %q", i, j, db.Dict().Name(a[j]), back.Dict().Name(b[j]))
			}
		}
	}
}

func TestReadBasketsErrorsAndComments(t *testing.T) {
	in := "# header\nbeer, diapers\n\nmilk\n"
	db, err := ReadBaskets(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	// comment skipped, blank line = empty transaction.
	if db.Len() != 3 {
		t.Fatalf("Len = %d, want 3", db.Len())
	}
	if db.Tx(0).K() != 2 || db.Tx(1).K() != 0 || db.Tx(2).K() != 1 {
		t.Errorf("widths = %d,%d,%d", db.Tx(0).K(), db.Tx(1).K(), db.Tx(2).K())
	}
	// Transactions share one ID arena; appending to one must not write
	// into the next.
	milk := db.Tx(2)[0]
	_ = append(db.Tx(0), milk+1)
	if db.Tx(2)[0] != milk {
		t.Error("append to a transaction overwrote its neighbour in the arena")
	}
	if _, err := ReadBaskets(strings.NewReader("a,,b\n"), nil); err == nil {
		t.Error("empty item accepted")
	}
}

func testTree(t *testing.T) *taxonomy.Tree {
	t.Helper()
	b := taxonomy.NewBuilder(nil)
	for _, p := range [][]string{
		{"food", "dairy", "milk"}, {"food", "dairy", "butter"},
		{"food", "meat", "pork"}, {"food", "meat", "beef"},
		{"drink", "beer", "stout"}, {"drink", "beer", "lager"},
	} {
		if err := b.AddPath(p...); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMaterialize(t *testing.T) {
	tr := testTree(t)
	db := New(tr.Dict())
	db.AddNames("milk", "butter", "stout")
	db.AddNames("pork", "lager")
	db.AddNames("milk")

	lv2, err := Materialize(db, tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	dairy, _ := tr.Dict().Lookup("dairy")
	beer, _ := tr.Dict().Lookup("beer")
	meat, _ := tr.Dict().Lookup("meat")
	// tx0: {milk,butter,stout} -> {dairy, beer} (milk+butter merge)
	if !lv2.Tx[0].Equal(itemset.New(dairy, beer)) {
		t.Errorf("tx0 at level 2 = %v", tr.FormatSet(lv2.Tx[0]))
	}
	if lv2.Support[dairy] != 2 || lv2.Support[beer] != 2 || lv2.Support[meat] != 1 {
		t.Errorf("supports: dairy=%d beer=%d meat=%d", lv2.Support[dairy], lv2.Support[beer], lv2.Support[meat])
	}
	if lv2.MaxWidth != 2 {
		t.Errorf("MaxWidth = %d", lv2.MaxWidth)
	}
	// Level-1 view merges everything under food/drink.
	lv1, err := Materialize(db, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	food, _ := tr.Dict().Lookup("food")
	if lv1.Support[food] != 3 {
		t.Errorf("food support = %d, want 3", lv1.Support[food])
	}
	// SupportOf reference counting agrees.
	// {dairy, beer} co-occur only in tx0.
	if got := lv2.SupportOf(itemset.New(dairy, beer)); got != 1 {
		t.Errorf("SupportOf({dairy,beer}) = %d", got)
	}
	if _, err := Materialize(db, tr, 0); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := Materialize(db, tr, 9); err == nil {
		t.Error("level 9 accepted")
	}
}

func TestMaterializeDropsUnmappedItems(t *testing.T) {
	tr := testTree(t)
	db := New(tr.Dict())
	// "mystery" is not in the taxonomy at all.
	db.AddNames("milk", "mystery")
	lv, err := Materialize(db, tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lv.Tx[0].K() != 1 {
		t.Errorf("unmapped item kept: %v", lv.Tx[0])
	}
}

func TestMapLeaves(t *testing.T) {
	tr := testTree(t)
	db := New(tr.Dict())
	db.AddNames("milk", "stout")
	nt, leafMap, err := tr.Truncate([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mapped := db.MapLeaves(leafMap)
	dairy, _ := nt.Dict().Lookup("dairy")
	beer, _ := nt.Dict().Lookup("beer")
	if !mapped.Tx(0).Equal(itemset.New(dairy, beer)) {
		t.Errorf("mapped tx = %v", tr.FormatSet(mapped.Tx(0)))
	}
	// Unmappable items are dropped.
	db2 := New(tr.Dict())
	db2.AddNames("milk")
	partial := map[itemset.ID]itemset.ID{}
	if got := db2.MapLeaves(partial); got.Tx(0).K() != 0 {
		t.Error("unmapped leaf survived MapLeaves")
	}
}

func TestShuffleDeterministic(t *testing.T) {
	mk := func() *DB {
		db := New(nil)
		for i := 0; i < 20; i++ {
			db.Add(itemset.ID(i))
		}
		return db
	}
	a, b := mk(), mk()
	a.Shuffle(7)
	b.Shuffle(7)
	for i := 0; i < a.Len(); i++ {
		if !a.Tx(i).Equal(b.Tx(i)) {
			t.Fatal("same seed produced different orders")
		}
	}
	c := mk()
	c.Shuffle(8)
	same := true
	for i := 0; i < a.Len(); i++ {
		if !a.Tx(i).Equal(c.Tx(i)) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical orders")
	}
}

func TestFileSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baskets.txt")
	content := "# demo\nbeer, diapers\nmilk\n-\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 3 {
		t.Fatalf("Len = %d, want 3", fs.Len())
	}
	// Two passes give identical results.
	for pass := 0; pass < 2; pass++ {
		var widths []int
		err := fs.Scan(func(tx itemset.Set) error {
			widths = append(widths, tx.K())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(widths) != 3 || widths[0] != 2 || widths[1] != 1 || widths[2] != 0 {
			t.Fatalf("pass %d widths = %v", pass, widths)
		}
	}
	if _, err := OpenFile(filepath.Join(dir, "missing.txt"), nil); err == nil {
		t.Error("missing file accepted")
	}
	// New items appearing after the first pass are a hard error.
	if err := os.WriteFile(path, []byte("beer, vodka\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Scan(func(itemset.Set) error { return nil }); err == nil {
		t.Error("mutated file with new items accepted on later pass")
	}
}

// Property: materialized per-level supports equal brute-force counting for
// random databases and trees.
func TestMaterializeSupportsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := testTree(t)
	leaves := tr.Leaves()
	for trial := 0; trial < 30; trial++ {
		db := New(tr.Dict())
		for i := 0; i < 50; i++ {
			w := rng.Intn(4)
			ids := make([]itemset.ID, 0, w)
			for j := 0; j < w; j++ {
				ids = append(ids, leaves[rng.Intn(len(leaves))])
			}
			db.Add(ids...)
		}
		for h := 1; h <= tr.Height(); h++ {
			lv, err := Materialize(db, tr, h)
			if err != nil {
				t.Fatal(err)
			}
			for id, sup := range lv.Support {
				if got := lv.SupportOf(itemset.New(id)); got != sup {
					t.Fatalf("trial %d level %d: support mismatch for %s: %d vs %d",
						trial, h, tr.Name(id), sup, got)
				}
			}
		}
	}
}

func BenchmarkMaterialize(b *testing.B) {
	bt := taxonomy.NewBuilder(nil)
	for r := 0; r < 10; r++ {
		root := string(rune('A' + r))
		for c := 0; c < 10; c++ {
			leaf := root + string(rune('a'+c))
			if err := bt.AddPath(root, leaf); err != nil {
				b.Fatal(err)
			}
		}
	}
	tr, err := bt.Build()
	if err != nil {
		b.Fatal(err)
	}
	leaves := tr.Leaves()
	db := New(tr.Dict())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		ids := make([]itemset.ID, 5)
		for j := range ids {
			ids[j] = leaves[rng.Intn(len(leaves))]
		}
		db.Add(ids...)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Materialize(db, tr, 1); err != nil {
			b.Fatal(err)
		}
	}
}
