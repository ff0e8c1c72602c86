package txdb

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
)

// refLevel is the per-level algorithm the level build replaced, kept as the
// reference the build is checked against: one pass per level, a fresh
// itemset per generalized transaction, supports counted per transaction,
// then every transaction sorted and equal neighbours merged.
type refLevel struct {
	tx      []itemset.Set
	rows    []WeightedTx
	support map[itemset.ID]int64
	width   int
}

func buildRefLevel(src Source, tree *taxonomy.Tree, h int) (*refLevel, error) {
	ref := &refLevel{support: make(map[itemset.ID]int64)}
	err := src.Scan(func(tx itemset.Set) error {
		var buf []itemset.ID
		for _, id := range tx {
			if a, ok := tree.AncestorAt(id, h); ok {
				buf = append(buf, a)
			}
		}
		g := itemset.New(buf...)
		ref.tx = append(ref.tx, g)
		ref.width = max(ref.width, len(g))
		for _, id := range g {
			ref.support[id]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sorted := slices.Clone(ref.tx)
	slices.SortFunc(sorted, itemset.Compare)
	for _, tx := range sorted {
		if n := len(ref.rows); n > 0 && ref.rows[n-1].Items.Equal(tx) {
			ref.rows[n-1].Weight++
			continue
		}
		ref.rows = append(ref.rows, WeightedTx{Items: tx, Weight: 1})
	}
	return ref, nil
}

// diffLevel reports how l departs from the reference: its rows, weights,
// row index, supports and width must all match.
func diffLevel(l *Level, ref *refLevel) error {
	if l.Starts[0] != 0 || int(l.Starts[l.Rows()]) != len(l.Items) || len(l.Starts) != l.Rows()+1 {
		return fmt.Errorf("malformed arena: %d starts over %d items for %d rows", len(l.Starts), len(l.Items), l.Rows())
	}
	if l.Rows() != len(ref.rows) {
		return fmt.Errorf("%d rows, reference has %d", l.Rows(), len(ref.rows))
	}
	for r, want := range ref.rows {
		if !l.Row(r).Equal(want.Items) || l.Weights[r] != want.Weight {
			return fmt.Errorf("row %d is %v×%d, reference %v×%d", r, l.Row(r), l.Weights[r], want.Items, want.Weight)
		}
	}
	if len(l.RowOf) != len(ref.tx) {
		return fmt.Errorf("row index covers %d transactions, source has %d", len(l.RowOf), len(ref.tx))
	}
	for t, want := range ref.tx {
		if got := l.Row(int(l.RowOf[t])); !got.Equal(want) {
			return fmt.Errorf("transaction %d maps to row %v, want %v", t, got, want)
		}
	}
	if len(l.Support) != len(ref.support) {
		return fmt.Errorf("%d supported items, reference has %d", len(l.Support), len(ref.support))
	}
	for id, n := range ref.support {
		if l.Support[id] != n {
			return fmt.Errorf("support of %d is %d, reference %d", id, l.Support[id], n)
		}
	}
	if l.MaxWidth != ref.width {
		return fmt.Errorf("MaxWidth %d, reference %d", l.MaxWidth, ref.width)
	}
	return nil
}

// CheckLevelsAgainstReference builds every level of src with BuildLevels
// and with Materialize, and requires both — and Dedup of the view, and of a
// hand-assembled copy of it — to equal the reference algorithm.
func CheckLevelsAgainstReference(t testing.TB, src Source, tree *taxonomy.Tree) {
	t.Helper()
	levels, err := BuildLevels(src, tree)
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= tree.Height(); h++ {
		ref, err := buildRefLevel(src, tree, h)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffLevel(levels[h], ref); err != nil {
			t.Fatalf("level %d: %v", h, err)
		}
		lv, err := Materialize(src, tree, h)
		if err != nil {
			t.Fatal(err)
		}
		if len(lv.Tx) != len(ref.tx) || lv.MaxWidth != ref.width || len(lv.Support) != len(ref.support) {
			t.Fatalf("level %d: view holds %d transactions of width ≤ %d over %d items, reference %d, %d, %d",
				h, len(lv.Tx), lv.MaxWidth, len(lv.Support), len(ref.tx), ref.width, len(ref.support))
		}
		for i, tx := range ref.tx {
			if !lv.Tx[i].Equal(tx) {
				t.Fatalf("level %d: view transaction %d is %v, want %v", h, i, lv.Tx[i], tx)
			}
		}
		byHand := &LevelView{Level: h, Tx: slices.Clone(lv.Tx), Support: lv.Support, MaxWidth: lv.MaxWidth}
		// IDs spread over the int32 range leave room to pack only two items
		// per sort key, so rows sharing two leading items reach the sort's
		// tie-breaking comparison. The spread is monotone, so the reference
		// order carries over.
		spread, wide := spreadIDs(ref.tx)
		for _, c := range []struct {
			dd     []WeightedTx
			factor itemset.ID
		}{{lv.Dedup(), 1}, {byHand.Dedup(), 1}, {wide.Dedup(), spread}} {
			if len(c.dd) != len(ref.rows) {
				t.Fatalf("level %d: Dedup has %d rows, reference %d", h, len(c.dd), len(ref.rows))
			}
			for r, want := range ref.rows {
				if got := c.dd[r]; !got.Items.Equal(scaleIDs(want.Items, c.factor)) || got.Weight != want.Weight {
					t.Fatalf("level %d (IDs ×%d): Dedup row %d is %v×%d, want %v×%d", h, c.factor, r, got.Items, got.Weight, want.Items, want.Weight)
				}
			}
		}
	}
}

// spreadIDs multiplies every ID of txs by the largest factor that keeps
// them in int32 and returns the factor with the view of the scaled sets.
func spreadIDs(txs []itemset.Set) (itemset.ID, *LevelView) {
	top := itemset.ID(0)
	for _, tx := range txs {
		for _, id := range tx {
			top = max(top, id)
		}
	}
	factor := itemset.ID(math.MaxInt32 / (int64(top) + 1))
	v := &LevelView{Tx: make([]itemset.Set, len(txs))}
	for i, tx := range txs {
		v.Tx[i] = scaleIDs(tx, factor)
	}
	return factor, v
}

func scaleIDs(s itemset.Set, factor itemset.ID) itemset.Set {
	out := make(itemset.Set, len(s))
	for i, id := range s {
		out[i] = id * factor
	}
	return out
}

// TestBuildLevelsMatchesReference covers the shapes the builder must agree
// with the reference on: unbalanced and extended taxonomies, items outside
// the taxonomy, internal nodes named in baskets, empty transactions, and
// per-shard builds.
func TestBuildLevelsMatchesReference(t *testing.T) {
	b := taxonomy.NewBuilder(nil)
	for _, p := range [][]string{
		{"food", "dairy", "milk"}, {"food", "dairy", "butter"},
		{"food", "meat", "pork"}, {"food", "bread"},
		{"drink", "beer", "stout"}, {"drink", "beer", "lager"}, {"drink", "water"},
	} {
		if err := b.AddPath(p...); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	baskets := "milk, butter, stout\npork, lager\n\nmilk\n-\nbread, water, dairy\nmystery\nlager, stout\nmilk, butter, stout\nwater\n"
	for _, tr := range []*taxonomy.Tree{tree, tree.Extend()} {
		db, err := ReadBaskets(strings.NewReader(baskets), tr.Dict())
		if err != nil {
			t.Fatal(err)
		}
		CheckLevelsAgainstReference(t, db, tr)
		for _, shard := range Partition(db, 3) {
			CheckLevelsAgainstReference(t, shard, tr)
		}
	}
}

// FuzzBuildLevels decodes the input into a taxonomy (unbalanced, and
// leaf-copy extended when the first byte says so), basket lines (empty, "-",
// comments, unknown and internal names) and a shard count of 1–3, and
// checks the level build of the whole database and of every shard against
// the reference.
func FuzzBuildLevels(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{1, 7, 3, 0, 255, 12, 9, 200, 4, 4, 4, 33, 81})
	f.Add([]byte{2, 0, 0, 0, 0})
	f.Add([]byte("extended taxonomy with many baskets, some empty"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		mode := next()
		b := taxonomy.NewBuilder(nil)
		var names []string
		for p := 0; p < 1+next()%8; p++ {
			path := []string{fmt.Sprintf("r%d", next()%3)}
			for d := 0; d < next()%4; d++ {
				path = append(path, fmt.Sprintf("%s.%d", path[len(path)-1], next()%3))
			}
			if b.AddPath(path...) != nil {
				return // a name reused at another depth: not a tree
			}
			names = append(names, path...)
		}
		tree, err := b.Build()
		if err != nil {
			return
		}
		if mode&1 == 1 {
			tree = tree.Extend()
		}
		var sb strings.Builder
		for line := 0; line < next()%24; line++ {
			switch w := next() % 8; w {
			case 0:
				sb.WriteString("\n")
			case 1:
				sb.WriteString("-\n")
			case 2:
				sb.WriteString("# comment\n")
			default:
				for i := 0; i < w-2; i++ {
					if i > 0 {
						sb.WriteString(", ")
					}
					if v := next(); v%16 == 15 {
						fmt.Fprintf(&sb, "unknown%d", v%5)
					} else {
						sb.WriteString(names[v%len(names)])
					}
				}
				sb.WriteString("\n")
			}
		}
		db, err := ReadBaskets(strings.NewReader(sb.String()), tree.Dict())
		if err != nil {
			t.Fatalf("generated baskets rejected: %v\n%s", err, sb.String())
		}
		CheckLevelsAgainstReference(t, db, tree)
		for _, shard := range Partition(db, 1+mode/2%3) {
			CheckLevelsAgainstReference(t, shard, tree)
		}
	})
}
