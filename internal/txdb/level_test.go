package txdb

import (
	"fmt"
	"math"
	"math/rand"
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
// supports and width must all match.
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
// hand-assembled copy of it — to equal the reference algorithm. The view's
// transactions, in scan order, must be the reference's.
func CheckLevelsAgainstReference(t testing.TB, src Source, tree *taxonomy.Tree) {
	t.Helper()
	levels, err := BuildLevels([]Source{src}, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= tree.Height(); h++ {
		ref, err := buildRefLevel(src, tree, h)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffLevel(levels[0][h], ref); err != nil {
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

// checkShardLevels builds the levels of shards with BuildLevels on the given
// number of workers and requires every shard's levels to equal the
// reference built from that shard alone.
func checkShardLevels(t testing.TB, shards []Source, tree *taxonomy.Tree, workers int) {
	t.Helper()
	levels, err := BuildLevels(shards, tree, workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != len(shards) {
		t.Fatalf("%d workers: levels for %d shards, want %d", workers, len(levels), len(shards))
	}
	for s, shard := range shards {
		if levels[s][0] != nil || len(levels[s]) != tree.Height()+1 {
			t.Fatalf("%d workers, shard %d: %d level slots, index 0 set: %v", workers, s, len(levels[s]), levels[s][0] != nil)
		}
		for h := 1; h <= tree.Height(); h++ {
			ref, err := buildRefLevel(shard, tree, h)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffLevel(levels[s][h], ref); err != nil {
				t.Fatalf("%d workers, shard %d, level %d: %v", workers, s, h, err)
			}
		}
	}
}

// scanOnly hides a source's type, so BuildLevels builds it as a source it
// cannot re-read cheaply: one unit, every level in one pass.
type scanOnly struct{ Source }

// unitShards partitions db into n shards and hides every other one's type,
// so a build mixes per-level units with one-pass units.
func unitShards(db *DB, n int) []Source {
	var shards []Source
	for i, p := range Partition(db, n) {
		if i%2 == 1 {
			shards = append(shards, scanOnly{p})
		} else {
			shards = append(shards, p)
		}
	}
	return shards
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
		CheckLevelsAgainstReference(t, scanOnly{db}, tr)
		for _, shard := range Partition(db, 3) {
			CheckLevelsAgainstReference(t, shard, tr)
		}
		for _, workers := range []int{1, 2, 7} {
			checkShardLevels(t, unitShards(db, 3), tr, workers)
		}
	}
}

// FuzzBuildLevels decodes the input into a taxonomy (unbalanced, and
// leaf-copy extended when the first byte says so), basket lines (empty, "-",
// comments, unknown and internal names) and a shard count of 1–3, and
// checks the level build of the whole database and of every shard against
// the reference, and the build of all shards at once — per-level units for
// in-memory shards, one-pass units for the others — on 1, 2 and 7 workers.
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
		shards := 1 + mode/2%3
		for _, shard := range Partition(db, shards) {
			CheckLevelsAgainstReference(t, shard, tree)
		}
		for _, workers := range []int{1, 2, 7} {
			checkShardLevels(t, unitShards(db, shards), tree, workers)
		}
	})
}

// TestRowTableChunks interns rows of random widths, repeats, empty rows and
// rows wider than a whole arena chunk, and requires every row to read back
// as interned under its first-seen number, across chunk switches, and the
// finished level to hold the rows sorted with their counts.
func TestRowTableChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := newRowTable()
	var rows []itemset.Set
	index := map[string]int32{}
	counts := map[string]int64{}
	add := func(tx itemset.Set) {
		key := fmt.Sprint(tx)
		want, seen := index[key]
		if !seen {
			want = int32(len(rows))
			index[key] = want
			rows = append(rows, tx)
		}
		counts[key]++
		if got := tab.add(tx); got != want {
			t.Fatalf("row %v interned as %d, want %d", tx, got, want)
		}
	}
	for i := 0; i < 6000; i++ {
		switch {
		case i == 1508 || i > 1508 && i%997 == 0:
			add(nil) // first right after a row that fills its own chunk
		case i%1500 == 7:
			wide := make([]itemset.ID, arenaChunk+1+rng.Intn(9))
			for j := range wide {
				wide[j] = itemset.ID(j + i)
			}
			add(wide)
		case i%3 == 0 && len(rows) > 0:
			add(rows[rng.Intn(len(rows))])
		default:
			w := rng.Intn(60)
			items := make([]itemset.ID, w)
			for j := range items {
				items[j] = itemset.ID(rng.Intn(500))
			}
			add(itemset.New(items...))
		}
	}
	if len(tab.chunks) < 5 {
		t.Fatalf("%d arena chunks: the rows never crossed a chunk", len(tab.chunks))
	}
	for r, want := range rows {
		if got := tab.row(int32(r)); !got.Equal(want) {
			t.Fatalf("row %d reads %d items, interned %d", r, len(got), len(want))
		}
	}
	tab.slots = nil
	l, order := tab.finish()
	if l.Rows() != len(rows) || len(order) != len(rows) {
		t.Fatalf("finished %d rows (order %d), interned %d", l.Rows(), len(order), len(rows))
	}
	for r := 0; r < l.Rows(); r++ {
		row := l.Row(r)
		if r > 0 && itemset.Compare(l.Row(r-1), row) >= 0 {
			t.Fatalf("rows %d and %d out of order", r-1, r)
		}
		if !row.Equal(rows[order[r].row]) || l.Weights[r] != counts[fmt.Sprint(row)] {
			t.Fatalf("row %d: %d items ×%d, want row %d ×%d", r, len(row), l.Weights[r], order[r].row, counts[fmt.Sprint(row)])
		}
	}
}
