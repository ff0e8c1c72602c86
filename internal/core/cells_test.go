package core

import (
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// newTestMiner builds a ready-to-generate miner over the given dataset.
func newTestMiner(t *testing.T, db *txdb.DB, tree *taxonomy.Tree, cfg Config) *miner {
	t.Helper()
	minSup, err := cfg.validate(tree.Height(), db.Len())
	if err != nil {
		t.Fatal(err)
	}
	m := &miner{cfg: cfg, tax: tree, src: db, height: tree.Height(), n: db.Len(), minSup: minSup}
	if err := m.init(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRow1CellPairs(t *testing.T) {
	db, tree := paperToy(t)
	m := newTestMiner(t, db, tree, toyConfig())
	c := m.aprioriCell(1, 2)
	// Two frequent level-1 items -> exactly one pair candidate {a, b}.
	if c.candidates != 1 {
		t.Fatalf("candidates = %d", c.candidates)
	}
	a, _ := tree.Dict().Lookup("a")
	b, _ := tree.Dict().Lookup("b")
	if c.store.Lookup(itemset.New(a, b)) < 0 {
		t.Fatal("pair {a,b} missing")
	}
}

func TestRow1CellJoins(t *testing.T) {
	// Three categories, all pairs and the triple frequent: the k=3 join
	// must produce the triple exactly once.
	bld := taxonomy.NewBuilder(nil)
	for _, p := range [][]string{{"x", "x1"}, {"y", "y1"}, {"z", "z1"}} {
		if err := bld.AddPath(p...); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := txdb.New(tree.Dict())
	for i := 0; i < 5; i++ {
		db.AddNames("x1", "y1", "z1")
	}
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.5, Epsilon: 0.1,
		MinSupAbs: []int64{1, 1}, Pruning: Full,
	}
	m := newTestMiner(t, db, tree, cfg)
	c2 := m.aprioriCell(1, 2)
	m.finishCell(c2)
	m.rows[1][2] = c2
	if c2.frequent != 3 {
		t.Fatalf("frequent pairs = %d", c2.frequent)
	}
	c3 := m.aprioriCell(1, 3)
	if c3.candidates != 1 {
		t.Fatalf("triple candidates = %d", c3.candidates)
	}
}

func TestRow1SubsetPruning(t *testing.T) {
	// Pairs {w,x}, {w,y}, {w,z} are frequent (enough pairs to attempt k=3
	// joins) but no pair among {x,y,z} is, so every joined triple must be
	// subset-pruned before counting.
	bld := taxonomy.NewBuilder(nil)
	for _, p := range [][]string{{"w", "w1"}, {"x", "x1"}, {"y", "y1"}, {"z", "z1"}} {
		if err := bld.AddPath(p...); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := txdb.New(tree.Dict())
	for i := 0; i < 4; i++ {
		db.AddNames("w1", "x1")
		db.AddNames("w1", "y1")
		db.AddNames("w1", "z1")
	}
	db.AddNames("x1", "y1") // support 1 < θ=2
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.5, Epsilon: 0.1,
		MinSupAbs: []int64{2, 2}, Pruning: Full,
	}
	m := newTestMiner(t, db, tree, cfg)
	c2 := m.aprioriCell(1, 2)
	m.finishCell(c2)
	m.rows[1][2] = c2
	if c2.frequent != 3 {
		t.Fatalf("frequent pairs = %d, want 3", c2.frequent)
	}
	c3 := m.aprioriCell(1, 3)
	if c3.candidates != 0 {
		t.Fatalf("triple candidates = %d, want 0 (subset pruned)", c3.candidates)
	}
	if m.stats.SubsetPruned == 0 {
		t.Error("SubsetPruned counter not incremented")
	}
}

func TestChildCellExpansionGatedOnAlive(t *testing.T) {
	db, tree := paperToy(t)
	m := newTestMiner(t, db, tree, toyConfig())
	c1 := m.aprioriCell(1, 2)
	m.finishCell(c1)
	m.rows[1][2] = c1
	c2 := m.childCell(2, 2)
	m.finishCell(c2)
	m.rows[2][2] = c2
	// {a,b} is alive -> 4 child combos.
	if c2.candidates != 4 {
		t.Fatalf("level-2 candidates = %d", c2.candidates)
	}
	// Row 3 expands only the alive {a1,b1}.
	c3 := m.childCell(3, 2)
	if c3.candidates != 4 {
		t.Fatalf("level-3 candidates = %d (children of the single alive pair)", c3.candidates)
	}
	// Kill the chain: mark everything dead and expansion stops.
	for i := range c2.meta {
		c2.meta[i].alive = false
	}
	c3b := m.childCell(3, 2)
	if c3b.candidates != 0 {
		t.Fatalf("dead parents produced %d candidates", c3b.candidates)
	}
}

func TestChildCellSkipsSIBPExcluded(t *testing.T) {
	db, tree := paperToy(t)
	m := newTestMiner(t, db, tree, toyConfig())
	c1 := m.aprioriCell(1, 2)
	m.finishCell(c1)
	m.rows[1][2] = c1
	// Exclude a1 at level 2: the children combos through a1 must vanish.
	a1, _ := tree.Dict().Lookup("a1")
	m.excluded[2][a1] = 1
	c2 := m.childCell(2, 2)
	if c2.candidates != 2 {
		t.Fatalf("candidates with a1 excluded = %d, want 2 (a2 × {b1,b2})", c2.candidates)
	}
	c2.store.Walk(func(_ int32, items itemset.Set) {
		if items.Contains(a1) {
			t.Fatal("excluded item appeared in a candidate")
		}
	})
}

func TestBasicCellDistinctRoots(t *testing.T) {
	// Items sharing a level-1 root must never pair in BASIC cells.
	db, tree := paperToy(t)
	cfg := toyConfig()
	cfg.Pruning = Basic
	m := newTestMiner(t, db, tree, cfg)
	c := m.aprioriCell(3, 2)
	a11, _ := tree.Dict().Lookup("a11")
	a12, _ := tree.Dict().Lookup("a12")
	if c.store.Lookup(itemset.New(a11, a12)) >= 0 {
		t.Fatal("same-root pair {a11,a12} generated by basicCell")
	}
	// Cross-root pairs are present.
	b11, _ := tree.Dict().Lookup("b11")
	if c.store.Lookup(itemset.New(a11, b11)) < 0 {
		t.Fatal("cross-root pair {a11,b11} missing from basicCell")
	}
}

// TestFrequentSetsOrdering pins the deterministic-iteration contract the
// Apriori join relies on: frequentSets yields lexicographic itemset order,
// exactly what the old sorted-key-string iteration produced.
func TestFrequentSetsOrdering(t *testing.T) {
	c := newCell(1, 2)
	var m miner
	for _, s := range []itemset.Set{itemset.New(3, 4), itemset.New(1, 2), itemset.New(1, 9)} {
		m.addCandidate(c, s)
	}
	sets := c.frequentSets()
	if len(sets) != 3 {
		t.Fatalf("frequentSets returned %d sets", len(sets))
	}
	for i := 1; i < len(sets); i++ {
		if itemset.Compare(sets[i-1], sets[i]) >= 0 {
			t.Fatalf("sets not in lexicographic order: %v before %v", sets[i-1], sets[i])
		}
	}
	if !sets[0].Equal(itemset.New(1, 2)) {
		t.Errorf("first set = %v", sets[0])
	}
	// Marking an entry infrequent removes it from iteration.
	c.meta[c.store.Lookup(itemset.New(1, 9))].infrequent = true
	if got := c.frequentSets(); len(got) != 2 {
		t.Fatalf("after marking infrequent: %d sets", len(got))
	}
}
