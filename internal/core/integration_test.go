package core

import (
	"errors"
	"testing"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// tripleScenario plants a 3-itemset flipping pattern {la, lb, lc} across
// three categories with chain (+,−,+):
//
//	BOTH (2s×): {la, lb, lc}     — the pattern itself
//	PA  (20s×): {sa, xb, xc}     — midA without midB/midC, all roots together
//	PB  (20s×): {xa, sb, xc}
//	PC  (20s×): {xa, xb, sc}
//
// Root triple: every block holds one leaf per root → Kulc 1 (+).
// Mid triple: co-occurs only in BOTH → 2s/22s ≈ 0.091 (−).
// Leaf triple: Kulc 1 (+).
func tripleScenario(t *testing.T, s int) (*txdb.DB, *taxonomy.Tree) {
	t.Helper()
	b := taxonomy.NewBuilder(nil)
	for _, p := range [][]string{
		{"A", "A.m", "la"}, {"A", "A.m", "sa"}, {"A", "A.x", "xa"},
		{"B", "B.m", "lb"}, {"B", "B.m", "sb"}, {"B", "B.x", "xb"},
		{"C", "C.m", "lc"}, {"C", "C.m", "sc"}, {"C", "C.x", "xc"},
	} {
		if err := b.AddPath(p...); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := txdb.New(tree.Dict())
	emit := func(n int, names ...string) {
		for i := 0; i < n; i++ {
			db.AddNames(names...)
		}
	}
	emit(2*s, "la", "lb", "lc")
	emit(20*s, "sa", "xb", "xc")
	emit(20*s, "xa", "sb", "xc")
	emit(20*s, "xa", "xb", "sc")
	return db, tree
}

func TestPlantedTriplePattern(t *testing.T) {
	db, tree := tripleScenario(t, 2)
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.5, Epsilon: 0.1,
		MinSupAbs: []int64{1, 1, 1}, Materialize: true,
	}
	for _, pruning := range Levels() {
		cfg.Pruning = pruning
		res, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatalf("%v: %v", pruning, err)
		}
		var triple *Pattern
		for i := range res.Patterns {
			if res.Patterns[i].K() == 3 {
				if triple != nil {
					t.Fatalf("%v: more than one triple pattern", pruning)
				}
				triple = &res.Patterns[i]
			}
		}
		if triple == nil {
			t.Fatalf("%v: planted triple not found (%d patterns)", pruning, len(res.Patterns))
		}
		if got := names(tree, triple.Leaf); got != "la,lb,lc" {
			t.Fatalf("%v: triple = {%s}", pruning, got)
		}
		wantLabels := []Label{LabelPositive, LabelNegative, LabelPositive}
		for i, li := range triple.Chain {
			if li.Label != wantLabels[i] {
				t.Errorf("%v: level %d label %v, want %v", pruning, li.Level, li.Label, wantLabels[i])
			}
		}
		// The pairwise sub-patterns flip too in this construction.
		pairs := 0
		for _, p := range res.Patterns {
			if p.K() == 2 {
				pairs++
			}
		}
		if pairs != 3 {
			t.Errorf("%v: pair patterns = %d, want 3", pruning, pairs)
		}
	}
}

// TestTruncatedTaxonomyQuery exercises the paper's level-subset queries
// (Section 2.2): truncating a 3-level taxonomy to levels {1,3} re-bases the
// flipping definition onto the two remaining levels.
func TestTruncatedTaxonomyQuery(t *testing.T) {
	// In the paper toy, the full chain is + − + over levels 1..3. Dropping
	// level 2 leaves + at level 1 and + at the leaves — NOT flipping — so
	// {a11, b11} must vanish on the truncated tree.
	db, tree := paperToy(t)
	trunc, leafMap, err := tree.Truncate([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	tdb := db.MapLeaves(leafMap)
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.6, Epsilon: 0.35,
		MinSupAbs: []int64{1, 1}, Pruning: Full, Materialize: true,
	}
	res, err := Mine(tdb, trunc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		if names(trunc, p.Leaf) == "a11,b11" {
			t.Fatal("{a11,b11} reported as flipping on levels {1,3}, but both levels are positive")
		}
	}

	// Conversely, truncating to {2,3} keeps the − + tail: the pattern
	// survives as a 2-level flip.
	trunc23, leafMap23, err := tree.Truncate([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tdb23 := db.MapLeaves(leafMap23)
	res23, err := Mine(tdb23, trunc23, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res23.Patterns {
		if names(trunc23, p.Leaf) == "a11,b11" {
			found = true
			if p.Chain[0].Label != LabelNegative || p.Chain[1].Label != LabelPositive {
				t.Errorf("truncated chain labels: %v %v", p.Chain[0].Label, p.Chain[1].Label)
			}
		}
	}
	if !found {
		t.Fatal("{a11,b11} lost on levels {2,3} although its tail flips")
	}
}

// failingSource fails partway through every Scan, on its failAt-th
// transaction, simulating a disk source that dies mid-pass; Mine must
// surface the error, not partial results.
type failingSource struct {
	db     *txdb.DB
	failAt int
}

var errSentinel = errors.New("injected source failure")

func (f *failingSource) Scan(fn func(tx itemset.Set) error) error {
	seen := 0
	return f.db.Scan(func(tx itemset.Set) error {
		if seen++; seen == f.failAt {
			return errSentinel
		}
		return fn(tx)
	})
}
func (f *failingSource) Len() int               { return f.db.Len() }
func (f *failingSource) Dict() *dict.Dictionary { return f.db.Dict() }

// TestErrorPropagationFromSource fails the source on its first pass, which
// every configuration makes — the level build or the streaming
// single-support pass — and requires the mine to fail with the source's
// error.
func TestErrorPropagationFromSource(t *testing.T) {
	db, tree := paperToy(t)
	parts := txdb.Partition(db, 2)
	sharded, err := txdb.NewSharded(parts[0], &failingSource{db: parts[1], failAt: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		src         txdb.Source
		materialize bool
	}{
		{"materialized", &failingSource{db: db, failAt: 4}, true},
		{"streaming", &failingSource{db: db, failAt: 4}, false},
		{"sharded-2", sharded, true},
		{"sharded-2-streaming", sharded, false},
	} {
		cfg := toyConfig()
		cfg.Materialize = tc.materialize
		_, err := Mine(tc.src, tree, cfg)
		if !errors.Is(err, errSentinel) {
			t.Errorf("%s: Mine returned %v, want the source's error", tc.name, err)
		}
	}
}

// TestEmptyDatabase mines an empty database: no patterns, no panic.
func TestEmptyDatabase(t *testing.T) {
	_, tree := paperToy(t)
	empty := txdb.New(tree.Dict())
	cfg := toyConfig()
	res, err := Mine(empty, tree, cfg)
	if err != nil {
		t.Fatalf("empty database: %v", err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("patterns from empty database: %d", len(res.Patterns))
	}
}

// TestSingleCategory: all items under one level-1 node can never form a
// flipping pattern (distinct-roots requirement).
func TestSingleCategory(t *testing.T) {
	b := taxonomy.NewBuilder(nil)
	for _, p := range [][]string{{"only", "m1", "l1"}, {"only", "m1", "l2"}, {"only", "m2", "l3"}} {
		if err := b.AddPath(p...); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := txdb.New(tree.Dict())
	for i := 0; i < 20; i++ {
		db.AddNames("l1", "l2", "l3")
	}
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.5, Epsilon: 0.1,
		MinSupAbs: []int64{1, 1, 1}, Pruning: Full, Materialize: true,
	}
	res, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("single-category data produced %d patterns", len(res.Patterns))
	}
}
