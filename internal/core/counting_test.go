package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

func TestIntersectSupport(t *testing.T) {
	lists := map[itemset.ID][]int32{
		1: {0, 2, 4, 6, 8},
		2: {2, 3, 4, 8, 9},
		3: {4, 8},
		4: {},
	}
	var scratch tidScratch
	cases := []struct {
		items itemset.Set
		want  int64
	}{
		{itemset.New(1), 5},
		{itemset.New(1, 2), 3}, // {2,4,8}
		{itemset.New(1, 2, 3), 2},
		{itemset.New(1, 4), 0},    // empty list
		{itemset.New(1, 2, 9), 0}, // missing item entirely
	}
	for _, c := range cases {
		if got := intersectSupport(c.items, lists, &scratch); got != c.want {
			t.Errorf("intersect(%v) = %d, want %d", c.items, got, c.want)
		}
	}
	// The map-owned lists must be untouched after repeated calls.
	if len(lists[1]) != 5 || lists[1][0] != 0 || lists[2][4] != 9 {
		t.Error("intersectSupport mutated the tid lists")
	}
}

func TestIntersectSupportRandomAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		lists := map[itemset.ID][]int32{}
		k := 2 + rng.Intn(3)
		items := make([]itemset.ID, k)
		want := map[int32]int{}
		for i := 0; i < k; i++ {
			items[i] = itemset.ID(i)
			n := rng.Intn(30)
			seen := map[int32]bool{}
			for j := 0; j < n; j++ {
				tid := int32(rng.Intn(40))
				if !seen[tid] {
					seen[tid] = true
				}
			}
			var l []int32
			for tid := int32(0); tid < 40; tid++ {
				if seen[tid] {
					l = append(l, tid)
					want[tid]++
				}
			}
			lists[items[i]] = l
		}
		expected := int64(0)
		for _, cnt := range want {
			if cnt == k {
				expected++
			}
		}
		var scratch tidScratch
		if got := intersectSupport(itemset.New(items...), lists, &scratch); got != expected {
			t.Fatalf("trial %d: got %d, want %d", trial, got, expected)
		}
	}
}

// TestScanTxsTrieDescent exercises the scan counter's hot loop — filter to
// candidate-relevant items, descend the trie, account pruned probes —
// directly against a hand-built cell.
func TestScanTxsTrieDescent(t *testing.T) {
	c := newCell(1, 2)
	var m miner
	m.addCandidate(c, itemset.New(1, 2))
	m.addCandidate(c, itemset.New(2, 3))
	c.store.Freeze()
	counts := make([]int64, c.store.Len())
	// Transaction {1,2,3,99}: 99 is filtered out by the candidate universe;
	// both pairs match with weight 5. Of the C(3,2)=3 remaining subsets,
	// {1,3} has no candidate and is pruned by the descent.
	data := levelOf(txdb.WeightedTx{Items: itemset.New(1, 2, 3, 99), Weight: 5})
	pruned, _ := scanTxs(c, data, 0, data.Rows(), counts, nil)
	if pruned != 1 {
		t.Errorf("pruned = %d, want 1", pruned)
	}
	for _, set := range []itemset.Set{itemset.New(1, 2), itemset.New(2, 3)} {
		if got := counts[c.store.Lookup(set)]; got != 5 {
			t.Errorf("count of %v = %d", set, got)
		}
	}
	// Too-narrow transaction contributes nothing.
	before := append([]int64(nil), counts...)
	narrow := levelOf(txdb.WeightedTx{Items: itemset.New(2), Weight: 1})
	scanTxs(c, narrow, 0, narrow.Rows(), counts, nil)
	for i := range counts {
		if counts[i] != before[i] {
			t.Error("narrow transaction changed counts")
		}
	}
}

// levelOf lays weighted rows out as a level's row arena, in the given order.
func levelOf(rows ...txdb.WeightedTx) *txdb.Level {
	lv := &txdb.Level{Starts: []int32{0}}
	for _, wt := range rows {
		lv.Items = append(lv.Items, wt.Items...)
		lv.Starts = append(lv.Starts, int32(len(lv.Items)))
		lv.Weights = append(lv.Weights, wt.Weight)
	}
	return lv
}

func TestChooseStrategy(t *testing.T) {
	db, tree := paperToy(t)
	cfg := toyConfig()
	cfg.Strategy = CountAuto
	res, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 {
		t.Fatalf("auto strategy found %d patterns", len(res.Patterns))
	}
}

func TestAutoMatchesScanOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
			MinSupAbs: []int64{2, 1, 1}, Pruning: Full, Materialize: true,
		}
		cfg.Strategy = CountScan
		a, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Strategy = CountAuto
		b, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(a, tree) != fingerprint(b, tree) {
			t.Fatalf("trial %d: auto diverged from scan", trial)
		}
	}
}

// taxonomyBuilderForDense builds a flat, wide taxonomy: 40 categories with
// two leaves each, height 2 — so level 1 has 40 items and C(40,2) = 780
// pair candidates when supports are permissive.
func taxonomyBuilderForDense(t *testing.T) *taxonomy.Builder {
	t.Helper()
	b := taxonomy.NewBuilder(nil)
	for r := 0; r < 40; r++ {
		for l := 0; l < 2; l++ {
			if err := b.AddPath(fmt.Sprintf("cat%02d", r), fmt.Sprintf("leaf%02d.%d", r, l)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b
}

// txdbForDense draws n transactions of 8 random leaves each: dense enough
// that levels barely dedupe and candidate counts stay high.
func txdbForDense(rng *rand.Rand, tree *taxonomy.Tree, n int) *txdb.DB {
	db := txdb.New(tree.Dict())
	for i := 0; i < n; i++ {
		var names []string
		for j := 0; j < 8; j++ {
			names = append(names, fmt.Sprintf("leaf%02d.%d", rng.Intn(40), rng.Intn(2)))
		}
		db.AddNames(names...)
	}
	return db
}

// TestChooseStrategyPicksBitmapOnDenseCells drives CountAuto over a dense,
// high-candidate workload (many frequent items, wide transactions) and
// checks the cost model actually routes some cells to the bitmap backend:
// with hundreds of candidates against ⌈n/64⌉-word vectors, AND+popcount is
// the cheapest regime.
func TestChooseStrategyPicksBitmapOnDenseCells(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	b := taxonomyBuilderForDense(t)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := txdbForDense(rng, tree, 500)
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
		MinSupAbs: []int64{1, 1}, Pruning: Basic, Materialize: true,
		Strategy: CountAuto,
	}
	res, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BitmapBuilds == 0 {
		t.Fatalf("auto never chose bitmap on a dense workload: %+v", res.Stats)
	}
	// And the auto run must agree with a pure scan run.
	cfg.Strategy = CountScan
	want, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(res, tree) != fingerprint(want, tree) {
		t.Fatal("auto (with bitmap cells) diverged from scan")
	}
}

func TestTidListsBuiltLazilyOnce(t *testing.T) {
	db, tree := paperToy(t)
	cfg := toyConfig()
	minSup, err := cfg.validate(tree.Height(), db.Len())
	if err != nil {
		t.Fatal(err)
	}
	m := &miner{
		cfg: toyConfig(), tax: tree, src: db,
		height: tree.Height(), n: db.Len(), minSup: minSup,
	}
	if err := m.init(); err != nil {
		t.Fatal(err)
	}
	l1 := m.tidLists(1)[0]
	l2 := m.tidLists(1)[0]
	if &l1 == &l2 {
		// maps compare by header; check identity via a sentinel instead
		t.Log("map headers differ; asserting cache below")
	}
	a, _ := tree.Dict().Lookup("a")
	if len(l1[a]) != 8 {
		t.Errorf("tidlist of 'a' at level 1 has %d entries, want 8", len(l1[a]))
	}
	// Mutate the cached map; a second call must return the same cache.
	l1[a] = nil
	if got := m.tidLists(1)[0]; got[a] != nil {
		t.Error("tidLists rebuilt instead of cached")
	}
}
