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

// TestScanTxsTrieDescent exercises the scan counter's hot loop — map the
// row to candidate ranks, descend the trie, account pruned probes —
// directly against a hand-built cell.
func TestScanTxsTrieDescent(t *testing.T) {
	c := newCell(1, 2)
	var m miner
	m.addCandidate(c, itemset.New(1, 2))
	m.addCandidate(c, itemset.New(2, 3))
	c.store.Freeze()
	counts := make([]int64, c.store.Len())
	p := partial{counts: counts}
	// Transaction {1,2,3,99}: 99 is filtered out by the candidate universe;
	// both pairs match with weight 5. Of the C(3,2)=3 remaining subsets,
	// {1,3} has no candidate and is pruned by the descent.
	data := levelOf(txdb.WeightedTx{Items: itemset.New(1, 2, 3, 99), Weight: 5})
	p.scanTxs(c, data, 0, data.Rows())
	p.chargeProbes(c.k)
	if p.pruned != 1 {
		t.Errorf("pruned = %d, want 1", p.pruned)
	}
	for w, n := range p.widths {
		if n != 0 {
			t.Errorf("width histogram kept %d rows of width %d after the unit", n, w)
		}
	}
	for _, set := range []itemset.Set{itemset.New(1, 2), itemset.New(2, 3)} {
		if got := counts[c.store.Lookup(set)]; got != 5 {
			t.Errorf("count of %v = %d", set, got)
		}
	}
	// Too-narrow transaction contributes nothing.
	before := append([]int64(nil), counts...)
	narrow := levelOf(txdb.WeightedTx{Items: itemset.New(2), Weight: 1})
	p.scanTxs(c, narrow, 0, narrow.Rows())
	p.chargeProbes(c.k)
	for i := range counts {
		if counts[i] != before[i] {
			t.Error("narrow transaction changed counts")
		}
	}
	if p.pruned != 1 {
		t.Errorf("a narrow transaction moved pruned to %d", p.pruned)
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

// TestCutUnits checks the work cutter: every shard's range is covered
// exactly once, in order, by non-empty units that start at block multiples;
// a pass gets at least `workers` units whenever the shards hold that many
// blocks; and one worker gets one unit per non-empty shard.
func TestCutUnits(t *testing.T) {
	for _, sizes := range [][]int{
		{0}, {1}, {511}, {512}, {513}, {2000}, {1000, 1000}, {667, 667, 666},
		{3000, 10, 0, 700}, {5, 5, 5, 5, 5, 5, 5, 5}, {1, 4096},
	} {
		for _, workers := range []int{1, 2, 3, 7, 16} {
			for _, block := range []int{1, 512} {
				units := cutUnits(nil, len(sizes), func(s int) int { return sizes[s] }, workers, block)
				next := make([]int, len(sizes)) // first uncovered index per shard
				for _, u := range units {
					if u.lo != next[u.s] || u.hi <= u.lo || u.lo%block != 0 {
						t.Fatalf("sizes %v workers %d block %d: unit %+v after [0, %d) of shard %d", sizes, workers, block, u, next[u.s], u.s)
					}
					next[u.s] = u.hi
				}
				blocks, nonEmpty := 0, 0
				for s, n := range sizes {
					if next[s] != n {
						t.Fatalf("sizes %v workers %d block %d: shard %d covered [0, %d) of [0, %d)", sizes, workers, block, s, next[s], n)
					}
					blocks += (n + block - 1) / block
					if n > 0 {
						nonEmpty++
					}
				}
				if want := min(workers, blocks); len(units) < want {
					t.Errorf("sizes %v workers %d block %d: %d units, want ≥ %d", sizes, workers, block, len(units), want)
				}
				if workers == 1 && len(units) != nonEmpty {
					t.Errorf("sizes %v block %d: one worker got %d units for %d non-empty shards", sizes, block, len(units), nonEmpty)
				}
			}
		}
	}
}
