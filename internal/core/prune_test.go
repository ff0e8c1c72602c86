package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// tpgScenario engineers a dataset where every pair at levels 1 and 2 is
// non-positive under a high γ, so the TPG check must terminate column
// growth immediately after k=2 — while wider itemsets would otherwise be
// generated (transactions are wide enough for k=3).
func tpgScenario(t *testing.T) (*txdb.DB, *taxonomy.Tree) {
	t.Helper()
	b := taxonomy.NewBuilder(nil)
	for _, p := range [][]string{
		{"x", "x1", "x11"}, {"x", "x1", "x12"},
		{"y", "y1", "y11"}, {"y", "y1", "y12"},
		{"z", "z1", "z11"}, {"z", "z1", "z12"},
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
	// Each category appears often alone; triples co-occur rarely, so all
	// cross-category correlations are weakly positive at best.
	for i := 0; i < 30; i++ {
		db.AddNames("x11")
		db.AddNames("y11")
		db.AddNames("z11")
	}
	for i := 0; i < 3; i++ {
		db.AddNames("x11", "y11", "z11")
		db.AddNames("x12", "y12", "z12")
	}
	return db, tree
}

func TestTPGTerminatesColumns(t *testing.T) {
	db, tree := tpgScenario(t)
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.9, Epsilon: 0.01,
		MinSupAbs: []int64{1, 1, 1}, KeepCellStats: true,
	}
	cfg.Pruning = FlippingTPG
	res, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TPGBreaks == 0 {
		t.Fatal("TPG did not fire although all pairs are non-positive")
	}
	// No cell beyond k=2 may have been counted in rows 1-2.
	for _, cs := range res.Stats.Cells {
		if cs.H <= 2 && cs.K > 2 && cs.Candidates > 0 {
			t.Errorf("cell Q(%d,%d) counted %d candidates after TPG", cs.H, cs.K, cs.Candidates)
		}
	}
	// Without TPG, k=3 cells are explored (the data is wide enough).
	cfg.Pruning = Flipping
	res2, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counted3 := false
	for _, cs := range res2.Stats.Cells {
		if cs.K == 3 && cs.Candidates > 0 {
			counted3 = true
		}
	}
	if !counted3 {
		t.Fatal("scenario too narrow: no k=3 candidates even without TPG")
	}
	// Both configurations agree on the output (none here).
	if len(res.Patterns) != len(res2.Patterns) {
		t.Errorf("TPG changed the result: %d vs %d", len(res.Patterns), len(res2.Patterns))
	}
}

// sibpScenario: item "rare" has the smallest support at its level and never
// appears in a positive itemset, and neither does its parent — Corollary 2
// lets SIBP exclude it from wider candidate generation.
func sibpScenario(t *testing.T) (*txdb.DB, *taxonomy.Tree) {
	t.Helper()
	b := taxonomy.NewBuilder(nil)
	for _, p := range [][]string{
		{"p", "p1", "rare"}, {"p", "p1", "p11"},
		{"q", "q1", "q11"}, {"q", "q1", "q12"},
		{"r", "r1", "r11"}, {"r", "r1", "r12"},
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
	// q and r correlate strongly with each other (and will keep the miner
	// busy at k=2..3); "rare" co-occurs with everything only occasionally,
	// so its max correlation stays below γ.
	for i := 0; i < 40; i++ {
		db.AddNames("q11", "r11")
		db.AddNames("q12", "r12")
	}
	for i := 0; i < 12; i++ {
		db.AddNames("p11", "q11", "r11")
	}
	db.AddNames("rare", "q11", "r11")
	db.AddNames("rare", "q12")
	db.AddNames("rare", "r12")
	return db, tree
}

func TestSIBPExcludesHopelessItems(t *testing.T) {
	db, tree := sibpScenario(t)
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.5, Epsilon: 0.05,
		MinSupAbs: []int64{1, 1, 1},
	}
	cfg.Pruning = Full
	res, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SIBPExcludedItems == 0 {
		t.Fatal("SIBP never fired in a scenario built for it")
	}
	// Pruning must not change the answer.
	cfg.Pruning = Basic
	want, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(res, tree) != fingerprint(want, tree) {
		t.Fatal("SIBP changed the mined patterns")
	}
}

func TestSIBPBookkeepingDirect(t *testing.T) {
	// Direct unit test of sibpUpdate/sibpExclude on a hand-built miner.
	db, tree := sibpScenario(t)
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.5, Epsilon: 0.05,
		MinSupAbs: []int64{1, 1, 1}, Pruning: Full,
	}
	minSup, err := cfg.validate(tree.Height(), db.Len())
	if err != nil {
		t.Fatal(err)
	}
	m := &miner{cfg: cfg, tax: tree, src: db, height: tree.Height(), n: db.Len(), minSup: minSup}
	if err := m.init(); err != nil {
		t.Fatal(err)
	}
	// Build and count Q(1,2) and Q(2,2) the way the zigzag would.
	c1 := m.aprioriCell(1, 2)
	m.finishCell(c1)
	m.rows[1][2] = c1
	c2 := m.childCell(2, 2)
	m.finishCell(c2)
	m.rows[2][2] = c2
	m.sibpUpdate(1, 2, c1)
	m.sibpUpdate(2, 2, c2)
	if m.rsetCol[1] != 2 || m.rsetCol[2] != 2 {
		t.Fatal("R-set columns not recorded")
	}
	m.sibpExclude(2, 2)
	// With every frequent item in both R sets, matching columns exclude and
	// a column mismatch must disable exclusion.
	for _, col := range []int{2, 3} {
		m2 := &miner{cfg: cfg, tax: tree, src: db, height: tree.Height(), n: db.Len(), minSup: minSup}
		if err := m2.init(); err != nil {
			t.Fatal(err)
		}
		m2.rsetEnd[1], m2.rsetEnd[2] = len(m2.ds.order[1]), len(m2.ds.order[2])
		m2.rsetCol[1] = 2
		m2.rsetCol[2] = col
		m2.sibpExclude(2, col)
		if got := m2.stats.SIBPExcludedItems; (got != 0) != (col == 2) {
			t.Errorf("R sets of columns 2 and %d excluded %d items", col, got)
		}
	}
}

func TestTPGRequiresFrequentEvidence(t *testing.T) {
	// Two empty cells must not satisfy the TPG condition: a cell left empty
	// by vertical gating proves nothing about wider itemsets.
	m := &miner{cfg: Config{Pruning: FlippingTPG}}
	up, down := newCell(1, 2), newCell(2, 2)
	if m.tpg(up, down) {
		t.Error("TPG fired on two empty cells")
	}
	up.frequent = 1
	if !m.tpg(up, down) {
		t.Error("TPG must fire: one frequent non-positive itemset, zero positives")
	}
	up.positive = 1
	if m.tpg(up, down) {
		t.Error("TPG fired despite a positive itemset")
	}
	m.cfg.Pruning = Flipping
	up.positive = 0
	if m.tpg(up, down) {
		t.Error("TPG fired while disabled")
	}
}

// sibpRef is SIBP's set form, kept as a test-local reference: R_h(k) as a
// set, built by walking the level's frequent items by ascending (support,
// ID), skipping excluded ones, up to the first item whose maximum
// correlation over the cell's frequent itemsets reaches γ. An exclusion
// leaves the set as it was taken.
type sibpRef struct {
	m        *miner
	excluded []map[itemset.ID]bool
	rset     []map[itemset.ID]bool
	rsetCol  []int
}

func newSIBPRef(m *miner) *sibpRef {
	r := &sibpRef{m: m, rset: make([]map[itemset.ID]bool, m.height+1), rsetCol: make([]int, m.height+1)}
	for h := 0; h <= m.height; h++ {
		r.excluded = append(r.excluded, map[itemset.ID]bool{})
	}
	return r
}

// frequentBySup lists level h's frequent items by ascending (support, ID),
// from the supports alone.
func (r *sibpRef) frequentBySup(h int) []itemset.ID {
	var out []itemset.ID
	sup := r.m.ds.sup1[h]
	for id := range sup {
		if sup[id] >= r.m.minSup[h] {
			out = append(out, itemset.ID(id))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return sup[out[i]] < sup[out[j]] })
	return out
}

// update takes R_h(k) from a counted cell and returns the item that ends
// the prefix, or -1 when no item does.
func (r *sibpRef) update(h, k int, c *cell) itemset.ID {
	maxCorr := map[itemset.ID]float64{}
	for i := range c.meta {
		e := &c.meta[i]
		if e.infrequent {
			continue
		}
		for _, id := range c.store.Items(int32(i)) {
			if e.corr > maxCorr[id] {
				maxCorr[id] = e.corr
			}
		}
	}
	set := map[itemset.ID]bool{}
	end := itemset.ID(-1)
	for _, id := range r.frequentBySup(h) {
		if r.excluded[h][id] {
			continue
		}
		if maxCorr[id] >= r.m.cfg.Gamma {
			end = id
			break
		}
		set[id] = true
	}
	r.rset[h], r.rsetCol[h] = set, k
	return end
}

// exclude excludes the items of R_h(k) whose parents are in R_{h-1}(k) and
// returns how many of those parents the row above excluded in the same
// column, after its R set was taken.
func (r *sibpRef) exclude(h, k int) (sameColumn int) {
	if h < 2 || r.rset[h] == nil || r.rset[h-1] == nil || r.rsetCol[h] != k || r.rsetCol[h-1] != k {
		return 0
	}
	for id := range r.rset[h] {
		if p, ok := r.m.tax.AncestorAt(id, h-1); ok && r.rset[h-1][p] && !r.excluded[h][id] {
			r.excluded[h][id] = true
			if r.excluded[h-1][p] {
				sameColumn++
			}
		}
	}
	return sameColumn
}

// TestSIBPPrefixBoundMatchesSetForm runs the Full search on random data,
// stepping SIBP's prefix-bound state and the set-form reference side by
// side, and checks after every update and exclusion that the frequent-item
// cut, the prefix's end, R-set membership and every exclusion agree. Rows ≥
// 3 must meet an exclusion through a parent that its own row excluded in R's
// column, which still counts as a member of R. The stepped search must
// report the counters of the real one.
func TestSIBPPrefixBoundMatchesSetForm(t *testing.T) {
	rng := rand.New(rand.NewSource(2011))
	trials := 400
	if testing.Short() {
		trials = 100
	}
	updates, exclusions, sameColumn := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure:   measure.All()[rng.Intn(len(measure.All()))],
			Gamma:     0.3 + rng.Float64()*0.5,
			MinSupAbs: []int64{int64(1 + rng.Intn(4)), int64(1 + rng.Intn(3)), int64(1 + rng.Intn(2))},
			Pruning:   Full,
		}
		cfg.Epsilon = cfg.Gamma * rng.Float64() / 2
		m := newTestMiner(t, db, tree, cfg)
		ref := newSIBPRef(m)
		at := func(h, k int) string { return fmt.Sprintf("trial %d Q(%d,%d)", trial, h, k) }
		checkR := func(h, k int) {
			t.Helper()
			for _, id := range ref.frequentBySup(h) {
				if got, want := m.inRSet(h, id), ref.rset[h][id]; got != want {
					t.Fatalf("%s: %s in R_%d = %v, want %v", at(h, k), tree.Name(id), h, got, want)
				}
			}
		}
		update := func(h, k int, c *cell) {
			t.Helper()
			m.sibpUpdate(h, k, c)
			end := ref.update(h, k, c)
			if got, want := m.ds.order[h][m.cut[h]:], ref.frequentBySup(h); !slices.Equal(got, want) {
				t.Fatalf("%s: frequent items by support %v, want %v", at(h, k), got, want)
			}
			want := len(m.ds.order[h])
			if end >= 0 {
				want = slices.Index(m.ds.order[h], end)
			}
			if m.rsetEnd[h] != want || m.rsetCol[h] != k {
				t.Fatalf("%s: R ends at %d of column %d, want %d of %d", at(h, k), m.rsetEnd[h], m.rsetCol[h], want, k)
			}
			checkR(h, k)
			updates++
		}
		exclude := func(h, k int) {
			t.Helper()
			before := m.stats.SIBPExcludedItems
			m.sibpExclude(h, k)
			n := ref.exclude(h, k)
			if h >= 3 {
				sameColumn += n
			}
			for id := range m.excluded[h] {
				got, want := m.excluded[h][id] != 0, ref.excluded[h][itemset.ID(id)]
				if got != want || got && m.excluded[h][id] > int32(k) {
					t.Fatalf("%s: %s excluded at column %d, want excluded=%v", at(h, k), tree.Name(itemset.ID(id)), m.excluded[h][id], want)
				}
			}
			exclusions += int(m.stats.SIBPExcludedItems - before)
			checkR(h, k)
			checkR(h-1, k)
		}
		// mineFlipper's order of steps, with the checks in between.
		for k := 2; k <= m.maxK; k++ {
			c1 := m.aprioriCell(1, k)
			m.finishCell(c1)
			m.rows[1][k] = c1
			c2 := m.childCell(2, k)
			m.finishCell(c2)
			m.rows[2][k] = c2
			update(1, k, c1)
			update(2, k, c2)
			exclude(2, k)
			if c1.candidates == 0 || m.tpg(c1, c2) {
				break
			}
		}
		for h := 3; h <= m.height; h++ {
			for k := 2; k <= m.maxK; k++ {
				parent := m.rows[h-1][k]
				if parent == nil {
					break
				}
				c := m.childCell(h, k)
				m.finishCell(c)
				m.rows[h][k] = c
				update(h, k, c)
				exclude(h, k)
				if m.tpg(parent, c) {
					break
				}
			}
			m.freeRow(h - 2)
		}
		res, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.stats.SIBPExcludedItems != res.Stats.SIBPExcludedItems || m.stats.CandidatesCounted != res.Stats.CandidatesCounted || m.stats.TPGBreaks != res.Stats.TPGBreaks {
			t.Fatalf("trial %d: the stepped search counted %+v, Mine %+v", trial, m.stats, res.Stats)
		}
		m.release()
	}
	t.Logf("%d R sets, %d exclusions, %d in rows ≥ 3 through a same-column exclusion above", updates, exclusions, sameColumn)
	if exclusions == 0 || sameColumn == 0 {
		t.Fatalf("the random data never excluded an item (%d) or never through a same-column exclusion in rows ≥ 3 (%d)", exclusions, sameColumn)
	}
}
