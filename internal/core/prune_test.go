package core

import (
	"testing"

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
	// Column mismatch must disable exclusion.
	m2 := &miner{cfg: cfg, tax: tree, src: db, height: tree.Height(), n: db.Len(), minSup: minSup}
	if err := m2.init(); err != nil {
		t.Fatal(err)
	}
	m2.rset[1] = map[int32]bool{}
	m2.rset[2] = map[int32]bool{}
	m2.rsetCol[1] = 2
	m2.rsetCol[2] = 3
	m2.sibpExclude(2, 3)
	if len(m2.excluded[2]) != 0 {
		t.Error("stale R-set produced exclusions")
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
