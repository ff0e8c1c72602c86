package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// The equivalence suite is the central correctness instrument of this
// reproduction: on randomized datasets, every pruning level must produce
// exactly the flipping patterns that the BASIC baseline finds by complete
// enumeration and post-filtering. Flipping-gated generation is complete
// because every generalization of a flipping pattern is chain-alive (see
// miner.childCell); TPG and SIBP as specified in the paper are validated
// here empirically.

// randomDataset builds a random balanced taxonomy and a transaction mix with
// strong intra-branch correlations so that labeled itemsets (and therefore
// flips) actually occur.
func randomDataset(rng *rand.Rand) (*txdb.DB, *taxonomy.Tree) {
	roots := 2 + rng.Intn(3)  // 2..4 level-1 categories
	fanout := 2 + rng.Intn(2) // 2..3 children per node
	height := 3               // levels: root categories, mid, leaves
	b := taxonomy.NewBuilder(nil)
	var leaves []string
	for r := 0; r < roots; r++ {
		root := fmt.Sprintf("c%d", r)
		for m := 0; m < fanout; m++ {
			mid := fmt.Sprintf("c%d.%d", r, m)
			for l := 0; l < fanout; l++ {
				leaf := fmt.Sprintf("c%d.%d.%d", r, m, l)
				if err := b.AddPath(root, mid, leaf); err != nil {
					panic(err)
				}
				leaves = append(leaves, leaf)
			}
		}
	}
	tree, err := b.Build()
	if err != nil {
		panic(err)
	}
	if tree.Height() != height {
		panic("unexpected height")
	}
	db := txdb.New(tree.Dict())
	n := 60 + rng.Intn(120)
	// A few "pair templates" create deliberate co-occurrence structure.
	type template struct{ a, b string }
	var templates []template
	for i := 0; i < 3+rng.Intn(4); i++ {
		templates = append(templates, template{
			a: leaves[rng.Intn(len(leaves))],
			b: leaves[rng.Intn(len(leaves))],
		})
	}
	for i := 0; i < n; i++ {
		var names []string
		if rng.Float64() < 0.65 {
			tpl := templates[rng.Intn(len(templates))]
			names = append(names, tpl.a)
			if rng.Float64() < 0.8 {
				names = append(names, tpl.b)
			}
		}
		w := 1 + rng.Intn(4)
		for j := 0; j < w; j++ {
			names = append(names, leaves[rng.Intn(len(leaves))])
		}
		db.AddNames(names...)
	}
	return db, tree
}

// fingerprint renders a result to a canonical string: every pattern's chain
// with supports, rounded correlations and labels.
func fingerprint(res *Result, tree *taxonomy.Tree) string {
	lines := make([]string, 0, len(res.Patterns))
	for _, p := range res.Patterns {
		var sb strings.Builder
		for _, li := range p.Chain {
			fmt.Fprintf(&sb, "L%d%s|%d|%.9f|%s;", li.Level, tree.FormatSet(li.Items), li.Support, li.Corr, li.Label)
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestPruningLevelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20110831)) // VLDB 2011 submission era
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure:   measure.Kulczynski,
			Gamma:     0.25 + rng.Float64()*0.4,
			Epsilon:   0.02 + rng.Float64()*0.15,
			MinSupAbs: []int64{int64(1 + rng.Intn(4)), int64(1 + rng.Intn(3)), 1},
		}
		if cfg.Epsilon >= cfg.Gamma {
			cfg.Epsilon = cfg.Gamma / 2
		}
		var want string
		for _, pruning := range Levels() {
			c := cfg
			c.Pruning = pruning
			res, err := Mine(db, tree, c)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, pruning, err)
			}
			fp := fingerprint(res, tree)
			if pruning == Basic {
				want = fp
				continue
			}
			if fp != want {
				t.Fatalf("trial %d: %v diverged from basic.\nbasic:\n%s\n%v:\n%s",
					trial, pruning, want, pruning, fp)
			}
		}
	}
}

// strategyNames lists every spelling ParseCountStrategy accepts.
var strategyNames = []string{"scan", "auto", "bitmap", "bits", "tidlist", "tid"}

// TestStrategyEquivalence pins the strategy aliases on random data: every
// accepted spelling mines scan's envelope, patterns and stats alike.
func TestStrategyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure:   measure.Kulczynski,
			Gamma:     0.3,
			Epsilon:   0.1,
			MinSupAbs: []int64{2, 1, 1},
			Pruning:   Full,
		}
		a, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := scrubbedJSON(t, a, tree)
		for _, name := range strategyNames {
			if cfg.Strategy, err = ParseCountStrategy(name); err != nil {
				t.Fatal(err)
			}
			b, err := Mine(db, tree, cfg)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if got := scrubbedJSON(t, b, tree); !bytes.Equal(got, want) {
				t.Fatalf("trial %d: %s diverged from scan.\nscan:\n%s\n%s:\n%s", trial, name, want, name, got)
			}
		}
	}
}

// bruteForceReference mines flipping patterns with none of the engine's
// machinery: map[string]int64 support counting by subset enumeration over
// materialized level views, then chain assembly by generalization lookups.
// It is the retained map-based reference the trie-indexed candidate store
// replaced, kept as an independent oracle.
func bruteForceReference(t *testing.T, db *txdb.DB, tree *taxonomy.Tree, cfg Config) string {
	t.Helper()
	H := tree.Height()
	minSup, err := cfg.validate(H, db.Len())
	if err != nil {
		t.Fatal(err)
	}
	maxK := cfg.MaxK
	if maxK <= 0 {
		t.Fatal("bruteForceReference needs cfg.MaxK to bound enumeration")
	}
	// Count every 2..maxK-subset of every transaction at every level into
	// string-keyed maps — the representation the candidate store replaced.
	counts := make([]map[string]int64, H+1)
	views := make([]*txdb.LevelView, H+1)
	for h := 1; h <= H; h++ {
		lv, err := txdb.Materialize(db, tree, h)
		if err != nil {
			t.Fatal(err)
		}
		views[h] = lv
		counts[h] = make(map[string]int64)
		for _, tx := range lv.Tx {
			for k := 2; k <= maxK; k++ {
				itemset.KSubsets(tx, k, func(sub itemset.Set) {
					counts[h][sub.Key()]++
				})
			}
		}
	}
	label := func(h int, items itemset.Set) (Label, int64, float64, bool) {
		sup := counts[h][items.Key()]
		if sup < minSup[h] {
			return LabelNone, 0, 0, false
		}
		sups := make([]int64, len(items))
		for i, id := range items {
			sups[i] = views[h].Support[id]
		}
		corr := cfg.Measure.Corr(sup, sups)
		switch {
		case corr >= cfg.Gamma:
			return LabelPositive, sup, corr, true
		case corr <= cfg.Epsilon:
			return LabelNegative, sup, corr, true
		}
		return LabelNone, sup, corr, true
	}
	// A leaf-level itemset is a flipping pattern when its generalization at
	// every level keeps k distinct items, is frequent, labeled, and the
	// labels alternate down the chain.
	var lines []string
	for key := range counts[H] {
		leaf, err := itemset.ParseKey(key)
		if err != nil {
			t.Fatal(err)
		}
		k := len(leaf)
		chain := make([]LevelInfo, H)
		ok := true
		for h := H; h >= 1; h-- {
			items, gok := tree.GeneralizeSet(leaf, h)
			if !gok || len(items) != k {
				ok = false
				break
			}
			lab, sup, corr, frequent := label(h, items)
			if !frequent || lab == LabelNone {
				ok = false
				break
			}
			if h < H && !chain[h].Label.Flips(lab) {
				ok = false
				break
			}
			chain[h-1] = LevelInfo{Level: h, Items: items, Support: sup, Corr: corr, Label: lab}
		}
		if !ok {
			continue
		}
		var sb strings.Builder
		for _, li := range chain {
			fmt.Fprintf(&sb, "L%d%s|%d|%.9f|%s;", li.Level, tree.FormatSet(li.Items), li.Support, li.Corr, li.Label)
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestTrieStoreMatchesMapReference is the acceptance property of the
// trie-indexed candidate store: across every pruning level, the engine's mined output — patterns, supports,
// correlations, labels — must be byte-identical to what the retained
// brute-force map-based reference derives with no trie anywhere.
func TestTrieStoreMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure:   measure.Kulczynski,
			Gamma:     0.3,
			Epsilon:   0.1,
			MinSupAbs: []int64{2, 1, 1},
			MaxK:      3,
		}
		want := bruteForceReference(t, db, tree, cfg)
		for _, pruning := range Levels() {
			c := cfg
			c.Pruning = pruning
			res, err := Mine(db, tree, c)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, pruning, err)
			}
			if got := fingerprint(res, tree); got != want {
				t.Fatalf("trial %d: %v diverged from the map-based reference.\nreference:\n%s\ngot:\n%s",
					trial, pruning, want, got)
			}
		}
	}
}

func TestMeasureEquivalenceAcrossPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		for _, meas := range measure.All() {
			cfg := Config{
				Measure:   meas,
				Gamma:     0.35,
				Epsilon:   0.12,
				MinSupAbs: []int64{2, 1, 1},
			}
			cfg.Pruning = Basic
			want, err := Mine(db, tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Pruning = Full
			got, err := Mine(db, tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(want, tree) != fingerprint(got, tree) {
				t.Fatalf("trial %d measure %v: full diverged from basic", trial, meas)
			}
		}
	}
}

// TestSupportsAgainstReference cross-checks every support the engine reports
// in patterns against brute-force counting on materialized views.
func TestSupportsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.12,
			MinSupAbs: []int64{1, 1, 1}, Pruning: Full,
		}
		res, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Patterns {
			for _, li := range p.Chain {
				lv, err := txdb.Materialize(db, tree, li.Level)
				if err != nil {
					t.Fatal(err)
				}
				if got := lv.SupportOf(li.Items); got != li.Support {
					t.Fatalf("trial %d: support of %s at L%d = %d, engine said %d",
						trial, tree.FormatSet(li.Items), li.Level, got, li.Support)
				}
				// And the correlation recomputes from raw supports.
				sups := make([]int64, len(li.Items))
				for i, id := range li.Items {
					sups[i] = lv.Support[id]
				}
				if want := cfg.Measure.Corr(li.Support, sups); math.Abs(want-li.Corr) > 1e-12 {
					t.Fatalf("trial %d: corr mismatch %v vs %v", trial, li.Corr, want)
				}
			}
		}
	}
}

// TestChainIsActuallyFlipping verifies the defining property on every
// reported pattern: labels alternate and every level is labeled.
func TestChainIsActuallyFlipping(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
			MinSupAbs: []int64{1, 1, 1}, Pruning: Full,
		}
		res, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Patterns {
			if len(p.Chain) != tree.Height() {
				t.Fatalf("chain has %d levels", len(p.Chain))
			}
			for i, li := range p.Chain {
				if !li.Label.Labeled() {
					t.Fatalf("unlabeled level %d in pattern %s", li.Level, tree.FormatSet(p.Leaf))
				}
				if i > 0 && !li.Label.Flips(p.Chain[i-1].Label) {
					t.Fatalf("labels do not alternate at level %d", li.Level)
				}
				// Items must be the generalization of the leaf at the level.
				want, ok := tree.GeneralizeSet(p.Leaf, li.Level)
				if !ok || !want.Equal(li.Items) {
					t.Fatalf("chain items at level %d are not the generalization", li.Level)
				}
			}
		}
	}
}
