package flipper_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	flipper "github.com/flipper-mining/flipper"
)

const toyTaxonomy = `a1	a
a11	a1
a12	a1
a2	a
a21	a2
a22	a2
b1	b
b11	b1
b12	b1
b2	b
b21	b2
b22	b2
`

const toyBaskets = `a11, a22, b11, b22
a11, a21, b11
a12, a21
a12, a22, b21
a12, a22, b21
a12, a21, b22
a21, b12
b12, b21, b22
b12, b21
a22, b12, b22
`

func toyConfig() flipper.Config {
	return flipper.Config{
		Measure:   flipper.Kulczynski,
		Gamma:     0.6,
		Epsilon:   0.35,
		MinSupAbs: []int64{1, 1, 1},
		Pruning:   flipper.Full,
		Strategy:  flipper.CountScan,
	}
}

// TestQuickstart exercises the documented facade flow end to end.
func TestQuickstart(t *testing.T) {
	tree, err := flipper.ParseTaxonomy(strings.NewReader(toyTaxonomy), nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := flipper.ReadBaskets(strings.NewReader(toyBaskets), tree.Dict())
	if err != nil {
		t.Fatal(err)
	}
	res, err := flipper.Mine(db, tree, toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 {
		t.Fatalf("patterns = %d, want 1", len(res.Patterns))
	}
	formatted := res.Patterns[0].Format(tree)
	if !strings.Contains(formatted, "{a11, b11}") {
		t.Errorf("unexpected pattern:\n%s", formatted)
	}
	if res.Stats.Transactions != 10 {
		t.Errorf("stats transactions = %d", res.Stats.Transactions)
	}
}

func TestBuilderFlow(t *testing.T) {
	b := flipper.NewTaxonomyBuilder(nil)
	for _, p := range [][]string{
		{"drinks", "beer", "canned beer"}, {"drinks", "beer", "bottled beer"},
		{"food", "snacks", "chips"}, {"food", "snacks", "pretzels"},
	} {
		if err := b.AddPath(p...); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := flipper.NewDB(tree.Dict())
	for i := 0; i < 4; i++ {
		db.AddNames("canned beer", "chips")
	}
	db.AddNames("bottled beer")
	db.AddNames("pretzels")
	cfg := flipper.DefaultConfig(tree.Height())
	cfg.MinSupAbs = []int64{1, 1, 1}
	cfg.MinSup = nil
	if _, err := flipper.Mine(db, tree, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDiskResidentFlow(t *testing.T) {
	dir := t.TempDir()
	taxPath := filepath.Join(dir, "tax.tsv")
	basketPath := filepath.Join(dir, "baskets.txt")
	if err := os.WriteFile(taxPath, []byte(toyTaxonomy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basketPath, []byte(toyBaskets), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(taxPath)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := flipper.ParseTaxonomy(f, nil)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	src, err := flipper.OpenBasketFile(basketPath, tree.Dict())
	if err != nil {
		t.Fatal(err)
	}
	res, err := flipper.Mine(src, tree, toyConfig()) // streams from disk on every pass
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 {
		t.Fatalf("patterns = %d, want 1", len(res.Patterns))
	}
}

func TestParsers(t *testing.T) {
	if _, err := flipper.ParseMeasure("cosine"); err != nil {
		t.Error(err)
	}
	if _, err := flipper.ParsePruningLevel("full"); err != nil {
		t.Error(err)
	}
	// The retired backends' names stay accepted, each as scan.
	for _, name := range []string{"scan", "tidlist", "bitmap", "auto"} {
		if s, err := flipper.ParseCountStrategy(name); err != nil || s != flipper.CountScan {
			t.Errorf("ParseCountStrategy(%q) = %v, %v; want scan", name, s, err)
		}
	}
	if _, err := flipper.ParseMeasure("nope"); err == nil {
		t.Error("bad measure accepted")
	}
}
