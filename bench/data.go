package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/experiments"
	"github.com/flipper-mining/flipper/internal/gen"
	"github.com/flipper-mining/flipper/internal/golden"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// dataset is one generated input on disk in the layout flipgen writes and
// flipperd -data scans: <dir>/taxonomy.tsv next to baskets.txt, or next to
// shards/shardNNN.txt.
type dataset struct {
	name    string
	taxPath string
	baskets []string
}

// writeDataset writes tree and db under parent/name, as shards basket files
// when shards > 1.
func writeDataset(parent, name string, tree *taxonomy.Tree, db *txdb.DB, shards int) (dataset, error) {
	dir := filepath.Join(parent, name)
	ds := dataset{name: name, taxPath: filepath.Join(dir, "taxonomy.tsv")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ds, err
	}
	if err := writeFile(ds.taxPath, func(f *os.File) error { _, err := tree.WriteTo(f); return err }); err != nil {
		return ds, err
	}
	parts := []*txdb.DB{db}
	paths := []string{filepath.Join(dir, "baskets.txt")}
	if shards > 1 {
		if err := os.MkdirAll(filepath.Join(dir, "shards"), 0o755); err != nil {
			return ds, err
		}
		parts, paths = txdb.Partition(db, shards), nil
		for i := range parts {
			paths = append(paths, filepath.Join(dir, "shards", fmt.Sprintf("shard%03d.txt", i)))
		}
	}
	for i, part := range parts {
		if err := writeFile(paths[i], func(f *os.File) error { return part.WriteBaskets(f) }); err != nil {
			return ds, err
		}
	}
	ds.baskets = paths
	return ds, nil
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// parseTree reads the taxonomy as flipperd and the flipper CLI do: an
// unbalanced hierarchy is extended (the paper's Figure 3 variant B).
func (d dataset) parseTree() (*taxonomy.Tree, error) {
	f, err := os.Open(d.taxPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tree, err := taxonomy.Parse(f, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.taxPath, err)
	}
	if !tree.IsBalanced() {
		tree = tree.Extend()
	}
	return tree, nil
}

// openSource loads the baskets into memory against the tree's dictionary.
func (d dataset) openSource(tree *taxonomy.Tree) (txdb.Source, error) {
	if len(d.baskets) == 1 {
		return txdb.OpenBasketSource(d.baskets[0], tree.Dict(), false)
	}
	return txdb.OpenShards(d.baskets, tree.Dict(), false)
}

func (d dataset) load() (*taxonomy.Tree, txdb.Source, error) {
	tree, err := d.parseTree()
	if err != nil {
		return nil, nil, err
	}
	src, err := d.openSource(tree)
	return tree, src, err
}

// Input sizes at scale 1. Tests shrink them with a smaller scale.
const (
	medlineScale = 0.1     // 64,000 citations of the simulated 640,000
	syntheticN   = 100_000 // the paper's default N
	topkN        = 102_400 // 100 × sketch.DefaultK background transactions
)

func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

// synthetic is the paper's Section 5.1 workload with every generator
// parameter at its default: 10 roots, fanout 5, height 4, 1,000 leaves,
// width 5.
func synthetic(scale float64, seed int64) (*taxonomy.Tree, *txdb.DB, error) {
	tree, err := gen.BuildTaxonomy(gen.DefaultTaxonomyParams())
	if err != nil {
		return nil, nil, err
	}
	p := gen.DefaultParams()
	p.N = scaled(syntheticN, scale)
	p.Seed = seed
	db, err := gen.Generate(tree, p)
	return tree, db, err
}

// topkData is the anchored top-K design of the experiments package: a dense
// background of 64 categories × 2 leaves at width 16, plus n/10 cross-pair
// transactions for each of {cat00,cat01} and {cat02,cat03}, which lift the
// category pair past γ while its leaf pairs stay uncorrelated — a planted
// (+,−) flip.
func topkData(scale float64, seed int64) (*taxonomy.Tree, *txdb.DB, error) {
	n := scaled(topkN, scale)
	db, tree, err := experiments.DenseWorkload(n, 64, 2, 16, seed)
	if err != nil {
		return nil, nil, err
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		for i := 0; i < n/10; i++ {
			db.AddNames(fmt.Sprintf("leaf%02d.%d", pair[0], i%2), fmt.Sprintf("leaf%02d.%d", pair[1], 1-i%2))
		}
	}
	return tree, db, nil
}

// canonical renders a result envelope (core.ResultJSON on the wire) in the
// golden harness's canonical form, which scrubs the timing fields. With
// patternsOnly it keeps just pattern_count and patterns, for outputs whose
// run statistics legitimately differ from the reference's.
func canonical(raw []byte, patternsOnly bool) ([]byte, error) {
	if patternsOnly {
		var v struct {
			PatternCount json.RawMessage `json:"pattern_count"`
			Patterns     json.RawMessage `json:"patterns"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf("result: %w", err)
		}
		var err error
		if raw, err = json.Marshal(v); err != nil {
			return nil, err
		}
	}
	return golden.Canonical(raw)
}

// canonicalResult renders a result computed in process the same way.
func canonicalResult(res *core.Result, tree *taxonomy.Tree, patternsOnly bool) ([]byte, error) {
	raw, err := json.Marshal(res.JSON(tree))
	if err != nil {
		return nil, err
	}
	return canonical(raw, patternsOnly)
}

// anchoredTopK is the definition of an anchored top-K answer, computed from
// a full mine: the patterns whose chain passes through the anchor at its
// level, ranked by descending flip gap with ties broken by leaf itemset,
// the first k kept.
func anchoredTopK(full *core.Result, tree *taxonomy.Tree, anchor string, k int) (*core.Result, error) {
	id, ok := tree.Dict().Lookup(anchor)
	if !ok || !tree.Contains(id) {
		return nil, fmt.Errorf("unknown anchor %q", anchor)
	}
	level := tree.LevelOf(id)
	var out []core.Pattern
	for _, p := range full.Patterns {
		if level >= 1 && level <= len(p.Chain) && p.Chain[level-1].Items.Contains(id) {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Gap != out[j].Gap {
			return out[i].Gap > out[j].Gap
		}
		return out[i].Leaf.Key() < out[j].Leaf.Key()
	})
	if len(out) > k {
		out = out[:k]
	}
	return &core.Result{Patterns: out}, nil
}
