package golden

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/datasets"
	"github.com/flipper-mining/flipper/internal/gen"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Scenario is one committed conformance fixture: a deterministic dataset
// builder, the on-disk layout it is written in, and the canonical mining
// configuration whose wire envelopes are pinned. The scenario directory
// doubles as a flipgen-layout dataset directory, so the flipperd registry
// and the flipper CLI consume it unchanged.
type Scenario struct {
	// Name is the directory under testdata/golden and the dataset name the
	// scenario is registered under in the /v1 API fixtures.
	Name string
	// Shards > 1 writes the sharded layout (shards/shardNNN.txt) instead of
	// a single baskets.txt, exercising shard-parallel counting end to end.
	Shards int
	// Stream loads the committed baskets through disk-streaming sources
	// (txdb.FileSource per file), the out-of-core mode: every surface mines
	// them by re-reading the files on each pass (flipper -stream, flipperd
	// -stream).
	Stream bool
	// Config is the canonical mining configuration; it is committed as
	// config.json and is the configuration all three surfaces are pinned
	// under. Keep Parallelism zero. Shardedness comes from the on-disk
	// layout, so the CLI and the service resolve it identically.
	Config core.Config
	// Build deterministically constructs the taxonomy and transactions.
	// Generators are seeded and handcrafted baskets are literals, so
	// -update regenerates byte-identical inputs on any machine.
	Build func() (*taxonomy.Tree, *txdb.DB)
}

// Dir returns the scenario's fixture directory.
func (sc *Scenario) Dir() string { return filepath.Join(Root, sc.Name) }

// Load opens the committed fixture inputs: the taxonomy (leaf-copy extended
// when unbalanced, as every surface does), the transaction source in the
// scenario's layout and streaming mode, and the canonical configuration.
func (sc *Scenario) Load(t interface{ Fatalf(string, ...any) }) (*taxonomy.Tree, txdb.Source, core.Config) {
	tree, src, cfg, err := sc.open()
	if err != nil {
		t.Fatalf("golden: scenario %s: %v", sc.Name, err)
	}
	return tree, src, cfg
}

func (sc *Scenario) open() (*taxonomy.Tree, txdb.Source, core.Config, error) {
	var cfg core.Config
	tf, err := os.Open(filepath.Join(sc.Dir(), "taxonomy.tsv"))
	if err != nil {
		return nil, nil, cfg, err
	}
	tree, err := taxonomy.Parse(tf, nil)
	tf.Close()
	if err != nil {
		return nil, nil, cfg, err
	}
	if !tree.IsBalanced() {
		tree = tree.Extend()
	}
	var src txdb.Source
	if sc.Shards > 1 {
		src, err = txdb.OpenShardDir(filepath.Join(sc.Dir(), "shards"), tree.Dict(), sc.Stream)
	} else {
		src, err = txdb.OpenBasketSource(filepath.Join(sc.Dir(), "baskets.txt"), tree.Dict(), sc.Stream)
	}
	if err != nil {
		return nil, nil, cfg, err
	}
	raw, err := os.ReadFile(filepath.Join(sc.Dir(), "config.json"))
	if err != nil {
		return nil, nil, cfg, fmt.Errorf("config.json: %w (regenerate with -update)", err)
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, nil, cfg, fmt.Errorf("config.json: %w", err)
	}
	return tree, src, cfg, nil
}

// CLIArgs renders the canonical configuration as flipper CLI flags, so the
// CLI surface mines exactly the committed scenario.
func (sc *Scenario) CLIArgs() []string {
	cfg := sc.Config
	sups := make([]string, len(cfg.MinSup))
	for i, v := range cfg.MinSup {
		sups[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	args := []string{
		"-tax", filepath.Join(sc.Dir(), "taxonomy.tsv"),
		"-db", sc.Dir(),
		"-gamma", strconv.FormatFloat(cfg.Gamma, 'g', -1, 64),
		"-epsilon", strconv.FormatFloat(cfg.Epsilon, 'g', -1, 64),
		"-minsup", strings.Join(sups, ","),
		"-measure", cfg.Measure.String(),
		"-pruning", cfg.Pruning.String(),
		"-strategy", cfg.Strategy.String(),
		"-json-api",
	}
	if cfg.TopK > 0 {
		args = append(args, "-topk", strconv.Itoa(cfg.TopK))
	}
	if cfg.MaxK > 0 {
		args = append(args, "-maxk", strconv.Itoa(cfg.MaxK))
	}
	if sc.Stream {
		args = append(args, "-stream")
	}
	return args
}

// WriteInputs regenerates the scenario's committed inputs (taxonomy.tsv,
// baskets.txt or shards/, config.json), wiping the directory first so stale
// layouts and expected envelopes never linger. Only -update calls this.
func (sc *Scenario) WriteInputs() error {
	dir := sc.Dir()
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tree, db := sc.Build()
	tf, err := os.Create(filepath.Join(dir, "taxonomy.tsv"))
	if err != nil {
		return err
	}
	if _, err := tree.WriteTo(tf); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if sc.Shards > 1 {
		sdir := filepath.Join(dir, "shards")
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return err
		}
		for i, part := range txdb.Partition(db, sc.Shards) {
			if err := part.WriteBasketFile(filepath.Join(sdir, fmt.Sprintf("shard%03d.txt", i))); err != nil {
				return err
			}
		}
	} else if err := db.WriteBasketFile(filepath.Join(dir, "baskets.txt")); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(sc.Config, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "config.json"), append(raw, '\n'), 0o644)
}

// Scenarios returns the committed scenario matrix, sorted by name — the
// order fixtures are generated and jobs submitted in, so suite-level
// envelopes stay stable.
func Scenarios() []Scenario {
	list := []Scenario{
		{
			Name:   "toy-paper",
			Config: handConfig(3, 0.6, 0.35),
			Build: func() (*taxonomy.Tree, *txdb.DB) {
				ds := datasets.PaperToy()
				return ds.Tree, ds.DB
			},
		},
		{
			Name:   "multi-taxonomy",
			Config: handConfig(3, 0.6, 0.35),
			Build:  buildMultiTaxonomy,
		},
		{
			Name: "deep-chain",
			Config: core.Config{
				Measure: measure.Kulczynski, Gamma: 0.6, Epsilon: 0.35,
				MinSup:  []float64{0.1, 0.1, 0.05, 0.03, 0.02, 0.01},
				Pruning: core.Full, Strategy: core.CountScan,
			},
			Build: buildDeepChain,
		},
		{
			Name:   "degenerate-flat",
			Config: handConfig(2, 0.6, 0.35),
			Build:  buildDegenerateFlat,
		},
		{
			Name: "star",
			Config: core.Config{
				Measure: measure.Kulczynski, Gamma: 0.5, Epsilon: 0.2,
				MinSup:  []float64{0.03, 0.03},
				Pruning: core.Full, Strategy: core.CountScan,
			},
			Build: buildStar,
		},
		{
			Name:   "incomplete-taxonomy",
			Config: handConfig(3, 0.6, 0.35),
			Build:  buildIncomplete,
		},
		{
			Name:   "sharded-2",
			Shards: 2,
			Config: shardedConfig(),
			Build:  buildShardedWorkload,
		},
		{
			Name:   "sharded-7",
			Shards: 7,
			Config: shardedConfig(),
			Build:  buildShardedWorkload,
		},
		{
			Name:   "outofcore-stream",
			Stream: true,
			Config: core.Config{
				Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.28,
				MinSup:  []float64{0.03, 0.015, 0.01, 0.008},
				Pruning: core.Full, Strategy: core.CountScan,
			},
			Build: func() (*taxonomy.Tree, *txdb.DB) {
				return buildSynthetic(gen.TaxonomyParams{Roots: 5, Fanout: 3, Height: 4, Prefix: "o"},
					2400, 5, 60, 3, 13)
			},
		},
		{
			// The reality-check simulator with planted flipping patterns
			// (Table 4 GROCERIES row): the fixture pins the store-layout
			// chains {canned beer, baby cosmetics} (+,−,+), {pork chops,
			// salad dressing} (+,−,+) and {eggs, fresh fish} (−,+,−).
			Name: "groceries-sim",
			Config: core.Config{
				Measure: measure.Kulczynski, Gamma: 0.15, Epsilon: 0.10,
				MinSup:  []float64{0.001, 0.0005, 0.0002},
				Pruning: core.Full, Strategy: core.CountScan,
			},
			Build: func() (*taxonomy.Tree, *txdb.DB) {
				ds, err := datasets.Groceries(0.2, 21)
				if err != nil {
					panic(err)
				}
				return ds.Tree, ds.DB
			},
		},
		{
			Name: "topk-cosine",
			Config: core.Config{
				Measure: measure.Cosine, Gamma: 0.5, Epsilon: 0.4,
				MinSup:  []float64{0.1, 0.1, 0.1},
				Pruning: core.Full, Strategy: core.CountScan,
				TopK: 2,
			},
			Build: func() (*taxonomy.Tree, *txdb.DB) {
				ds := datasets.PaperToy()
				return ds.Tree, ds.DB
			},
		},
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	return list
}

// handConfig is the shared shape of the handcrafted scenarios: Kulczynski,
// full pruning, scan counting, uniform 10% supports.
func handConfig(height int, gamma, epsilon float64) core.Config {
	sup := make([]float64, height)
	for i := range sup {
		sup[i] = 0.1
	}
	return core.Config{
		Measure: measure.Kulczynski, Gamma: gamma, Epsilon: epsilon,
		MinSup: sup, Pruning: core.Full, Strategy: core.CountScan,
	}
}

func shardedConfig() core.Config {
	return core.Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.25,
		MinSup:  []float64{0.04, 0.02, 0.015},
		Pruning: core.Full, Strategy: core.CountScan,
	}
}

// buildSynthetic wraps the seeded Srikant & Agrawal-style generator.
func buildSynthetic(tp gen.TaxonomyParams, n int, width float64, patterns int, patLen float64, seed int64) (*taxonomy.Tree, *txdb.DB) {
	tree, err := gen.BuildTaxonomy(tp)
	if err != nil {
		panic(err)
	}
	p := gen.DefaultParams()
	p.N = n
	p.AvgWidth = width
	p.PatternCount = patterns
	p.AvgPatternLen = patLen
	p.Seed = seed
	db, err := gen.Generate(tree, p)
	if err != nil {
		panic(err)
	}
	return tree, db
}

// toyPaths and toyBaskets are the paper's Figure 4 worked example (the same
// data datasets.PaperToy builds), reused with prefixes by the multi-taxonomy
// scenario.
var toyPaths = [][]string{
	{"a", "a1", "a11"}, {"a", "a1", "a12"},
	{"a", "a2", "a21"}, {"a", "a2", "a22"},
	{"b", "b1", "b11"}, {"b", "b1", "b12"},
	{"b", "b2", "b21"}, {"b", "b2", "b22"},
}

var toyBaskets = [][]string{
	{"a11", "a22", "b11", "b22"},
	{"a11", "a21", "b11"},
	{"a12", "a21"},
	{"a12", "a22", "b21"},
	{"a12", "a22", "b21"},
	{"a12", "a21", "b22"},
	{"a21", "b12"},
	{"b12", "b21", "b22"},
	{"b12", "b21"},
	{"a22", "b12", "b22"},
}

// buildMultiTaxonomy plants the toy example twice under two disjoint
// level-1 forests ("x…" and "y…") sharing one dictionary; every basket
// holds an x-domain toy transaction and a (rotated) y-domain one, so both
// domains keep their planted flip and cross-domain correlations appear on
// top. Null-invariant measures ignore the changed transaction count, which
// is what keeps the per-domain flips intact.
func buildMultiTaxonomy() (*taxonomy.Tree, *txdb.DB) {
	b := taxonomy.NewBuilder(nil)
	for _, prefix := range []string{"x", "y"} {
		for _, path := range toyPaths {
			p := make([]string, len(path))
			for i, name := range path {
				p[i] = prefix + name
			}
			if err := b.AddPath(p...); err != nil {
				panic(err)
			}
		}
	}
	tree, err := b.Build()
	if err != nil {
		panic(err)
	}
	db := txdb.New(tree.Dict())
	for i := range toyBaskets {
		var names []string
		for _, n := range toyBaskets[i] {
			names = append(names, "x"+n)
		}
		for _, n := range toyBaskets[(i+3)%len(toyBaskets)] {
			names = append(names, "y"+n)
		}
		db.AddNames(names...)
	}
	return tree, db
}

// buildDegenerateFlat is the minimum-height taxonomy (2 levels: roots and
// leaves). {r0,r1} is negative while {r0.a,r1.a} is perfectly positive — a
// one-step flip — and two explicitly empty transactions exercise the basket
// format's "-" lines through every surface.
func buildDegenerateFlat() (*taxonomy.Tree, *txdb.DB) {
	b := taxonomy.NewBuilder(nil)
	for r := 0; r < 4; r++ {
		root := fmt.Sprintf("r%d", r)
		for _, leaf := range []string{"a", "b", "c"} {
			if err := b.AddPath(root, root+"."+leaf); err != nil {
				panic(err)
			}
		}
	}
	tree, err := b.Build()
	if err != nil {
		panic(err)
	}
	db := txdb.New(tree.Dict())
	for i := 0; i < 6; i++ {
		db.AddNames("r0.a", "r1.a")
	}
	for i := 0; i < 12; i++ {
		db.AddNames("r0.b", "r2.a")
	}
	for i := 0; i < 12; i++ {
		db.AddNames("r1.b", "r3.a")
	}
	for i := 0; i < 6; i++ {
		db.AddNames("r2.b", "r3.b")
	}
	db.Add() // explicitly empty transactions: format edge case
	db.Add()
	return tree, db
}

// buildStar is the degenerate single-hub taxonomy: one level-1 node over 12
// leaves. Every leaf pair generalizes onto the lone hub, so no flipping
// chain can exist — the scenario pins the empty envelope and the stats of a
// run that prunes everything.
func buildStar() (*taxonomy.Tree, *txdb.DB) {
	b := taxonomy.NewBuilder(nil)
	leaves := make([]string, 12)
	for i := range leaves {
		leaves[i] = fmt.Sprintf("s%02d", i)
		if err := b.AddPath("hub", leaves[i]); err != nil {
			panic(err)
		}
	}
	tree, err := b.Build()
	if err != nil {
		panic(err)
	}
	db := txdb.New(tree.Dict())
	for i := 0; i < 30; i++ {
		db.AddNames(leaves[i%12], leaves[(i*5+1)%12])
	}
	return tree, db
}

// buildIncomplete is the crowd-taxonomy shape: the a-side is a full 3-level
// hierarchy, b2 is a leaf stranded at level 2 (its level-3 descendants were
// never reported), and "orphan" is an item with no ancestors at all. The
// tree is unbalanced, so every surface leaf-copy extends it (Figure 3
// variant B); {a11,b11} still flips (+,−,+).
func buildIncomplete() (*taxonomy.Tree, *txdb.DB) {
	b := taxonomy.NewBuilder(nil)
	for _, path := range [][]string{
		{"a", "a1", "a11"}, {"a", "a1", "a12"},
		{"a", "a2", "a21"}, {"a", "a2", "a22"},
		{"b", "b1", "b11"}, {"b", "b1", "b12"},
	} {
		if err := b.AddPath(path...); err != nil {
			panic(err)
		}
	}
	if err := b.AddPath("b", "b2"); err != nil { // leaf stranded at level 2
		panic(err)
	}
	b.AddRoot("orphan") // item missing every ancestor
	tree, err := b.Build()
	if err != nil {
		panic(err)
	}
	db := txdb.New(tree.Dict())
	for _, tx := range [][]string{
		{"a11", "b11"},
		{"a11", "b11"},
		{"a12", "b2"},
		{"a12", "b2"},
		{"a12", "orphan"},
		{"a12", "b2"},
		{"a21", "b12"},
		{"a22", "b12"},
		{"b12", "orphan"},
		{"a22", "b12"},
		{"a21", "a22"},
		{"b2", "orphan"},
	} {
		db.AddNames(tx...)
	}
	return tree, db
}

// buildDeepChain hand-crafts a six-level taxonomy whose target pair
// {a.p, b.p} carries a fully alternating chain — every adjacent level flips
// sign. Two mirrored spines a and b descend to the target leaves; each spine
// node at levels 1–5 also owns a chain down to one "knob" leaf (a.n1…a.n5).
// Basket counts are solved level by level for Kulczynski at γ=0.6 ε=0.35:
// the knobs at levels 5, 3 and 1 appear alone (diluting every ancestor at
// their level and above toward the root), the knobs at levels 4 and 2 appear
// jointly across the spines (boosting co-occurrence there). The resulting
// chain, root to leaf, is
//
//	0.348 (−), 0.604 (+), 0.345 (−), 0.613 (+), 0.333 (−), 1.0 (+)
//
// and the joint knob pairs {a.n4, b.n4} and {a.n2, b.n2} surface as further
// deep-chain patterns of their own.
func buildDeepChain() (*taxonomy.Tree, *txdb.DB) {
	b := taxonomy.NewBuilder(nil)
	for _, s := range []string{"a", "b"} {
		for _, path := range [][]string{
			{s, s + ".2", s + ".3", s + ".4", s + ".5", s + ".p"},
			{s, s + ".2", s + ".3", s + ".4", s + ".5", s + ".n5"},
			{s, s + ".2", s + ".3", s + ".4", s + ".f4", s + ".n4"},
			{s, s + ".2", s + ".3", s + ".f3a", s + ".f3b", s + ".n3"},
			{s, s + ".2", s + ".f2a", s + ".f2b", s + ".f2c", s + ".n2"},
			{s, s + ".f1a", s + ".f1b", s + ".f1c", s + ".f1d", s + ".n1"},
		} {
			if err := b.AddPath(path...); err != nil {
				panic(err)
			}
		}
	}
	tree, err := b.Build()
	if err != nil {
		panic(err)
	}
	db := txdb.New(tree.Dict())
	addN := func(n int, items ...string) {
		for i := 0; i < n; i++ {
			db.AddNames(items...)
		}
	}
	addN(6, "a.p", "b.p")    // leaf pair: kulc 1.0 (+) at level 6
	addN(12, "a.n5")         // dilute level 5: 6/18 = 0.333 (−)
	addN(12, "b.n5")         //
	addN(13, "a.n4", "b.n4") // boost level 4: 19/31 ≈ 0.613 (+)
	addN(24, "a.n3")         // dilute level 3: 19/55 ≈ 0.345 (−)
	addN(24, "b.n3")         //
	addN(36, "a.n2", "b.n2") // boost level 2: 55/91 ≈ 0.604 (+)
	addN(67, "a.n1")         // dilute level 1: 55/158 ≈ 0.348 (−)
	addN(67, "b.n1")         //
	return tree, db
}

// buildShardedWorkload is the shared dataset of the sharded-2 and sharded-7
// scenarios: same transactions, different committed shard layouts, so the
// fixtures also pin that shard count never moves a correlation.
func buildShardedWorkload() (*taxonomy.Tree, *txdb.DB) {
	return buildSynthetic(gen.TaxonomyParams{Roots: 4, Fanout: 3, Height: 3, Prefix: "s"},
		280, 4, 30, 3, 7)
}
