package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// rankedFingerprint renders a pattern list order-sensitively — unlike
// fingerprint, which sorts its lines — because anchored results are ranked
// and the ranking itself is part of the contract under test.
func rankedFingerprint(pats []Pattern, tree *taxonomy.Tree) string {
	var sb strings.Builder
	for _, p := range pats {
		fmt.Fprintf(&sb, "gap=%.9f|", p.Gap)
		for _, li := range p.Chain {
			fmt.Fprintf(&sb, "L%d%s|%d|%.9f|%s;", li.Level, tree.FormatSet(li.Items), li.Support, li.Corr, li.Label)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// anchoredReference computes the anchored top-K answer the slow way: filter
// the full exact pattern set down to chains through the anchor, then rank
// by gap and truncate — the definition anchored search must reproduce.
func anchoredReference(full *Result, tree *taxonomy.Tree, anchor string, topK int) []Pattern {
	id, ok := tree.Dict().Lookup(anchor)
	if !ok {
		panic("reference anchor not in dictionary")
	}
	la := tree.LevelOf(id)
	var kept []Pattern
	for _, p := range full.Patterns {
		if p.Chain[la-1].Items.Contains(id) {
			kept = append(kept, p)
		}
	}
	return rankAnchored(kept, topK)
}

// TestAnchoredTopKMatchesExact is the acceptance property of the anchored
// query path: across every counting strategy, every pruning level and
// shard counts 1, 2 and 7, the anchored search returns byte-identically
// what filtering and ranking the full exact mine returns — same patterns,
// same order, same supports, correlations and labels. A materialized run
// builds bitmaps exactly when it counts candidates, and the test requires
// bitmap counting on both the unsharded and the per-shard index paths. Like
// TestShardedMiningEquivalence it runs under the CI race job
// (go test -race ./...), which races the concurrent per-shard level build.
// Some of its searches count root sets of three and four on the
// conditional index; TestAnchoredRootSetsOnConditionalIndex pins that path
// and races its build across concurrent queries on one engine.
func TestAnchoredTopKMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 4
	if testing.Short() {
		trials = 2
	}
	shardCounts := []int{1, 2, 7}
	// bitmapPaths[sharded] records that exact bitmap counting ran through
	// that index path at least once.
	var bitmapPaths [2]bool
	anchors := []string{"c0", "c1.0", "c0.1.1"} // level 1, 2 and leaf anchors
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		base := Config{
			Measure:   measure.Kulczynski,
			Gamma:     0.3,
			Epsilon:   0.1,
			MinSupAbs: []int64{2, 1, 1},
		}
		full, err := Mine(db, tree, base)
		if err != nil {
			t.Fatalf("trial %d: full mine: %v", trial, err)
		}
		file := streamed(t, db)
		for _, anchor := range anchors {
			topK := 1 + rng.Intn(4)
			want := rankedFingerprint(anchoredReference(full, tree, anchor, topK), tree)
			for _, pruning := range Levels() {
				for _, shards := range shardCounts {
					cfg := base
					cfg.Pruning = pruning
					cfg.Anchor = anchor
					cfg.AnchorTopK = topK
					res, err := Mine(txdb.PartitionSource(db, shards), tree, cfg)
					if err != nil {
						t.Fatalf("trial %d anchor=%q %v shards=%d: %v",
							trial, anchor, pruning, shards, err)
					}
					got := rankedFingerprint(res.Patterns, tree)
					if got != want {
						t.Fatalf("trial %d: anchored %q %v shards=%d diverged from exact.\nexact:\n%s\nanchored:\n%s",
							trial, anchor, pruning, shards, want, got)
					}
					st := res.Stats
					if (st.CandidatesCounted > 0) != (st.BitmapBuilds > 0) {
						t.Fatalf("trial %d: %d candidates counted but %d bitmap builds",
							trial, st.CandidatesCounted, st.BitmapBuilds)
					}
					if st.CandidatesCounted > 0 && st.BitmapWordOps > 0 {
						bitmapPaths[min(shards-1, 1)] = true
					}
				}
				// Streaming fallback: a basket file has no levels to index,
				// exact filter path.
				cfg := base
				cfg.Pruning = pruning
				cfg.Anchor = anchor
				cfg.AnchorTopK = topK
				res, err := Mine(file, tree, cfg)
				if err != nil {
					t.Fatalf("trial %d anchor=%q streaming %v: %v", trial, anchor, pruning, err)
				}
				if got := rankedFingerprint(res.Patterns, tree); got != want {
					t.Fatalf("trial %d: streaming anchored %q %v diverged from exact.\nexact:\n%s\nanchored:\n%s",
						trial, anchor, pruning, want, got)
				}
			}
		}
	}
	if !bitmapPaths[0] || !bitmapPaths[1] {
		t.Fatalf("anchored search never counted on the bitmap index (unsharded %v, sharded %v)", bitmapPaths[0], bitmapPaths[1])
	}
}

// FuzzAnchoredTopK decodes the input into a small balanced taxonomy of
// height 2 or 3, baskets over its leaves, a measure, thresholds, an anchor
// at any level and K, and checks anchored top-K — one and two shards,
// materialized and streaming — byte for byte against anchoredReference over
// the full mine.
func FuzzAnchoredTopK(f *testing.F) {
	// Height 2, roots c0 and c1 with three leaves each; 15 baskets: the nine
	// cross pairs {c0.i, c1.j} once and every leaf once alone. Kulczynski,
	// γ = 0.7, ε = 0.25 and min supports 1, 1 make {c0, c1} positive (0.75)
	// and every leaf pair negative (0.25): nine patterns, three of them
	// through the anchor c0.1, all returned at K = 3.
	f.Add([]byte{0, 1, 2, 2, 11,
		2, 0, 3, 2, 0, 4, 2, 0, 5, 2, 1, 3, 2, 1, 4, 2, 1, 5, 2, 2, 3, 2, 2, 4, 2, 2, 5,
		1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5,
		3, 3, 5, 0, 0, 2, 2, 3})
	// A height-3 input with two flipping patterns through its anchor.
	f.Add([]byte{1, 37, 217, 77, 160, 13, 255, 182, 128, 180, 61, 235, 186, 182, 126, 95, 120,
		83, 136, 221, 160, 91, 126, 23, 126, 93, 129, 202, 39, 141, 202, 165, 178, 146, 55,
		212, 178, 131, 20, 184, 166, 232, 96, 51, 195, 230, 45, 77, 66})
	// Three roots with two leaves each, K = 1 at the anchor c0: two patterns
	// tie on gap, and the DFS meets the one with the smaller leaf key
	// second, so the search must keep descending at a gap equal to the
	// floor.
	f.Add([]byte{0, 2, 1, 1, 1, 9, 6, 123, 185, 20, 18, 75, 46, 197, 113, 178, 56, 124, 110,
		111, 8, 124, 174, 108, 231, 232, 66, 20, 94, 129, 24, 162, 53, 8, 137, 21, 37, 115,
		229, 253, 179, 24, 42, 80, 88, 148})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	// Height 2, roots c0, c1 and c2 with two leaves each; 16 baskets: four
	// holding one leaf of every root, each leaf in two of them, and every
	// leaf twice alone. Kulczynski, γ = 0.5, ε = 0.25 and min supports 1, 1
	// make {c0, c1, c2} positive (0.5) and its leaf triples negative (0.25),
	// so the search through the anchor c0 counts the root triple on the
	// conditional index and returns leaf triples among its K = 3.
	f.Add([]byte{0, 2, 1, 1, 1, 12,
		3, 0, 2, 5, 3, 1, 3, 4, 3, 0, 3, 4, 3, 1, 2, 5,
		1, 0, 1, 0, 1, 1, 1, 1, 1, 2, 1, 2, 1, 3, 1, 3, 1, 4, 1, 4, 1, 5, 1, 5,
		3, 2, 5, 0, 0, 0, 2, 3})
	// Height 2, roots c0, c1 and c2 with two leaves each; 16 baskets:
	// {c0.0, c1.0, c2.1}, {c0.1, c2.1}, {c0.1, c1.0}, seven {c0.1}, two
	// {c1.0}, one {c2.1} and three empty. Kulczynski, γ = 0.5, ε = 0.25 and
	// min supports 1, 1: {c0, c1, c2} (−) flips to {c0.0, c1.0, c2.1} (+),
	// the one pattern through the anchor c1. Q(1,2)'s three frequent pairs
	// are unlabeled, so the gated Q(2,2) is empty, and TPG and SIBP lose the
	// pattern there; a streamed query at flipping+tpg or full must not. The
	// last byte picks the pruning level: every level gets a seed.
	for _, pruning := range "0123" {
		f.Add([]byte("02111\f002A011A01122812818181818182818228A02A0000" + string(pruning)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		height := 2 + next()%2
		b := taxonomy.NewBuilder(nil)
		var nodes, leaves []string
		var grow func(path []string)
		grow = func(path []string) {
			nodes = append(nodes, path[len(path)-1])
			if len(path) == height {
				if err := b.AddPath(path...); err != nil {
					t.Fatalf("generated path %v rejected: %v", path, err)
				}
				leaves = append(leaves, path[len(path)-1])
				return
			}
			for c, n := 0, 1+next()%3; c < n; c++ {
				grow(append(path[:len(path):len(path)], fmt.Sprintf("%s.%d", path[len(path)-1], c)))
			}
		}
		for r, n := 0, 1+next()%3; r < n; r++ {
			grow([]string{fmt.Sprintf("c%d", r)})
		}
		tree, err := b.Build()
		if err != nil {
			t.Fatalf("generated taxonomy rejected: %v", err)
		}
		db := txdb.New(tree.Dict())
		for tx, n := 0, 4+next()%40; tx < n; tx++ {
			names := make([]string, next()%5)
			for i := range names {
				names[i] = leaves[next()%len(leaves)]
			}
			db.AddNames(names...)
		}
		gammas := []float64{0.3, 0.4, 0.5, 0.7}
		base := Config{
			Measure:   measure.All()[next()%len(measure.All())],
			Gamma:     gammas[next()%len(gammas)],
			Epsilon:   float64(next()%6) / 20,
			MinSupAbs: make([]int64, height),
		}
		for h := range base.MinSupAbs {
			base.MinSupAbs[h] = int64(1 + next()%3)
		}
		anchor := nodes[next()%len(nodes)]
		topK := 1 + next()%4
		pruning := Levels()[next()%len(Levels())]
		full, err := Mine(db, tree, base)
		if err != nil {
			t.Fatalf("full mine: %v", err)
		}
		wire := func(pats []Pattern) string {
			out := make([]PatternJSON, len(pats))
			for i := range pats {
				out[i] = pats[i].JSON(tree)
			}
			raw, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			return string(raw)
		}
		want := wire(anchoredReference(full, tree, anchor, topK))
		for _, stream := range []bool{false, true} {
			for _, shards := range []int{1, 2} {
				cfg := base
				cfg.Pruning = pruning
				cfg.Anchor = anchor
				cfg.AnchorTopK = topK
				var src txdb.Source = txdb.PartitionSource(db, shards)
				if stream {
					src = streamedShards(t, db, shards)
				}
				res, err := Mine(src, tree, cfg)
				if err != nil {
					t.Fatalf("anchored %q stream=%v shards=%d: %v", anchor, stream, shards, err)
				}
				if got := wire(res.Patterns); got != want {
					t.Fatalf("anchored %q K=%d %v stream=%v shards=%d diverged from the filtered full mine.\nwant: %s\ngot:  %s",
						anchor, topK, pruning, stream, shards, want, got)
				}
			}
		}
	})
}

// TestAnchoredUnknownAnchor pins the error contract for anchors that name
// no taxonomy item.
func TestAnchoredUnknownAnchor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db, tree := randomDataset(rng)
	cfg := DefaultConfig(tree.Height())
	cfg.Anchor = "no-such-item"
	cfg.AnchorTopK = 3
	_, err := Mine(db, tree, cfg)
	if !errors.Is(err, ErrUnknownAnchor) {
		t.Fatalf("unknown anchor: got %v, want ErrUnknownAnchor", err)
	}
}

// TestAnchoredConfigValidation covers the anchored knob surface of the
// configuration check.
func TestAnchoredConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.AnchorTopK = 3 },                             // anchor_top_k without anchor
		func(c *Config) { c.Anchor = "x" },                               // anchor without anchor_top_k
		func(c *Config) { c.Anchor = "x"; c.AnchorTopK = -1 },            // bad K
		func(c *Config) { c.Anchor = "x"; c.AnchorTopK = 2; c.TopK = 4 }, // mutually exclusive
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(3)
		mutate(&cfg)
		if _, err := cfg.validate(3, 100); err == nil {
			t.Fatalf("case %d: invalid anchored config validated: %+v", i, cfg)
		}
	}
	cfg := DefaultConfig(3)
	cfg.Anchor = "x"
	cfg.AnchorTopK = 2
	if _, err := cfg.validate(3, 100); err != nil {
		t.Fatalf("valid anchored config rejected: %v", err)
	}
}

// TestAnchoredCanonicalKey pins cache-key behavior: non-anchored keys keep
// their exact pre-anchor bytes, and anchored keys end in ";anchor=X;k=K",
// so they separate by anchor and K.
func TestAnchoredCanonicalKey(t *testing.T) {
	plain := DefaultConfig(3)
	if k := plain.CanonicalKey(); strings.Contains(k, "anchor") {
		t.Fatalf("non-anchored key mentions anchor: %s", k)
	}
	a := DefaultConfig(3)
	a.Anchor = "x"
	a.AnchorTopK = 3
	if k := a.CanonicalKey(); k != plain.CanonicalKey()+";anchor=x;k=3" {
		t.Fatalf("anchored key %s, want the plain key plus ;anchor=x;k=3", k)
	}
	b := a
	b.Anchor = "y"
	if a.CanonicalKey() == b.CanonicalKey() {
		t.Fatal("different anchors share a cache entry")
	}
	d := a
	d.AnchorTopK = 4
	if a.CanonicalKey() == d.CanonicalKey() {
		t.Fatal("different AnchorTopK shares a cache entry")
	}
}

// TestAnchoredShardedSource covers anchored mining over an explicit
// ShardedSource, whose shards each get their own bitmap index.
func TestAnchoredShardedSource(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db, tree := randomDataset(rng)
	base := Config{
		Measure:   measure.Kulczynski,
		Gamma:     0.3,
		Epsilon:   0.1,
		MinSupAbs: []int64{2, 1, 1},
	}
	full, err := Mine(db, tree, base)
	if err != nil {
		t.Fatal(err)
	}
	want := rankedFingerprint(anchoredReference(full, tree, "c1", 3), tree)
	cfg := base
	cfg.Anchor = "c1"
	cfg.AnchorTopK = 3
	res, err := Mine(txdb.PartitionSource(db, 3), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rankedFingerprint(res.Patterns, tree); got != want {
		t.Fatalf("anchored over ShardedSource diverged.\nexact:\n%s\nanchored:\n%s", want, got)
	}
	if res.Stats.Shards != 3 {
		t.Fatalf("ShardedSource anchored run reports %d shards, want 3", res.Stats.Shards)
	}
}

// TestAnchoredBitmapBuildsPerShard checks that an anchored run counts on
// the bitmap indexes, one per shard of every level it touches, on the
// unsharded and the sharded representation alike.
func TestAnchoredBitmapBuildsPerShard(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	db, tree := randomDataset(rng)
	for _, shards := range []int{1, 2, 7} {
		cfg := Config{
			Measure:    measure.Kulczynski,
			Gamma:      0.3,
			Epsilon:    0.1,
			MinSupAbs:  []int64{2, 1, 1},
			Anchor:     "c0",
			AnchorTopK: 3,
		}
		eng := NewEngine(txdb.PartitionSource(db, shards), tree)
		res, err := eng.Mine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CandidatesCounted == 0 {
			t.Fatalf("shards=%d: no candidate was counted; the check below would be vacuous", shards)
		}
		if b := res.Stats.BitmapBuilds; b == 0 || b%int64(res.Stats.Shards) != 0 {
			t.Fatalf("shards=%d: %d bitmap builds over %d shards, want a positive multiple", shards, b, res.Stats.Shards)
		}
	}
}

// denseAnchoredDataset is a small dense workload in the shape of
// experiments.DenseWorkload (which this package cannot import): 12 roots
// cat00…cat11 with leaves leafNN.0 and leafNN.1, and 400 baskets of 5 leaves
// drawn uniformly. On top come 200 baskets holding one leaf of each of
// cat00…cat03, cycling through all 16 leaf combinations: the root set of
// four turns positive while every leaf set of four stays negative, and the
// planted baskets collapse into one level-1 row of weight 200.
func denseAnchoredDataset() (*txdb.DB, *taxonomy.Tree) {
	b := taxonomy.NewBuilder(nil)
	for r := 0; r < 12; r++ {
		for l := 0; l < 2; l++ {
			if err := b.AddPath(fmt.Sprintf("cat%02d", r), fmt.Sprintf("leaf%02d.%d", r, l)); err != nil {
				panic(err)
			}
		}
	}
	tree, err := b.Build()
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))
	db := txdb.New(tree.Dict())
	for i := 0; i < 400; i++ {
		names := make([]string, 5)
		for j := range names {
			names[j] = fmt.Sprintf("leaf%02d.%d", rng.Intn(12), rng.Intn(2))
		}
		db.AddNames(names...)
	}
	for i := 0; i < 200; i++ {
		db.AddNames(fmt.Sprintf("leaf00.%d", i%2), fmt.Sprintf("leaf01.%d", i/2%2), fmt.Sprintf("leaf02.%d", i/4%2), fmt.Sprintf("leaf03.%d", i/8%2))
	}
	return db, tree
}

// TestAnchoredRootSetsOnConditionalIndex pins the conditional-index path of
// anchored search: on data where root sets of three, four and five are
// counted, some level-1 rows weigh more than 1 and the ranked answers start
// from root sets of four — supports that only a correctly carried prefix
// AND gets right — every anchored run (shards 1, 2 and 7) returns byte for
// byte what anchoredReference does. Each run on a fresh engine must leave a
// conditional index in its scratch, with heavy rows, after counting a root
// set of four; the same queries then run concurrently, three copies each,
// on one shared engine.
func TestAnchoredRootSetsOnConditionalIndex(t *testing.T) {
	db, tree := denseAnchoredDataset()
	base := DefaultConfig(tree.Height())
	base.Gamma, base.Epsilon, base.MinSup = 0.4, 0.2, []float64{0.02, 0.005}
	full, err := Mine(db, tree, base)
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		cfg    Config
		shards int
		want   string
	}
	var queries []query
	rootQuads := false // some expected pattern starts from a root set of four
	for _, anchor := range []string{"cat00", "leaf01.1", "cat05"} {
		ref := anchoredReference(full, tree, anchor, 3)
		for _, p := range ref {
			rootQuads = rootQuads || len(p.Chain[0].Items) >= 4
		}
		for _, shards := range []int{1, 2, 7} {
			cfg := base
			cfg.Anchor, cfg.AnchorTopK = anchor, 3
			queries = append(queries, query{cfg, shards, rankedFingerprint(ref, tree)})
		}
	}
	if !rootQuads {
		t.Fatal("no expected pattern starts from a root set of four; the data no longer exercises the carried prefix")
	}
	for _, q := range queries {
		eng := NewEngine(txdb.PartitionSource(db, q.shards), tree)
		res, err := eng.Mine(q.cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("anchor %s shards=%d", q.cfg.Anchor, q.shards)
		if got := rankedFingerprint(res.Patterns, tree); got != q.want {
			t.Fatalf("%s diverged from the filtered full mine.\nexact:\n%s\nanchored:\n%s", name, q.want, got)
		}
		sc := &eng.scratch[0].anchored
		switch {
		case len(sc.weights) == 0:
			t.Fatalf("%s built no conditional index", name)
		case sc.heavy.Count() == 0:
			t.Fatalf("%s: no conditional row weighs more than 1", name)
		case len(sc.sets) <= 4:
			t.Fatalf("%s counted no root set of four", name)
		}
	}
	// Concurrent queries on one engine share its cached indexes and scratch
	// pool; under -race this races every query's conditional build.
	for _, shards := range []int{1, 2, 7} {
		eng := NewEngine(txdb.PartitionSource(db, shards), tree)
		var wg sync.WaitGroup
		const copies = 3
		errs := make([]error, copies*len(queries))
		for i := range errs {
			q := queries[i%len(queries)]
			if q.shards != shards {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := eng.Mine(q.cfg)
				if err == nil && rankedFingerprint(res.Patterns, tree) != q.want {
					err = fmt.Errorf("anchor %s shards=%d diverged on a shared engine", q.cfg.Anchor, shards)
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
