package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// TestEngineReuseByteIdentical mines the same configuration repeatedly on
// one engine — materialized, streamed and sharded — and requires each warm
// run's wire envelope (volatile keys scrubbed) to be byte-identical to a
// cold one-shot Mine. This is the contract that lets flipperd keep one
// engine per dataset: caching level views, subset tables and scratch must
// be invisible in the output, including the cost stats. The cases named
// after a retired backend mine warm under that spelling and must still
// answer scan's cold envelope.
func TestEngineReuseByteIdentical(t *testing.T) {
	db, tree := paperToy(t)
	scrub := func(res *Result) []byte { return scrubbedJSON(t, res, tree) }
	for _, tc := range []struct {
		name     string
		spelling string
		src      txdb.Source
		pruning  PruningLevel
	}{
		{"scan", "scan", db, Full},
		{"bitmap", "bitmap", db, Full},
		{"auto", "auto", db, Full},
		{"scan-sharded", "scan", txdb.PartitionSource(db, 3), Full},
		{"bitmap-sharded", "bitmap", txdb.PartitionSource(db, 3), Full},
		{"basic-baseline", "scan", db, Basic},
		{"scan-streamed", "scan", streamed(t, db), Full},
		{"scan-streamed-sharded", "scan", streamedShards(t, db, 3), Full},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := toyConfig()
			cfg.Pruning = tc.pruning
			cold, err := Mine(tc.src, tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := scrub(cold)
			if cfg.Strategy, err = ParseCountStrategy(tc.spelling); err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(tc.src, tree)
			for run := 0; run < 3; run++ {
				res, err := eng.Mine(cfg)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if got := scrub(res); !bytes.Equal(got, want) {
					t.Fatalf("run %d diverged from cold mine:\ncold: %s\nwarm: %s", run, want, got)
				}
			}
		})
	}
}

// scrubbedJSON is the result's wire envelope with the volatile stats keys
// removed: everything two runs over the same input must agree on.
func scrubbedJSON(t *testing.T, res *Result, tree *taxonomy.Tree) []byte {
	t.Helper()
	raw, err := json.Marshal(res.JSON(tree))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	stats := m["stats"].(map[string]any)
	for _, k := range VolatileStatsKeys() {
		delete(stats, k)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEngineReuseMixedConfigs interleaves different thresholds on an
// in-memory engine and on a streaming one: every run must match its own
// cold baseline.
func TestEngineReuseMixedConfigs(t *testing.T) {
	db, tree := paperToy(t)
	srcs := []txdb.Source{db, streamed(t, db)}
	engs := []*Engine{NewEngine(srcs[0], tree), NewEngine(srcs[1], tree)}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		cfg := toyConfig()
		stream := rng.Intn(2)
		cfg.Epsilon = 0.2 + 0.2*rng.Float64()
		cold, err := Mine(srcs[stream], tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := engs[stream].Mine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(scrubbedJSON(t, cold, tree), scrubbedJSON(t, warm, tree)) {
			t.Fatalf("iteration %d (stream=%v): engine run diverged", i, stream == 1)
		}
	}
}

// TestEngineReuseAllocatesLess pins that no mine allocates per
// transaction: the level build interns rows into arenas, the streaming
// passes generalize into reused buffers, and a warm Mine takes levels,
// indexes, candidate tries, cell metadata and counting buffers from the
// engine's caches. The same generator at N and 4N transactions must give a
// cold engine+Mine and a warm Mine allocation counts that grow by less than
// one allocation per ten added transactions, materialized and streaming.
func TestEngineReuseAllocatesLess(t *testing.T) {
	b := taxonomyBuilderForDense(t)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, stream := range []bool{false, true} {
		cfg := toyConfig()
		cfg.MinSupAbs = []int64{1, 1}
		cfg.Parallelism = 1 // deterministic allocation profile
		allocs := func(n int) (cold, warm float64) {
			var src txdb.Source = txdbForDense(rand.New(rand.NewSource(99)), tree, n)
			if stream {
				src = streamed(t, src.(*txdb.DB))
			}
			cold = testing.AllocsPerRun(3, func() {
				if _, err := NewEngine(src, tree).Mine(cfg); err != nil {
					t.Fatal(err)
				}
			})
			eng := NewEngine(src, tree)
			if _, err := eng.Mine(cfg); err != nil {
				t.Fatal(err)
			}
			warm = testing.AllocsPerRun(3, func() {
				if _, err := eng.Mine(cfg); err != nil {
					t.Fatal(err)
				}
			})
			return cold, warm
		}
		const n = 500
		cold1, warm1 := allocs(n)
		cold4, warm4 := allocs(4 * n)
		t.Logf("stream=%v allocs/op at N=%d: cold %.0f, warm %.0f; at N=%d: cold %.0f, warm %.0f",
			stream, n, cold1, warm1, 4*n, cold4, warm4)
		limit := float64(3*n) / 10
		if cold4-cold1 > limit || warm4-warm1 > limit {
			t.Fatalf("stream=%v: allocations grow with N: cold %.0f → %.0f, warm %.0f → %.0f for %d more transactions (limit +%.0f)",
				stream, cold1, cold4, warm1, warm4, 3*n, limit)
		}
	}
}

// TestEngineConcurrentMine hammers one engine from many goroutines with a
// mix of configurations and checks each result against its serial
// fingerprint — the engine's concurrency contract, exercised under the
// race detector by the CI race job. A streaming engine over the same
// baskets is hammered alongside.
func TestEngineConcurrentMine(t *testing.T) {
	db, tree := paperToy(t)
	file := streamed(t, db)
	mem, streaming := NewEngine(db, tree), NewEngine(file, tree)
	cfgs := make([]Config, 8)
	engs := make([]*Engine, len(cfgs))
	want := make([]string, len(cfgs))
	for i := range cfgs {
		cfg := toyConfig()
		cfg.Pruning = []PruningLevel{Full, Basic, FlippingTPG}[i%3]
		var src txdb.Source = db
		engs[i] = mem
		if i >= 4 { // half in memory, half streaming
			src, engs[i] = file, streaming
		}
		cfgs[i] = cfg
		res, err := Mine(src, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprint(res, tree)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(cfgs)*4)
	for round := 0; round < 4; round++ {
		for i := range cfgs {
			wg.Add(1)
			go func(round, i int) {
				defer wg.Done()
				res, err := engs[i].Mine(cfgs[i])
				if err != nil {
					errs <- fmt.Errorf("round %d cfg %d: %w", round, i, err)
					return
				}
				if got := fingerprint(res, tree); got != want[i] {
					errs <- fmt.Errorf("round %d cfg %d: concurrent result diverged", round, i)
				}
			}(round, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEngineSweepMatchesFreeFunctions pins the engine-resident threshold
// helpers to their one-shot counterparts.
func TestEngineSweepMatchesFreeFunctions(t *testing.T) {
	db, tree := paperToy(t)
	cfg := toyConfig()
	eps := []float64{0.5, 0.35, 0.2}
	free, err := EpsilonSweep(db, tree, cfg, eps)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(db, tree)
	bound, err := eng.EpsilonSweep(cfg, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(free) != len(bound) {
		t.Fatalf("sweep lengths diverged: %d vs %d", len(free), len(bound))
	}
	for i := range free {
		if free[i] != bound[i] {
			t.Fatalf("sweep point %d diverged: %+v vs %+v", i, free[i], bound[i])
		}
	}
	fe, fres, ffound, err := SuggestEpsilon(db, tree, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	be, bres, bfound, err := eng.SuggestEpsilon(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fe != be || ffound != bfound || fingerprint(fres, tree) != fingerprint(bres, tree) {
		t.Fatalf("SuggestEpsilon diverged: free (ε=%v found=%v) vs engine (ε=%v found=%v)", fe, ffound, be, bfound)
	}
}
