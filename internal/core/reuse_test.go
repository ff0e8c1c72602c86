package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestEngineReuseByteIdentical mines the same configuration repeatedly on
// one engine — across every counting backend, materialized and sharded —
// and requires each warm run's wire envelope (volatile keys scrubbed) to be
// byte-identical to a cold one-shot Mine. This is the contract that lets
// flipperd keep one engine per dataset: caching level views, indexes and
// scratch must be invisible in the output, including the cost stats.
func TestEngineReuseByteIdentical(t *testing.T) {
	db, tree := paperToy(t)
	scrub := func(res *Result) []byte {
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
	for _, tc := range []struct {
		name     string
		strategy CountStrategy
		shards   int
		pruning  PruningLevel
	}{
		{"scan", CountScan, 0, Full},
		{"tidlist", CountTIDList, 0, Full},
		{"bitmap", CountBitmap, 0, Full},
		{"auto", CountAuto, 0, Full},
		{"scan-sharded", CountScan, 3, Full},
		{"bitmap-sharded", CountBitmap, 3, Full},
		{"basic-baseline", CountScan, 0, Basic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := toyConfig()
			cfg.Strategy = tc.strategy
			cfg.Shards = tc.shards
			cfg.Pruning = tc.pruning
			cold, err := Mine(db, tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := scrub(cold)
			eng := NewEngine(db, tree)
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

// TestEngineReuseMixedConfigs interleaves different strategies, shard
// counts and thresholds on one engine: per-(materialize, shards) data
// states must not bleed into each other, and every run must match its own
// cold baseline.
func TestEngineReuseMixedConfigs(t *testing.T) {
	db, tree := paperToy(t)
	eng := NewEngine(db, tree)
	rng := rand.New(rand.NewSource(5))
	strategies := []CountStrategy{CountScan, CountTIDList, CountBitmap, CountAuto}
	for i := 0; i < 20; i++ {
		cfg := toyConfig()
		cfg.Strategy = strategies[rng.Intn(len(strategies))]
		cfg.Shards = rng.Intn(4) // 0..3
		cfg.Epsilon = 0.2 + 0.2*rng.Float64()
		cold, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := eng.Mine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(cold, tree) != fingerprint(warm, tree) {
			t.Fatalf("iteration %d (strategy=%v shards=%d): engine run diverged", i, cfg.Strategy, cfg.Shards)
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
	for _, materialize := range []bool{true, false} {
		cfg := toyConfig()
		cfg.MinSupAbs = []int64{1, 1}
		cfg.Strategy = CountBitmap
		if cfg.Materialize = materialize; !materialize {
			cfg.Strategy = CountScan
		}
		cfg.Parallelism = 1 // deterministic allocation profile
		allocs := func(n int) (cold, warm float64) {
			db := txdbForDense(rand.New(rand.NewSource(99)), tree, n)
			cold = testing.AllocsPerRun(3, func() {
				if _, err := NewEngine(db, tree).Mine(cfg); err != nil {
					t.Fatal(err)
				}
			})
			eng := NewEngine(db, tree)
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
		t.Logf("materialize=%v allocs/op at N=%d: cold %.0f, warm %.0f; at N=%d: cold %.0f, warm %.0f",
			materialize, n, cold1, warm1, 4*n, cold4, warm4)
		limit := float64(3*n) / 10
		if cold4-cold1 > limit || warm4-warm1 > limit {
			t.Fatalf("materialize=%v: allocations grow with N: cold %.0f → %.0f, warm %.0f → %.0f for %d more transactions (limit +%.0f)",
				materialize, cold1, cold4, warm1, warm4, 3*n, limit)
		}
	}
}

// TestEngineConcurrentMine hammers one engine from many goroutines with a
// mix of configurations and checks each result against its serial
// fingerprint — the engine's concurrency contract, exercised under the
// race detector by the CI race job.
func TestEngineConcurrentMine(t *testing.T) {
	db, tree := paperToy(t)
	eng := NewEngine(db, tree)
	cfgs := make([]Config, 8)
	want := make([]string, len(cfgs))
	for i := range cfgs {
		cfg := toyConfig()
		cfg.Strategy = []CountStrategy{CountScan, CountTIDList, CountBitmap, CountAuto}[i%4]
		cfg.Shards = (i / 4) * 2 // half unsharded, half 2-sharded
		cfgs[i] = cfg
		res, err := Mine(db, tree, cfg)
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
				res, err := eng.Mine(cfgs[i])
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
