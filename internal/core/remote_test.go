package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
)

// loopbackCounter is the simplest possible CellCounter: it answers every
// cell by calling ShardSupports for each shard on a second engine over the
// same dataset and summing the partial vectors — exactly what the cluster
// coordinator does over HTTP, minus the network. MineRemote through it must
// therefore be byte-identical to plain Mine.
type loopbackCounter struct {
	eng    *Engine
	cfg    Config
	shards int
	calls  int
}

func (lc *loopbackCounter) CountCell(ctx context.Context, h, k int, cands []itemset.Set) ([]int64, error) {
	lc.calls++
	total := make([]int64, len(cands))
	for s := 0; s < lc.shards; s++ {
		part, err := lc.eng.ShardSupports(ctx, lc.cfg, h, cands, s)
		if err != nil {
			return nil, err
		}
		for i, v := range part {
			total[i] += v
		}
	}
	return total, nil
}

// TestMineRemoteLoopbackEquivalence is the core guarantee distributed mining
// is built on: a run whose counting is delegated cell-by-cell to
// ShardSupports-and-sum produces exactly the patterns of a single-process
// run, across strategies, shard counts and the streaming mode.
func TestMineRemoteLoopbackEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 8
	if testing.Short() {
		trials = 3
	}
	cases := []struct {
		name        string
		strategy    CountStrategy
		materialize bool
		shards      int
	}{
		{"scan-mat-1", CountScan, true, 1},
		{"scan-mat-2", CountScan, true, 2},
		{"scan-stream-7", CountScan, false, 7},
		{"bitmap-mat-7", CountBitmap, true, 7},
		{"auto-mat-2", CountAuto, true, 2},
	}
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		for _, tc := range cases {
			cfg := Config{
				Measure:     measure.Kulczynski,
				Gamma:       0.3,
				Epsilon:     0.1,
				MinSupAbs:   []int64{2, 1, 1},
				Pruning:     Full,
				Strategy:    tc.strategy,
				Materialize: tc.materialize,
				Shards:      tc.shards,
			}
			local, err := Mine(db, tree, cfg)
			if err != nil {
				t.Fatalf("trial %d %s: local: %v", trial, tc.name, err)
			}
			worker := NewEngine(db, tree)
			lc := &loopbackCounter{eng: worker, cfg: cfg, shards: worker.ResolveShards(cfg)}
			coord := NewEngine(db, tree)
			remote, err := coord.MineRemote(context.Background(), cfg, lc)
			if err != nil {
				t.Fatalf("trial %d %s: remote: %v", trial, tc.name, err)
			}
			if got, want := fingerprint(remote, tree), fingerprint(local, tree); got != want {
				t.Fatalf("trial %d %s: remote diverged from local.\nlocal:\n%s\nremote:\n%s",
					trial, tc.name, want, got)
			}
			if local.Stats.CandidatesCounted > 0 && lc.calls == 0 {
				t.Fatalf("trial %d %s: counter never called", trial, tc.name)
			}
		}
	}
}

// TestShardSupportsPartialsSumToTotals pins the partial-vector contract
// directly: per-shard vectors sum to the unsharded shard-0 totals.
func TestShardSupportsPartialsSumToTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, tree := randomDataset(rng)
	cands := []itemset.Set{}
	// Build a few canonical 2-itemsets from the dictionary's leaf IDs.
	leaves := tree.Leaves()
	for i := 0; i+1 < len(leaves) && len(cands) < 6; i += 2 {
		a, b := leaves[i], leaves[i+1]
		if a > b {
			a, b = b, a
		}
		if a == b {
			continue
		}
		cands = append(cands, itemset.Set{a, b})
	}
	if len(cands) == 0 {
		t.Skip("no candidate pairs")
	}
	base := Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
		MinSupAbs: []int64{1, 1, 1}, Materialize: true,
	}
	ctx := context.Background()
	for h := 1; h <= tree.Height(); h++ {
		// Generalize the candidates to level h; skip collapsed ones.
		var hc []itemset.Set
		for _, c := range cands {
			g, ok := tree.GeneralizeSet(c, h)
			if ok && len(g) == len(c) {
				hc = append(hc, g)
			}
		}
		hc = dedupSets(hc)
		if len(hc) == 0 {
			continue
		}
		whole := NewEngine(db, tree)
		want, err := whole.ShardSupports(ctx, base, h, hc, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 7} {
			cfg := base
			cfg.Shards = shards
			eng := NewEngine(db, tree)
			n := eng.ResolveShards(cfg)
			got := make([]int64, len(hc))
			for s := 0; s < n; s++ {
				part, err := eng.ShardSupports(ctx, cfg, h, hc, s)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range part {
					got[i] += v
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("h=%d shards=%d cand %v: partials sum to %d, whole-db says %d",
						h, shards, hc[i], got[i], want[i])
				}
			}
		}
	}
}

// dedupSets removes duplicate itemsets, preserving first-seen order — the
// slab-order contract ShardSupports enforces.
func dedupSets(in []itemset.Set) []itemset.Set {
	seen := map[string]bool{}
	var out []itemset.Set
	for _, s := range in {
		k := s.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// TestShardSupportsValidation pins the request-validation surface workers
// rely on to reject malformed or misaligned coordinator requests.
func TestShardSupportsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db, tree := randomDataset(rng)
	eng := NewEngine(db, tree)
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
		MinSupAbs: []int64{1, 1, 1}, Materialize: true,
	}
	ctx := context.Background()
	leaves := tree.Leaves()
	a, b := leaves[0], leaves[1]
	if a > b {
		a, b = b, a
	}
	good := []itemset.Set{{a, b}}
	if _, err := eng.ShardSupports(ctx, cfg, 0, good, 0); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := eng.ShardSupports(ctx, cfg, tree.Height()+1, good, 0); err == nil {
		t.Error("level beyond height accepted")
	}
	if _, err := eng.ShardSupports(ctx, cfg, tree.Height(), good, 1); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := eng.ShardSupports(ctx, cfg, tree.Height(), []itemset.Set{{b, a}}, 0); err == nil {
		t.Error("non-canonical candidate accepted")
	}
	if _, err := eng.ShardSupports(ctx, cfg, tree.Height(), []itemset.Set{{a, b}, {a, b}}, 0); err == nil {
		t.Error("duplicate candidate accepted")
	}
	if _, err := eng.ShardSupports(ctx, cfg, tree.Height(), []itemset.Set{{a, b}, {a}}, 0); err == nil {
		t.Error("mixed-size candidates accepted")
	}
	out, err := eng.ShardSupports(ctx, cfg, tree.Height(), nil, 0)
	if err != nil || len(out) != 0 {
		t.Errorf("empty candidate list: got %v, %v", out, err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.ShardSupports(cancelled, cfg, tree.Height(), good, 0); err == nil {
		t.Error("cancelled context accepted")
	}
}

// TestMineRemoteCounterError verifies a failing counter fails the mine — no
// partial or silently undercounted result ever escapes.
func TestMineRemoteCounterError(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db, tree := randomDataset(rng)
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
		MinSupAbs: []int64{1, 1, 1}, Materialize: true,
	}
	eng := NewEngine(db, tree)
	_, err := eng.MineRemote(context.Background(), cfg, failingCounter{})
	if err == nil {
		t.Fatal("MineRemote succeeded with a failing counter")
	}
	if _, err := eng.MineRemote(context.Background(), cfg, nil); err == nil {
		t.Fatal("MineRemote accepted a nil counter")
	}
}

type failingCounter struct{}

func (failingCounter) CountCell(context.Context, int, int, []itemset.Set) ([]int64, error) {
	return nil, fmt.Errorf("boom")
}
