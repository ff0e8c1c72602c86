package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// loopback is the simplest ShardCounter: a second engine over the same
// dataset answering every unit itself — what the cluster coordinator does
// over HTTP, minus the network — and counting the units it answers.
// MineRemote through it must therefore be byte-identical to plain Mine.
type loopback struct {
	*Engine
	units atomic.Int64
}

func (lb *loopback) CountShard(ctx context.Context, u ShardUnit) (ShardTally, error) {
	lb.units.Add(1)
	return lb.Engine.CountShard(ctx, u)
}

// TestMineRemoteLoopbackEquivalence is the core guarantee distributed mining
// is built on: a run whose every pass is answered unit by unit by CountShard
// produces exactly the envelope of a single-process run — patterns and
// every counter, volatile keys aside — across shard counts and the
// streaming mode.
func TestMineRemoteLoopbackEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 8
	if testing.Short() {
		trials = 3
	}
	cases := []struct {
		name   string
		stream bool
		shards int
	}{
		{"mat-1", false, 1},
		{"mat-2", false, 2},
		{"mat-7", false, 7},
		{"stream-7", true, 7},
	}
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		for _, tc := range cases {
			cfg := Config{
				Measure:   measure.Kulczynski,
				Gamma:     0.3,
				Epsilon:   0.1,
				MinSupAbs: []int64{2, 1, 1},
				Pruning:   Full,
			}
			var src txdb.Source = txdb.PartitionSource(db, tc.shards)
			if tc.stream {
				src = streamedShards(t, db, tc.shards)
			}
			local, err := Mine(src, tree, cfg)
			if err != nil {
				t.Fatalf("trial %d %s: local: %v", trial, tc.name, err)
			}
			lb := &loopback{Engine: NewEngine(src, tree)}
			remote, err := NewEngine(src, tree).MineRemote(context.Background(), cfg, lb)
			if err != nil {
				t.Fatalf("trial %d %s: remote: %v", trial, tc.name, err)
			}
			if got, want := scrubbedJSON(t, remote, tree), scrubbedJSON(t, local, tree); !bytes.Equal(got, want) {
				t.Fatalf("trial %d %s: remote diverged from local.\nlocal:\n%s\nremote:\n%s",
					trial, tc.name, want, got)
			}
			if local.Stats.CandidatesCounted > 0 && lb.units.Load() == 0 {
				t.Fatalf("trial %d %s: counter never called", trial, tc.name)
			}
		}
	}
}

// shardUnitCandidates returns a few canonical 2-itemsets of the leaf level
// generalized to every level, deduplicated in first-seen order (the slab
// order CountShard enforces), indexed by level.
func shardUnitCandidates(tree *taxonomy.Tree) [][]itemset.Set {
	leaves := tree.Leaves()
	var cands []itemset.Set
	for i := 0; i+1 < len(leaves) && len(cands) < 6; i += 2 {
		if a, b := leaves[i], leaves[i+1]; a != b {
			cands = append(cands, itemset.Set{min(a, b), max(a, b)})
		}
	}
	out := make([][]itemset.Set, tree.Height()+1)
	for h := 1; h <= tree.Height(); h++ {
		seen := map[string]bool{}
		for _, c := range cands {
			if g, ok := tree.GeneralizeSet(c, h); ok && len(g) == len(c) && !seen[g.Key()] {
				seen[g.Key()] = true
				out[h] = append(out[h], g)
			}
		}
	}
	return out
}

// TestCountShardPartialsSumToTotals pins the per-shard contract directly:
// the per-shard vectors sum to the unsharded totals.
func TestCountShardPartialsSumToTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, tree := randomDataset(rng)
	ctx := context.Background()
	byLevel := shardUnitCandidates(tree)
	counted := 0
	for h := 1; h <= tree.Height(); h++ {
		hc := byLevel[h]
		if len(hc) == 0 {
			continue
		}
		var want []int64
		for _, shards := range []int{1, 2, 7} {
			src := txdb.PartitionSource(db, shards)
			eng := NewEngine(src, tree)
			got := make([]int64, len(hc))
			for s := range txdb.ShardsOf(src) {
				u := ShardUnit{Level: h, K: 2, Shard: s, Candidates: hc}
				scan, err := eng.CountShard(ctx, u)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range scan.Supports {
					got[i] += v
				}
			}
			if shards == 1 {
				want = got
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("h=%d shards=%d cand %v: partials sum to %d, whole-db says %d",
						h, shards, hc[i], got[i], want[i])
				}
			}
		}
		counted++
	}
	if counted == 0 {
		t.Fatal("no level had candidates; the comparisons were vacuous")
	}
}

// TestCountShardBuildsOnlyItsIndex pins the lazy per-(level, shard, k)
// subset-table cache a cluster worker relies on: reaching shard 1 of a
// two-shard engine twice builds shard 1's pair table and leaves shard 0's
// unbuilt and unreached.
func TestCountShardBuildsOnlyItsIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db, tree := randomDataset(rng)
	h := tree.Height()
	cands := shardUnitCandidates(tree)[h]
	eng := NewEngine(txdb.PartitionSource(db, 2), tree)
	for reach := 0; reach < 2; reach++ {
		if _, err := eng.CountShard(context.Background(), ShardUnit{Level: h, K: 2, Shard: 1, Candidates: cands}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := eng.dataFor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.shards) != 2 {
		t.Fatalf("%d shards, want 2", len(ds.shards))
	}
	if ds.tableSlot(h, 1, 2).t == nil {
		t.Fatal("shard 1's pair table was not built")
	}
	if lt := ds.tableSlot(h, 0, 2); lt.t != nil || lt.reaches.Load() != 0 {
		t.Fatal("counting shard 1 reached shard 0's pair table")
	}
}

// TestCountShardValidation pins the unit-validation surface workers rely on
// to reject malformed, misaligned or unservable coordinator requests.
func TestCountShardValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db, tree := randomDataset(rng)
	eng := NewEngine(db, tree)
	ctx := context.Background()
	leaves := tree.Leaves()
	a, b := min(leaves[0], leaves[1]), max(leaves[0], leaves[1])
	H := tree.Height()
	good := ShardUnit{Level: H, K: 2, Candidates: []itemset.Set{{a, b}}}
	for _, tc := range []struct {
		name string
		edit func(u *ShardUnit)
	}{
		{"level 0", func(u *ShardUnit) { u.Level = 0 }},
		{"level beyond height", func(u *ShardUnit) { u.Level = H + 1 }},
		{"out-of-range shard", func(u *ShardUnit) { u.Shard = 1 }},
		{"negative shard", func(u *ShardUnit) { u.Shard = -1 }},
		{"k = 0", func(u *ShardUnit) { u.K = 0 }},
		{"k over the level's widest row", func(u *ShardUnit) { u.K = 1 << 30; u.Candidates = nil }},
		{"non-canonical candidate", func(u *ShardUnit) { u.Candidates = []itemset.Set{{b, a}} }},
		{"duplicate candidate", func(u *ShardUnit) { u.Candidates = []itemset.Set{{a, b}, {a, b}} }},
		{"mixed-size candidates", func(u *ShardUnit) { u.Candidates = []itemset.Set{{a, b}, {a}} }},
	} {
		u := good
		tc.edit(&u)
		if _, err := eng.CountShard(ctx, u); !errors.Is(err, ErrBadUnit) {
			t.Errorf("%s: got %v, want ErrBadUnit", tc.name, err)
		}
	}
	// A rejected unit is refused before any counting: no pass reached the
	// level's pair table, which every counted k = 2 unit reaches.
	ds, err := eng.dataFor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := ds.tableSlot(H, 0, 2).reaches.Load(); n != 0 {
		t.Errorf("rejected units reached the pair table %d times", n)
	}
	if out, err := eng.CountShard(ctx, good); err != nil || len(out.Supports) != 1 {
		t.Errorf("valid unit: got %v, %v", out, err)
	}
	// An engine over a basket file streams it, and counts the same units.
	streaming := NewEngine(streamed(t, db), tree)
	if out, err := streaming.CountShard(ctx, good); err != nil || len(out.Supports) != 1 {
		t.Errorf("valid streaming unit: got %v, %v", out, err)
	}
	u := good
	u.Candidates = nil
	if out, err := eng.CountShard(ctx, u); err != nil || len(out.Supports) != 0 {
		t.Errorf("empty candidate list: got %v, %v", out, err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.CountShard(cancelled, good); err == nil || errors.Is(err, ErrBadUnit) {
		t.Errorf("cancelled context: got %v, want the context error", err)
	}
}

// TestMineRemoteCounterError verifies a failing counter fails the mine — no
// partial or silently undercounted result ever escapes.
func TestMineRemoteCounterError(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db, tree := randomDataset(rng)
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
		MinSupAbs: []int64{1, 1, 1},
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

func (failingCounter) CountShard(context.Context, ShardUnit) (ShardTally, error) {
	return ShardTally{}, fmt.Errorf("boom")
}

// selfCounter answers every unit from the engine that is mining: the
// coordinator's degraded fallback, which counts a unit on its own engine
// while that engine's MineRemote holds a scratch of the same pool.
type selfCounter struct{ eng *Engine }

func (sc selfCounter) CountShard(ctx context.Context, u ShardUnit) (ShardTally, error) {
	return sc.eng.CountShard(ctx, u)
}

// TestCountShardPooledStore runs CountShard calls of mixed k on one engine
// from several goroutines, and beside them a MineRemote whose units that
// engine answers itself. Every store and partial comes out of the engine's
// scratch pool, so each tally must equal a fresh engine's answer to the
// unit, a tally held across later calls must keep its values, and the mine
// must equal a local one. CI runs it with -race -count=10.
func TestCountShardPooledStore(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	db, tree := randomDataset(rng)
	src := txdb.PartitionSource(db, 2)
	cfg := Config{
		Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
		MinSupAbs: []int64{2, 1, 1}, Pruning: Full,
	}
	ctx := context.Background()
	// Units of k = 1..4 at every level: each window of k consecutive nodes.
	var units []ShardUnit
	for h := 1; h <= tree.Height(); h++ {
		nodes := tree.NodesAtLevel(h)
		for k := 1; k <= 4 && k <= len(nodes); k++ {
			var cands []itemset.Set
			for i := 0; i+k <= len(nodes); i++ {
				cands = append(cands, itemset.New(nodes[i:i+k]...))
			}
			for s := 0; s < 2; s++ {
				units = append(units, ShardUnit{Level: h, K: k, Shard: s, Candidates: cands})
			}
		}
	}
	want := make([]ShardTally, len(units))
	counted := int64(0)
	for i, u := range units {
		tally, err := NewEngine(src, tree).CountShard(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = tally
		for _, v := range tally.Supports {
			counted += v
		}
	}
	if counted == 0 {
		t.Fatal("every unit counted zero; the comparisons would be vacuous")
	}
	local, err := Mine(src, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if local.Stats.CandidatesCounted == 0 {
		t.Fatal("the mine counts nothing; its units would not share the pool")
	}

	eng := NewEngine(src, tree)
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []ShardTally // one tally per unit, from this goroutine's first round
			for round := 0; round < 3; round++ {
				for n := range units {
					i := (n*(g+1) + round) % len(units) // a different order per goroutine
					got, err := eng.CountShard(ctx, units[i])
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						errs <- fmt.Errorf("goroutine %d: unit %d answered %+v, a fresh engine %+v", g, i, got, want[i])
						return
					}
					if round == 0 {
						held = append(held, got)
					}
				}
			}
			for n, tally := range held {
				if i := n * (g + 1) % len(units); !reflect.DeepEqual(tally, want[i]) {
					errs <- fmt.Errorf("goroutine %d: a held tally of unit %d changed to %+v", g, i, tally)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := eng.MineRemote(ctx, cfg, selfCounter{eng})
		if err != nil {
			errs <- err
			return
		}
		if got, want := scrubbedJSON(t, res, tree), scrubbedJSON(t, local, tree); !bytes.Equal(got, want) {
			errs <- fmt.Errorf("a mine counted by its own engine diverged.\nlocal:\n%s\nremote:\n%s", want, got)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
