package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// TestShuffleInvariance: the mined patterns (and every support and
// correlation in their chains) must not depend on transaction order —
// counting is a pure aggregation.
func TestShuffleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
			MinSupAbs: []int64{2, 1, 1}, Pruning: Full,
		}
		base, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fingerprint(base, tree)
		for _, seed := range []int64{1, 99} {
			shuffled := txdb.New(tree.Dict())
			for i := 0; i < db.Len(); i++ {
				shuffled.AddSet(db.Tx(i))
			}
			shuffled.Shuffle(seed)
			res, err := Mine(shuffled, tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(res, tree); got != want {
				t.Fatalf("trial %d seed %d: result depends on transaction order", trial, seed)
			}
		}
	}
}

// TestParallelismInvariance: worker count must not affect any reported
// value, only wall-clock time.
func TestParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 5; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure: measure.Kulczynski, Gamma: 0.3, Epsilon: 0.1,
			MinSupAbs: []int64{1, 1, 1}, Pruning: Full,
		}
		var want string
		for _, workers := range []int{1, 2, 7, 16} {
			c := cfg
			c.Parallelism = workers
			res, err := Mine(db, tree, c)
			if err != nil {
				t.Fatal(err)
			}
			fp := fingerprint(res, tree)
			if workers == 1 {
				want = fp
				continue
			}
			if fp != want {
				t.Fatalf("trial %d: %d workers changed the result", trial, workers)
			}
		}
	}
}

// TestWorkSplitInvariance pins the (shard, range) work split on levels
// large enough to cut: every level holds at least three scanBlocks of
// distinct rows, so scan passes split each shard's rows across workers, and
// shards fewer than the workers split too. Within a shard count the whole envelope — patterns and every
// counter, volatile keys aside — must not depend on Parallelism, up to the
// largest an int holds, nor on whether the passes run locally or through
// MineRemote over a second engine; across shard counts the patterns must not
// change.
func TestWorkSplitInvariance(t *testing.T) {
	tree, err := taxonomyBuilderForDense(t).Build()
	if err != nil {
		t.Fatal(err)
	}
	db := txdbForDense(rand.New(rand.NewSource(77)), tree, 2000)
	base := Config{
		Measure: measure.Kulczynski, Gamma: 0.2, Epsilon: 0.1,
		MinSupAbs: []int64{30, 10}, Pruning: Full, MaxK: 3,
	}
	ds, err := NewEngine(db, tree).dataFor(base)
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= tree.Height(); h++ {
		if rows := ds.levels[0][h].Rows(); rows < 3*scanBlock {
			t.Fatalf("level %d has %d distinct rows, want ≥ %d so that scans split", h, rows, 3*scanBlock)
		}
	}
	for _, v := range []struct {
		name   string
		stream bool
	}{
		{"in-memory", false},
		{"streaming", true},
	} {
		var patterns string // the unsharded run's
		for _, shards := range []int{1, 2, 3} {
			var src txdb.Source = txdb.PartitionSource(db, shards)
			if v.stream {
				src = streamedShards(t, db, shards)
			}
			var want []byte
			for _, par := range []int{1, 2, 3, 7, math.MaxInt64} {
				cfg := base
				cfg.Parallelism = par
				res, err := Mine(src, tree, cfg)
				if err != nil {
					t.Fatalf("%s shards=%d parallelism=%d: %v", v.name, shards, par, err)
				}
				got := scrubbedJSON(t, res, tree)
				fp := fingerprint(res, tree)
				switch {
				case shards == 1 && par == 1:
					if len(res.Patterns) == 0 {
						t.Fatalf("%s: no patterns; the comparisons below would be vacuous", v.name)
					}
					patterns = fp
				case fp != patterns:
					t.Fatalf("%s shards=%d parallelism=%d: patterns diverge from the unsharded run", v.name, shards, par)
				}
				if par == 1 {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("%s shards=%d parallelism=%d: envelope diverges from parallelism 1:\n%s\nvs\n%s", v.name, shards, par, want, got)
				}
			}
			remote, err := NewEngine(src, tree).MineRemote(context.Background(), base, NewEngine(src, tree))
			if err != nil {
				t.Fatalf("%s shards=%d remote: %v", v.name, shards, err)
			}
			if got := scrubbedJSON(t, remote, tree); !bytes.Equal(got, want) {
				t.Fatalf("%s shards=%d: remote envelope diverges from the local run:\n%s\nvs\n%s", v.name, shards, want, got)
			}
		}
	}
}

// TestRepeatedMiningIsPure: mining the same inputs twice yields identical
// results and leaves the database untouched.
func TestRepeatedMiningIsPure(t *testing.T) {
	db, tree := paperToy(t)
	before := make([]string, db.Len())
	for i := 0; i < db.Len(); i++ {
		before[i] = db.Tx(i).Key()
	}
	cfg := toyConfig()
	a, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a, tree) != fingerprint(b, tree) {
		t.Fatal("two identical runs disagree")
	}
	for i := 0; i < db.Len(); i++ {
		if db.Tx(i).Key() != before[i] {
			t.Fatal("mining mutated the database")
		}
	}
}
