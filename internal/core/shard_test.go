package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// TestShardedMiningEquivalence is the acceptance property of shard-parallel
// counting: across every counting strategy, every pruning level and shard
// counts 1, 2, 3 and 7, mining a partitioned database (txdb.PartitionSource)
// produces output byte-identical to the unsharded run — same patterns, same
// supports, same correlations and labels — and one shard is the unsharded
// run, stats included. It runs under the CI race job (go test -race ./...),
// so the shard-worker scratch discipline is also raced on every change.
func TestShardedMiningEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	shardCounts := []int{1, 2, 3, 7}
	strategies := []CountStrategy{CountScan, CountBitmap, CountAuto}
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		for _, pruning := range Levels() {
			for _, strategy := range strategies {
				cfg := Config{
					Measure:     measure.Kulczynski,
					Gamma:       0.3,
					Epsilon:     0.1,
					MinSupAbs:   []int64{2, 1, 1},
					Pruning:     pruning,
					Strategy:    strategy,
					Materialize: true,
				}
				base, err := Mine(db, tree, cfg)
				if err != nil {
					t.Fatalf("trial %d %v/%v: %v", trial, pruning, strategy, err)
				}
				want := fingerprint(base, tree)
				if base.Stats.Shards != 1 {
					t.Fatalf("trial %d: unsharded run reports %d shards", trial, base.Stats.Shards)
				}
				for _, shards := range shardCounts {
					res, err := Mine(txdb.PartitionSource(db, shards), tree, cfg)
					if err != nil {
						t.Fatalf("trial %d %v/%v shards=%d: %v", trial, pruning, strategy, shards, err)
					}
					if got := fingerprint(res, tree); got != want {
						t.Fatalf("trial %d: %v/%v with %d shards diverged from unsharded.\nunsharded:\n%s\nsharded:\n%s",
							trial, pruning, strategy, shards, want, got)
					}
					if res.Stats.Shards != shards {
						t.Fatalf("trial %d: %d shards, stats report %d", trial, shards, res.Stats.Shards)
					}
					if shards == 1 {
						if got, unsharded := scrubbedJSON(t, res, tree), scrubbedJSON(t, base, tree); !bytes.Equal(got, unsharded) {
							t.Fatalf("trial %d: %v/%v over one shard diverged from unsharded.\nunsharded:\n%s\none shard:\n%s",
								trial, pruning, strategy, unsharded, got)
						}
					}
				}
			}
		}
	}
}

// TestShardedStreamingEquivalence covers the disk-resident shard path: a
// partitioned in-memory source and a ShardedSource of per-shard basket
// files (the out-of-core layout) must stream-count to the same output as
// the single-source streaming scan.
func TestShardedStreamingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure:     measure.Kulczynski,
			Gamma:       0.3,
			Epsilon:     0.1,
			MinSupAbs:   []int64{2, 1, 1},
			Pruning:     Full,
			Strategy:    CountScan,
			Materialize: false,
		}
		base, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fingerprint(base, tree)

		res, err := Mine(txdb.PartitionSource(db, 4), tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(res, tree); got != want {
			t.Fatalf("trial %d: streaming with in-memory shards diverged.\nwant:\n%s\ngot:\n%s", trial, want, got)
		}

		// Out-of-core: each partition written to its own basket file, mined
		// through file-backed shards that re-read disk on every pass.
		dir := t.TempDir()
		var shards []txdb.Source
		for i, part := range txdb.Partition(db, 3) {
			path := filepath.Join(dir, fmt.Sprintf("shard%03d.txt", i))
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := part.WriteBaskets(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			fs, err := txdb.OpenFile(path, tree.Dict())
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, fs)
		}
		ss, err := txdb.NewSharded(shards...)
		if err != nil {
			t.Fatal(err)
		}
		res, err = Mine(ss, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(res, tree); got != want {
			t.Fatalf("trial %d: out-of-core sharded streaming diverged.\nwant:\n%s\ngot:\n%s", trial, want, got)
		}
		if res.Stats.Shards != 3 {
			t.Fatalf("trial %d: file-sharded run reports %d shards, want 3", trial, res.Stats.Shards)
		}
	}
}

// flakySource is a Source whose Scan succeeds ok times and then fails —
// the shape of a disk going away between streaming counting passes.
type flakySource struct {
	db    *txdb.DB
	ok    int
	scans int
}

func (f *flakySource) Scan(fn func(tx itemset.Set) error) error {
	f.scans++
	if f.scans > f.ok {
		return errors.New("shard file unreadable")
	}
	return f.db.Scan(fn)
}

func (f *flakySource) Len() int               { return f.db.Len() }
func (f *flakySource) Dict() *dict.Dictionary { return f.db.Dict() }

// TestStreamingScanErrorFailsMine pins the failure contract of disk-resident
// counting, sharded and not: an I/O error during a counting pass must fail
// the mine rather than silently dropping the failed pass's counts.
func TestStreamingScanErrorFailsMine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, tree := randomDataset(rng)
	cfg := Config{
		Measure:     measure.Kulczynski,
		Gamma:       0.3,
		Epsilon:     0.1,
		MinSupAbs:   []int64{1, 1, 1},
		Pruning:     Full,
		Strategy:    CountScan,
		Materialize: false,
	}

	// Single source: the init pass succeeds, the first counting pass fails.
	if _, err := Mine(&flakySource{db: db, ok: 1}, tree, cfg); err == nil {
		t.Fatal("unsharded streaming mine over a failing source succeeded")
	}

	// Sharded source with one bad shard: each shard scans once at init, so
	// ok=1 makes the bad shard fail on its first counting pass.
	parts := txdb.Partition(db, 2)
	ss, err := txdb.NewSharded(parts[0], &flakySource{db: parts[1], ok: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(ss, tree, cfg); err == nil {
		t.Fatal("sharded streaming mine with a failing shard succeeded")
	}
}

// TestShardsExcludedFromCanonicalKey pins the cache-safety contract: the
// worker count that counts the shards is an execution knob and must not
// split the result cache.
func TestShardsExcludedFromCanonicalKey(t *testing.T) {
	a := DefaultConfig(3)
	b := DefaultConfig(3)
	b.Parallelism = 5
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatalf("Parallelism changed the canonical key:\n%s\n%s", a.CanonicalKey(), b.CanonicalKey())
	}
}

// TestShardStatsSurface checks that a sharded run reports its shard count
// and merge time through the JSON wire form.
func TestShardStatsSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db, tree := randomDataset(rng)
	cfg := Config{
		Measure:     measure.Kulczynski,
		Gamma:       0.3,
		Epsilon:     0.1,
		MinSupAbs:   []int64{1, 1, 1},
		Pruning:     Full,
		Strategy:    CountBitmap,
		Materialize: true,
	}
	res, err := Mine(txdb.PartitionSource(db, 4), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	js := res.Stats.JSON()
	if js.Shards != 4 {
		t.Fatalf("StatsJSON.Shards = %d, want 4", js.Shards)
	}
	if js.ShardMergeNs != res.Stats.ShardMergeNs {
		t.Fatalf("StatsJSON.ShardMergeNs = %d, want %d", js.ShardMergeNs, res.Stats.ShardMergeNs)
	}
	if res.Stats.CandidatesCounted > 0 && res.Stats.BitmapBuilds < 4 {
		t.Fatalf("sharded bitmap run built %d indexes, want ≥ 4 (one per shard)", res.Stats.BitmapBuilds)
	}
}
