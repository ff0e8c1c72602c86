package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/iotest"

	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// TestShardedMiningEquivalence is the acceptance property of shard-parallel
// counting: across every pruning level and shard counts 1, 2, 3 and 7, mining a partitioned database (txdb.PartitionSource)
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
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		for _, pruning := range Levels() {
			cfg := Config{
				Measure:   measure.Kulczynski,
				Gamma:     0.3,
				Epsilon:   0.1,
				MinSupAbs: []int64{2, 1, 1},
				Pruning:   pruning,
			}
			base, err := Mine(db, tree, cfg)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, pruning, err)
			}
			want := fingerprint(base, tree)
			if base.Stats.Shards != 1 {
				t.Fatalf("trial %d: unsharded run reports %d shards", trial, base.Stats.Shards)
			}
			for _, shards := range shardCounts {
				res, err := Mine(txdb.PartitionSource(db, shards), tree, cfg)
				if err != nil {
					t.Fatalf("trial %d %v shards=%d: %v", trial, pruning, shards, err)
				}
				if got := fingerprint(res, tree); got != want {
					t.Fatalf("trial %d: %v with %d shards diverged from unsharded.\nunsharded:\n%s\nsharded:\n%s",
						trial, pruning, shards, want, got)
				}
				if res.Stats.Shards != shards {
					t.Fatalf("trial %d: %d shards, stats report %d", trial, shards, res.Stats.Shards)
				}
				if shards == 1 {
					if got, unsharded := scrubbedJSON(t, res, tree), scrubbedJSON(t, base, tree); !bytes.Equal(got, unsharded) {
						t.Fatalf("trial %d: %v over one shard diverged from unsharded.\nunsharded:\n%s\none shard:\n%s",
							trial, pruning, unsharded, got)
					}
				}
			}
		}
	}
}

// TestShardedStreamingEquivalence covers the disk-resident shard path:
// ShardedSources of per-shard basket files (the out-of-core layout) must
// stream-count to the same output as the single-file streaming scan and as
// the in-memory database.
func TestShardedStreamingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		db, tree := randomDataset(rng)
		cfg := Config{
			Measure:   measure.Kulczynski,
			Gamma:     0.3,
			Epsilon:   0.1,
			MinSupAbs: []int64{2, 1, 1},
			Pruning:   Full,
			Strategy:  CountScan,
		}
		mem, err := Mine(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fingerprint(mem, tree)
		base, err := Mine(streamed(t, db), tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(base, tree); got != want {
			t.Fatalf("trial %d: streaming diverged from in-memory.\nwant:\n%s\ngot:\n%s", trial, want, got)
		}
		for _, n := range []int{3, 4} {
			res, err := Mine(streamedShards(t, db, n), tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(res, tree); got != want {
				t.Fatalf("trial %d: out-of-core streaming over %d shards diverged.\nwant:\n%s\ngot:\n%s", trial, n, want, got)
			}
			if res.Stats.Shards != n {
				t.Fatalf("trial %d: file-sharded run reports %d shards, want %d", trial, res.Stats.Shards, n)
			}
			if res.Stats.DBScans != base.Stats.DBScans {
				t.Fatalf("trial %d: %d streamed shards changed the stats: %+v, want %+v", trial, n, res.Stats, base.Stats)
			}
		}
	}
}

// streamed writes db's transactions to a basket file in a test temp dir and
// opens it as a FileSource over db's dictionary: the disk-resident twin of
// the in-memory db, which an engine streams.
func streamed(t testing.TB, db *txdb.DB) *txdb.FileSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baskets.txt")
	if err := db.WriteBasketFile(path); err != nil {
		t.Fatal(err)
	}
	fs, err := txdb.OpenFile(path, db.Dict())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// streamedShards is the out-of-core layout of db: one streamed basket file
// per part of txdb.Partition(db, n), composed into a ShardedSource.
func streamedShards(t testing.TB, db *txdb.DB, n int) *txdb.ShardedSource {
	t.Helper()
	var shards []txdb.Source
	for _, part := range txdb.Partition(db, n) {
		shards = append(shards, streamed(t, part))
	}
	ss, err := txdb.NewSharded(shards...)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// failAfterOpens makes fs's disk go away: from now on, its first ok opens
// read the file and every later one fails with errSentinel.
func failAfterOpens(fs *txdb.FileSource, ok int) *txdb.FileSource {
	opens := 0
	fs.SetReaderWrapper(func(r io.Reader) io.Reader {
		if opens++; opens > ok {
			return iotest.ErrReader(errSentinel)
		}
		return r
	})
	return fs
}

// TestStreamingScanErrorFailsMine pins the failure contract of disk-resident
// counting, sharded and not: an I/O error during a counting pass must fail
// the mine rather than silently dropping the failed pass's counts.
func TestStreamingScanErrorFailsMine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, tree := randomDataset(rng)
	cfg := Config{
		Measure:   measure.Kulczynski,
		Gamma:     0.3,
		Epsilon:   0.1,
		MinSupAbs: []int64{1, 1, 1},
		Pruning:   Full,
		Strategy:  CountScan,
	}

	// Single source: the init pass succeeds, the first counting pass fails.
	if _, err := Mine(failAfterOpens(streamed(t, db), 1), tree, cfg); !errors.Is(err, errSentinel) {
		t.Fatalf("unsharded streaming mine over a failing file returned %v, want the read error", err)
	}

	// Sharded source with one bad shard: each shard scans once at init, so
	// ok=1 makes the bad shard fail on its first counting pass.
	parts := txdb.Partition(db, 2)
	ss, err := txdb.NewSharded(streamed(t, parts[0]), failAfterOpens(streamed(t, parts[1]), 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(ss, tree, cfg); !errors.Is(err, errSentinel) {
		t.Fatalf("sharded streaming mine with a failing shard returned %v, want the read error", err)
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
		Measure:   measure.Kulczynski,
		Gamma:     0.3,
		Epsilon:   0.1,
		MinSupAbs: []int64{1, 1, 1},
		Pruning:   Full,
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
}
