package txdb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
)

func randomShardDB(t *testing.T, n int, seed int64) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := New(nil)
	for i := 0; i < n; i++ {
		w := rng.Intn(5)
		names := make([]string, 0, w)
		for j := 0; j < w; j++ {
			names = append(names, fmt.Sprintf("item%02d", rng.Intn(20)))
		}
		db.AddNames(names...)
	}
	return db
}

// replay collects the transaction sequence a source produces.
func replay(t *testing.T, src Source) []itemset.Set {
	t.Helper()
	var out []itemset.Set
	if err := src.Scan(func(tx itemset.Set) error {
		out = append(out, tx.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPartitionPreservesOrderAndDict(t *testing.T) {
	db := randomShardDB(t, 103, 1)
	want := replay(t, db)
	for _, n := range []int{1, 2, 3, 7, 103, 500} {
		parts := Partition(db, n)
		if len(parts) == 0 || len(parts) > n {
			t.Fatalf("Partition(%d) returned %d shards", n, len(parts))
		}
		total := 0
		var got []itemset.Set
		for _, p := range parts {
			if p.Dict() != db.Dict() {
				t.Fatalf("Partition(%d): shard does not share the dictionary", n)
			}
			if p.Len() == 0 {
				t.Fatalf("Partition(%d): empty shard", n)
			}
			total += p.Len()
			got = append(got, replay(t, p)...)
		}
		if total != db.Len() {
			t.Fatalf("Partition(%d): shard lengths sum to %d, want %d", n, total, db.Len())
		}
		if len(got) != len(want) {
			t.Fatalf("Partition(%d): replay has %d transactions, want %d", n, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("Partition(%d): transaction %d differs", n, i)
			}
		}
	}
}

func TestPartitionEmptyDB(t *testing.T) {
	db := New(nil)
	parts := Partition(db, 4)
	if len(parts) != 1 || parts[0].Len() != 0 {
		t.Fatalf("Partition of empty DB = %d shards, want one empty shard", len(parts))
	}
}

func TestShardedSourceEqualsConcatenation(t *testing.T) {
	db := randomShardDB(t, 64, 2)
	want := replay(t, db)
	ss := PartitionSource(db, 5)
	if ss.Len() != db.Len() {
		t.Fatalf("Len = %d, want %d", ss.Len(), db.Len())
	}
	if ss.Dict() != db.Dict() {
		t.Fatal("sharded source does not share the dictionary")
	}
	if n := len(ShardsOf(ss)); n != 5 {
		t.Fatalf("ShardsOf has %d shards, want 5", n)
	}
	got := replay(t, ss)
	if len(got) != len(want) {
		t.Fatalf("replay has %d transactions, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("transaction %d differs through the sharded source", i)
		}
	}
	// Summary statistics agree as well.
	a, err := ComputeStats(db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputeStats(ss)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("stats diverge: %+v vs %+v", a, b)
	}
}

// TestShardsOf pins the shard-layout rule: a ShardedSource is its shards in
// order, even when it holds only one, and any other source is one shard.
func TestShardsOf(t *testing.T) {
	db := randomShardDB(t, 30, 4)
	path := filepath.Join(t.TempDir(), "baskets.txt")
	if err := os.WriteFile(path, []byte("a,b\nc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path, db.Dict())
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewSharded(db)
	if err != nil {
		t.Fatal(err)
	}
	parts := Partition(db, 3)
	three, err := NewSharded(parts[0], parts[1], parts[2])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  Source
		want []Source
	}{
		{"db", db, []Source{db}},
		{"file", fs, []Source{fs}},
		{"one shard", one, []Source{db}},
		{"three shards", three, []Source{parts[0], parts[1], parts[2]}},
	} {
		got := ShardsOf(tc.src)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d shards, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: shard %d is %T %p, want %T %p", tc.name, i, got[i], got[i], tc.want[i], tc.want[i])
			}
		}
	}
}

// wrappedSource hides the source it wraps behind its own type, as a
// fault-injecting or instrumenting wrapper does.
type wrappedSource struct{ Source }

// TestStreams pins the stream-or-materialize rule: a FileSource, or a
// ShardedSource made only of FileSources, streams; every other source —
// in-memory, mixed, or wrapped — materializes.
func TestStreams(t *testing.T) {
	db := randomShardDB(t, 30, 4)
	dir := t.TempDir()
	files := make([]Source, 2)
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("shard%03d.txt", i))
		if err := os.WriteFile(path, []byte("a,b\nc\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFile(path, db.Dict())
		if err != nil {
			t.Fatal(err)
		}
		files[i] = fs
	}
	sharded := func(shards ...Source) Source {
		ss, err := NewSharded(shards...)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	parts := Partition(db, 2)
	for _, tc := range []struct {
		name string
		src  Source
		want bool
	}{
		{"db", db, false},
		{"file", files[0], true},
		{"sharded files", sharded(files...), true},
		{"one-shard files", sharded(files[0]), true},
		{"sharded dbs", sharded(parts[0], parts[1]), false},
		{"one-shard db", sharded(db), false},
		{"mixed", sharded(files[0], parts[1]), false},
		{"wrapped file", wrappedSource{files[0]}, false},
		{"sharded wrapped files", sharded(wrappedSource{files[0]}, files[1]), false},
	} {
		if got := Streams(tc.src); got != tc.want {
			t.Errorf("%s: Streams = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(); err == nil {
		t.Fatal("NewSharded() accepted zero shards")
	}
	a := New(nil)
	a.AddNames("x")
	b := New(nil) // fresh dictionary, not shared
	b.AddNames("x")
	if _, err := NewSharded(a, b); err == nil {
		t.Fatal("NewSharded accepted shards with distinct dictionaries")
	}
	c := New(a.Dict())
	c.AddNames("y")
	ss, err := NewSharded(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ss.Len())
	}
}

func TestShardedFileSources(t *testing.T) {
	dir := t.TempDir()
	d := dict.New()
	var shards []Source
	var want []string
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.txt", i))
		content := fmt.Sprintf("a%d,b%d\nc%d\n", i, i, i)
		want = append(want, fmt.Sprintf("a%d", i))
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFile(path, d)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, fs)
	}
	ss, err := NewSharded(shards...)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Len() != 6 {
		t.Fatalf("Len = %d, want 6", ss.Len())
	}
	got := replay(t, ss)
	if len(got) != 6 {
		t.Fatalf("replayed %d transactions, want 6", len(got))
	}
	for i, name := range want {
		id, ok := d.Lookup(name)
		if !ok {
			t.Fatalf("item %q missing from shared dictionary", name)
		}
		if !got[2*i].Contains(id) {
			t.Fatalf("transaction %d does not contain %q", 2*i, name)
		}
	}
}

func TestMaterializeShardsMergesToUnsharded(t *testing.T) {
	b := taxonomy.NewBuilder(nil)
	for r := 0; r < 3; r++ {
		for l := 0; l < 3; l++ {
			if err := b.AddPath(fmt.Sprintf("c%d", r), fmt.Sprintf("c%d.%d", r, l)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	db := New(tree.Dict())
	for i := 0; i < 90; i++ {
		w := 1 + rng.Intn(4)
		names := make([]string, 0, w)
		for j := 0; j < w; j++ {
			names = append(names, fmt.Sprintf("c%d.%d", rng.Intn(3), rng.Intn(3)))
		}
		db.AddNames(names...)
	}
	ss := PartitionSource(db, 4)
	shardLevels, err := BuildLevels(ShardsOf(ss), tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= tree.Height(); h++ {
		whole, err := Materialize(db, tree, h)
		if err != nil {
			t.Fatal(err)
		}
		merged := make(map[itemset.ID]int64)
		maxWidth, total := 0, 0
		for _, levels := range shardLevels {
			v := levels[h]
			for _, w := range v.Weights {
				total += int(w)
			}
			if v.MaxWidth > maxWidth {
				maxWidth = v.MaxWidth
			}
			for id, sup := range v.Support {
				merged[id] += sup
			}
		}
		if total != len(whole.Tx) {
			t.Fatalf("level %d: shard levels hold %d transactions, want %d", h, total, len(whole.Tx))
		}
		if maxWidth != whole.MaxWidth {
			t.Fatalf("level %d: merged MaxWidth %d, want %d", h, maxWidth, whole.MaxWidth)
		}
		if len(merged) != len(whole.Support) {
			t.Fatalf("level %d: merged support has %d items, want %d", h, len(merged), len(whole.Support))
		}
		for id, sup := range whole.Support {
			if merged[id] != sup {
				t.Fatalf("level %d: support of %v = %d merged, want %d", h, id, merged[id], sup)
			}
		}
	}
}

// TestForEachShard checks the pool hands out every index exactly once, each
// to a worker w < workers, for pools smaller than, equal to and larger than
// the index count.
func TestForEachShard(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 5}, {2, 9}, {3, 3}, {7, 2}, {4, 0}, {0, 3}} {
		var mu sync.Mutex
		seen := make([]int, c.n)
		ForEachShard(c.workers, c.n, func(w, s int) {
			if w < 0 || w >= max(c.workers, 1) {
				t.Errorf("workers %d: worker index %d", c.workers, w)
			}
			mu.Lock()
			seen[s]++
			mu.Unlock()
		})
		for s, k := range seen {
			if k != 1 {
				t.Fatalf("workers %d, n %d: index %d ran %d times", c.workers, c.n, s, k)
			}
		}
	}
}

// TestForEachShardRaisesWorkerPanicOnCaller checks that a panic on a pool
// goroutine reaches the caller's recover, carrying the value and the
// worker's stack, and only once every other worker has returned.
func TestForEachShardRaisesWorkerPanicOnCaller(t *testing.T) {
	var running atomic.Int32
	var r any
	func() {
		defer func() { r = recover() }()
		ForEachShard(3, 50, func(_, s int) {
			running.Add(1)
			defer running.Add(-1)
			if s == 4 {
				panic("unit 4 failed")
			}
			time.Sleep(time.Millisecond)
		})
	}()
	if r == nil {
		t.Fatal("the worker's panic did not reach the caller")
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("re-raised while %d units still ran", n)
	}
	msg := fmt.Sprint(r)
	if !strings.Contains(msg, "unit 4 failed") || !strings.Contains(msg, "goroutine") || !strings.Contains(msg, "TestForEachShardRaisesWorkerPanicOnCaller") {
		t.Fatalf("re-raised panic %q lacks the value or the worker's stack", msg)
	}
}
