package txdb

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
)

// Transaction sharding: the data-partitioning substrate behind the engine's
// shard-parallel counting. A database is split into contiguous transaction
// ranges (Partition) or assembled from independently stored pieces
// (ShardedSource over FileSources for out-of-core mining); either way the
// concatenation of the shards, in shard order, replays exactly the same
// transaction sequence as the unsharded source, which is what lets the
// engine prove sharded mining byte-identical to unsharded mining.

// Partition splits db into n shards of contiguous transaction ranges, in
// order: shard i holds transactions [i·⌈len/n⌉, (i+1)·⌈len/n⌉). The shards
// alias db's transaction storage and share its dictionary, so partitioning
// allocates only shard headers. n is clamped to [1, db.Len()] (an empty
// database yields one empty shard), so fewer than n shards may be returned,
// but never an empty one.
func Partition(db *DB, n int) []*DB {
	if n < 1 {
		n = 1
	}
	if n > len(db.tx) {
		n = len(db.tx)
	}
	if n <= 1 {
		return []*DB{{dict: db.dict, tx: db.tx}}
	}
	chunk := (len(db.tx) + n - 1) / n
	out := make([]*DB, 0, n)
	for lo := 0; lo < len(db.tx); lo += chunk {
		hi := lo + chunk
		if hi > len(db.tx) {
			hi = len(db.tx)
		}
		out = append(out, &DB{dict: db.dict, tx: db.tx[lo:hi:hi]})
	}
	return out
}

// ShardedSource is a Source composed of ordered shards, each itself a
// Source. Scanning replays the shards back to back in shard order, so a
// ShardedSource is indistinguishable from the concatenated database; the
// engine additionally reaches through it (ShardsOf) to scan the pieces in
// parallel over a bounded worker pool. Shards may be in-memory DBs
// (from Partition) or disk-resident FileSources — the latter is the
// out-of-core mode: a dataset larger than RAM, stored as several basket
// files, is mined with only one shard's scan buffer resident per worker.
type ShardedSource struct {
	shards []Source
	n      int
}

// NewSharded composes shards into one source. At least one shard is
// required and all shards must share one dictionary — IDs must mean the
// same item in every shard for counting across them to be meaningful.
func NewSharded(shards ...Source) (*ShardedSource, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("txdb: sharded source needs at least one shard")
	}
	d := shards[0].Dict()
	n := 0
	for i, s := range shards {
		if s.Dict() != d {
			return nil, fmt.Errorf("txdb: shard %d does not share the dictionary of shard 0", i)
		}
		n += s.Len()
	}
	return &ShardedSource{shards: shards, n: n}, nil
}

// PartitionSource partitions an in-memory database into an n-shard source;
// the convenience composition of Partition and NewSharded.
func PartitionSource(db *DB, n int) *ShardedSource {
	parts := Partition(db, n)
	shards := make([]Source, len(parts))
	for i, p := range parts {
		shards[i] = p
	}
	ss, err := NewSharded(shards...)
	if err != nil {
		panic(err) // unreachable: Partition output always shares one dict
	}
	return ss
}

// Scan implements Source: the shards are replayed sequentially in shard
// order, so the observable transaction sequence equals the unsharded one.
func (ss *ShardedSource) Scan(fn func(tx itemset.Set) error) error {
	for _, s := range ss.shards {
		if err := s.Scan(fn); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the total number of transactions across shards.
func (ss *ShardedSource) Len() int { return ss.n }

// Dict returns the dictionary shared by all shards.
func (ss *ShardedSource) Dict() *dict.Dictionary { return ss.shards[0].Dict() }

// ShardsOf returns the shard layout of src: a ShardedSource's shards in
// order, and any other source as its own single shard — a FileSource cannot
// be split without rewriting the file, and an in-memory DB is sharded by
// mining PartitionSource over it. Every consumer of a source's shards (the
// engine's levels and counting units, the cluster fingerprint, the service's
// dataset description) takes them from here. The returned slice is owned by
// the source — read only.
func ShardsOf(src Source) []Source {
	if ss, ok := src.(*ShardedSource); ok {
		return ss.shards
	}
	return []Source{src}
}

// Streams reports whether src is mined by streaming, re-read and
// generalized on every counting pass, rather than built into in-memory
// levels once: true for a FileSource and for a ShardedSource made only of
// FileSources (what OpenBasketSource and OpenShards return with stream set),
// false for every other source. Like ShardsOf it is the one rule: the
// engine's counting, the cluster fingerprint and the service's dataset
// description all take the mode from here.
func Streams(src Source) bool {
	for _, s := range ShardsOf(src) {
		if _, ok := s.(*FileSource); !ok {
			return false
		}
	}
	return true
}

// ShardDirFiles lists the shard*.txt basket shards of dir in shard order —
// the write order of the flipgen -shards layout (shard000.txt,
// shard001.txt, …). Only names with the shard prefix qualify, so a stray
// README.txt or scratch file next to the shards is never silently mined as
// transactions. Names are ordered by length before lexicography so that
// numbering wider than the zero padding (shard1000.txt after shard999.txt)
// still replays in numeric order; plain name order would interleave it
// between shard100.txt and shard101.txt and permute the transaction
// sequence.
func ShardDirFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "shard") || filepath.Ext(name) != ".txt" {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i] < out[j]
	})
	return out, nil
}

// OpenBasketSource opens one basket file as a Source sharing dictionary d:
// a FileSource re-read from disk on every pass when stream is set,
// otherwise an in-memory DB read once. The single place the
// stream/materialize loading switch lives — the CLI, the flipperd registry
// and OpenShards all route through it, and Streams reads the choice back
// off the source.
func OpenBasketSource(path string, d *dict.Dictionary, stream bool) (Source, error) {
	if stream {
		return OpenFile(path, d)
	}
	// The one-shot load reads through the same transient-fault retry layer
	// the streaming mode scans with.
	f, err := openRetryReader(path, DefaultRetry, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBaskets(f, d)
}

// OpenShards composes the basket files, in the given order, into a
// ShardedSource sharing dictionary d; each file is opened with
// OpenBasketSource (FileSource when stream is set, in-memory DB
// otherwise).
func OpenShards(paths []string, d *dict.Dictionary, stream bool) (*ShardedSource, error) {
	shards := make([]Source, 0, len(paths))
	for _, p := range paths {
		s, err := OpenBasketSource(p, d, stream)
		if err != nil {
			return nil, err
		}
		shards = append(shards, s)
	}
	return NewSharded(shards...)
}

// OpenShardDir opens a directory of shard*.txt basket files (the flipgen
// -shards layout) as a ShardedSource; the convenience composition of
// ShardDirFiles and OpenShards shared by the flipper CLI and the flipperd
// dataset registry.
func OpenShardDir(dir string, d *dict.Dictionary, stream bool) (*ShardedSource, error) {
	paths, err := ShardDirFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("txdb: no shard*.txt basket shards in %s", dir)
	}
	return OpenShards(paths, d, stream)
}

// ForEachShard runs body(w, s) for every index s in [0, n) over a bounded
// pool of worker goroutines and waits for all of them. The workers take
// indexes in order from a shared counter, so a long unit never holds back
// the units queued behind it on its worker. This pool is the concurrency
// discipline every shard-parallel path shares — at most `workers`
// goroutines live regardless of the unit count, so shard count scales
// independently of core count. Only worker w calls body with that w, so
// per-worker state indexed by w needs no locking.
//
// A panic in body never kills the process from a pool goroutine: a pool of
// one runs on the caller's goroutine, and a larger pool stops handing out
// indexes at the first panic, waits for the other workers to return, and
// re-raises the panic on the caller with the worker's stack attached, so
// the caller's recover (the service's per-job one, say) contains it.
func ForEachShard(workers, n int, body func(w, s int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for s := 0; s < n; s++ {
			body(0, s)
		}
		return
	}
	var (
		next   atomic.Int64
		caught atomic.Pointer[workerPanic]
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					caught.CompareAndSwap(nil, &workerPanic{value: r, stack: debug.Stack()})
				}
			}()
			for caught.Load() == nil {
				s := int(next.Add(1) - 1)
				if s >= n {
					return
				}
				body(w, s)
			}
		}(w)
	}
	wg.Wait()
	if p := caught.Load(); p != nil {
		panic(p)
	}
}

// workerPanic is a panic caught on a ForEachShard worker goroutine, re-raised
// on the caller: the original value and the stack of the goroutine it was
// raised on.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) String() string {
	return fmt.Sprintf("%v\n\npanicked on shard worker %s", p.value, p.stack)
}
