// Package txdb implements the transactional-database substrate: an in-memory
// transaction store with a shared item dictionary, the basket text format,
// a streaming file-backed source for disk-resident counting (the paper's
// engines count "by sequential scans of disk-resident input data"), the
// one-pass level build that generalizes a source to every taxonomy level and
// interns the distinct generalized transactions (BuildLevels), and
// transaction sharding — Partition for splitting an
// in-memory database into contiguous shards and ShardedSource for composing
// per-shard sources (including disk-resident FileSources, the out-of-core
// layout) — the data-partitioning layer behind the engine's shard-parallel
// counting.
package txdb

import (
	"fmt"
	"math/rand"

	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
)

// Source is a replayable stream of transactions. The mining engine only
// requires sequential passes, so massive inputs can stay on disk.
type Source interface {
	// Scan invokes fn once per transaction, in a stable order. The itemset
	// passed to fn is only valid during the call; clone to retain.
	Scan(fn func(tx itemset.Set) error) error
	// Len returns the number of transactions.
	Len() int
	// Dict returns the dictionary resolving the item IDs used in Scan.
	Dict() *dict.Dictionary
}

// DB is an in-memory transaction database over leaf items. It implements
// Source. The zero value is not usable; construct with New.
type DB struct {
	dict *dict.Dictionary
	tx   []itemset.Set
}

// New returns an empty database writing IDs through d (nil for a fresh
// dictionary).
func New(d *dict.Dictionary) *DB {
	if d == nil {
		d = dict.New()
	}
	return &DB{dict: d}
}

// Dict returns the database's dictionary.
func (db *DB) Dict() *dict.Dictionary { return db.dict }

// Len returns the number of transactions.
func (db *DB) Len() int { return len(db.tx) }

// Add appends a transaction. The input is canonicalized (sorted,
// deduplicated); empty transactions are kept, matching the paper's market
// baskets which may be empty after filtering.
func (db *DB) Add(items ...itemset.ID) {
	db.tx = append(db.tx, itemset.New(items...))
}

// AddSet appends an already-canonical transaction without copying.
func (db *DB) AddSet(s itemset.Set) {
	db.tx = append(db.tx, s)
}

// AddNames appends a transaction given item names, assigning IDs as needed.
func (db *DB) AddNames(names ...string) {
	ids := make([]itemset.ID, len(names))
	for i, n := range names {
		ids[i] = db.dict.ID(n)
	}
	db.Add(ids...)
}

// Tx returns transaction i. The returned set is owned by the database.
func (db *DB) Tx(i int) itemset.Set { return db.tx[i] }

// Scan implements Source.
func (db *DB) Scan(fn func(tx itemset.Set) error) error {
	for _, t := range db.tx {
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

// Shuffle permutes transaction order deterministically from seed; used by
// generators to avoid artificial ordering artifacts.
func (db *DB) Shuffle(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(db.tx), func(i, j int) { db.tx[i], db.tx[j] = db.tx[j], db.tx[i] })
}

// MapLeaves rewrites every transaction through the leaf mapping produced by
// taxonomy.Tree.Truncate: items present in m are replaced, items absent from
// m are dropped. A new database sharing the dictionary is returned.
func (db *DB) MapLeaves(m map[itemset.ID]itemset.ID) *DB {
	out := New(db.dict)
	for _, t := range db.tx {
		mapped := make([]itemset.ID, 0, len(t))
		for _, id := range t {
			if nid, ok := m[id]; ok {
				mapped = append(mapped, nid)
			}
		}
		out.Add(mapped...)
	}
	return out
}

// Stats summarizes a database for experiment logs.
type Stats struct {
	Transactions  int
	DistinctItems int
	TotalItems    int64
	MaxWidth      int
	AvgWidth      float64
}

// ComputeStats scans the source once and reports summary statistics.
func ComputeStats(src Source) (Stats, error) {
	var s Stats
	distinct := make(map[itemset.ID]struct{})
	err := src.Scan(func(tx itemset.Set) error {
		s.Transactions++
		s.TotalItems += int64(len(tx))
		if len(tx) > s.MaxWidth {
			s.MaxWidth = len(tx)
		}
		for _, id := range tx {
			distinct[id] = struct{}{}
		}
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	s.DistinctItems = len(distinct)
	if s.Transactions > 0 {
		s.AvgWidth = float64(s.TotalItems) / float64(s.Transactions)
	}
	return s, nil
}

func (s Stats) String() string {
	return fmt.Sprintf("%d transactions, %d distinct items, avg width %.2f, max width %d",
		s.Transactions, s.DistinctItems, s.AvgWidth, s.MaxWidth)
}

// LevelView is a database materialized at one abstraction level, one
// generalized transaction per source transaction: every leaf item replaced
// by its level-h ancestor, duplicates merged. It also carries the level's
// single-item supports, which correlation computations at the level need.
// The mining engine works on Level directly; LevelView is the per-transaction
// form for callers that want it.
type LevelView struct {
	Level int
	// Tx holds the generalized transactions in scan order. Identical ones
	// share storage — read only.
	Tx      []itemset.Set
	Support map[itemset.ID]int64
	// MaxWidth is the widest generalized transaction, bounding the itemset
	// size k worth exploring at this level.
	MaxWidth int

	rows *Level // the interned level Materialize built Tx from
}

// Materialize builds the level-h view of src under tree with the one-pass
// level build. Items without an ancestor at level h (shallow leaves of an
// unextended, unbalanced tree) are dropped from the view, mirroring the
// paper's requirement that the user resolves missing generalizations
// (taxonomy.Tree.Extend is variant B).
func Materialize(src Source, tree *taxonomy.Tree, h int) (*LevelView, error) {
	if h < 1 || h > tree.Height() {
		return nil, fmt.Errorf("txdb: level %d out of range 1..%d", h, tree.Height())
	}
	levels, err := buildLevels(src, tree, h, h)
	if err != nil {
		return nil, err
	}
	l := levels[h]
	tx := make([]itemset.Set, len(l.RowOf))
	for t, r := range l.RowOf {
		tx[t] = l.Row(int(r))
	}
	return &LevelView{Level: h, Tx: tx, Support: l.Support, MaxWidth: l.MaxWidth, rows: l}, nil
}

// WeightedTx is a distinct transaction with its multiplicity. Generalizing
// to a high abstraction level collapses many raw transactions onto few
// distinct item combinations, so counting over the deduplicated view is the
// single most effective optimization for the upper rows of the search table.
type WeightedTx struct {
	Items  itemset.Set
	Weight int64
}

// Dedup merges identical transactions of the view into weighted ones in
// lexicographic itemset order. For a view Materialize returned these are the
// rows its level build already interned; a view assembled by hand has its
// transactions interned now, by the same row table.
func (lv *LevelView) Dedup() []WeightedTx {
	if len(lv.Tx) == 0 {
		return nil
	}
	l := lv.rows
	if l == nil {
		t := newRowTable(len(lv.Tx))
		for _, tx := range lv.Tx {
			t.add(tx)
		}
		l = t.finish()
	}
	out := make([]WeightedTx, l.Rows())
	for r := range out {
		out[r] = WeightedTx{Items: l.Row(r), Weight: l.Weights[r]}
	}
	return out
}

// SupportOf returns the level view's support for an itemset by scanning the
// materialized transactions; a reference implementation used by tests and by
// the harness to verify engine counts.
func (lv *LevelView) SupportOf(s itemset.Set) int64 {
	var sup int64
	for _, tx := range lv.Tx {
		if s.SubsetOf(tx) {
			sup++
		}
	}
	return sup
}
