package core

import (
	"slices"

	"github.com/flipper-mining/flipper/internal/sketch"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Sketch plumbing for anchored search: per-item bottom-k signatures are
// dataset state (they depend only on the levels of a representation), so
// they cache in dataState next to the levels themselves, keyed by
// signature size. When the engine has a sketch path, unsharded builds
// persist to disk and later engines over the same dataset warm-start from
// the file — a fingerprint over the per-level single supports guards
// against trusting a file built from different data.

// sketchSet returns (building, loading, or reusing) the sketch set for the
// run's signature size.
func (m *miner) sketchSet() *sketch.Set {
	k := m.cfg.SketchK
	if k <= 0 {
		k = sketch.DefaultK
	}
	ds := m.ds
	ds.mu.Lock()
	s := ds.sketches[k]
	ds.mu.Unlock()
	if s != nil {
		return s
	}

	fp := m.sketchFingerprint()
	path := m.eng.sketchFile()
	// Persisted sketches are keyed by raw transaction IDs, which only the
	// unsharded representation uses (sharded keys fold the shard index in),
	// so the file is read and written for unsharded runs only.
	if path != "" && !m.sharded() {
		if loaded, err := sketch.LoadFile(path); err == nil &&
			loaded.K == k && loaded.Fingerprint == fp && len(loaded.Levels) == m.height+1 {
			return ds.storeSketches(k, loaded)
		}
	}
	s = m.buildSketchSet(k, fp)
	if path != "" && !m.sharded() {
		_ = s.SaveFile(path) // best-effort warm-start for the next engine
	}
	return ds.storeSketches(k, s)
}

// storeSketches publishes a built sketch set into the dataset cache; when a
// concurrent run won the race, its set wins so every run shares one copy.
func (ds *dataState) storeSketches(k int, s *sketch.Set) *sketch.Set {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.sketches == nil {
		ds.sketches = make(map[int]*sketch.Set)
	}
	if prev := ds.sketches[k]; prev != nil {
		return prev
	}
	ds.sketches[k] = s
	return s
}

// buildSketchSet observes every level's transactions straight from the
// materialized levels. A key is the transaction's index in its shard — the
// ID a tid list would hold — with the shard index folded into the high half
// so IDs stay distinct across shards. Signatures depend only on each item's
// key set, never on observation order, so the set (and its encoding) is the
// one a tid-list walk would build.
func (m *miner) buildSketchSet(k int, fp uint64) *sketch.Set {
	H := m.height
	set := &sketch.Set{K: k, Fingerprint: fp, Levels: make([]*sketch.Level, H+1)}
	for h := 1; h <= H; h++ {
		b := sketch.NewBuilder(k)
		for s, levels := range m.ds.levels {
			observeLevel(b, levels[h], uint64(s)<<32)
		}
		set.Levels[h] = b.Finish()
	}
	return set
}

// observeLevel feeds one shard level's transactions to a sketch builder,
// keyed by base | transaction index. It goes row by row, through a per-row
// list of the row's transactions (the row index inverted by a counting
// sort), so the row arena is read once, front to back, however the
// transactions interleave.
func observeLevel(b *sketch.Builder, lv *txdb.Level, base uint64) {
	starts := make([]int32, lv.Rows()+1)
	for r, w := range lv.Weights {
		starts[r+1] = starts[r] + int32(w)
	}
	next := slices.Clone(starts[:lv.Rows()])
	txs := make([]int32, len(lv.RowOf))
	for t, r := range lv.RowOf {
		txs[next[r]] = int32(t)
		next[r]++
	}
	for r := range lv.Rows() {
		row := lv.Row(r)
		for _, t := range txs[starts[r]:starts[r+1]] {
			key := base | uint64(uint32(t))
			for _, id := range row {
				b.Observe(id, key)
			}
		}
	}
}

// sketchFingerprint identifies the dataset a sketch set was built from: any
// change to a level's single supports — or to the transaction count,
// height, or shard layout — changes it, so a stale sketch file on disk is
// rebuilt rather than trusted. The XOR of per-item hashes keeps the value
// independent of map iteration order.
func (m *miner) sketchFingerprint() uint64 {
	fp := sketch.Hash(uint64(m.n)<<32 ^ uint64(m.height)<<8 ^ uint64(len(m.ds.shards)))
	for h := 1; h <= m.height; h++ {
		for id, sup := range m.ds.sup1[h] {
			fp ^= sketch.Hash(uint64(h)<<56 ^ uint64(uint32(id))<<24 ^ uint64(sup))
		}
	}
	return fp
}
