package cluster

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// HTTP paths of the cluster wire protocol. Workers serve PathCount and
// PathPing; coordinators serve PathHeartbeat.
const (
	// PathCount is the worker endpoint answering one unit of a counting
	// pass — one cell's candidates over one shard (POST, CountRequest →
	// CountResponse).
	PathCount = "/cluster/count"
	// PathPing is the worker liveness probe (GET).
	PathPing = "/cluster/ping"
	// PathHeartbeat is the coordinator endpoint workers push Heartbeat
	// messages to (POST).
	PathHeartbeat = "/cluster/heartbeat"
)

// ProtocolRevision is the revision of the count wire a build speaks, carried
// in every fingerprint it makes. Revision 4 drops the loading mode from the
// fingerprint, so a worker that streams a dataset the coordinator holds in
// memory (or the reverse) serves it; revision 3 sent a unit without a mining
// configuration and answered it with supports alone; revision 2 carried the
// configuration, its canonical key and a probe tally beside the same packed
// candidates and supports (core.PackedSets, core.PackedSupports); revision
// 1, the decimal JSON arrays, predates the field, so its fingerprints read 0
// here. Builds of different revisions therefore never exchange a unit: this
// build's coordinator refuses the heartbeat of an earlier build's worker,
// whose fingerprints carry the loading mode, a field it no longer knows; a
// coordinator of revision 2 or 3 registers a newer worker but finds no
// dataset it serves; and one of a build before revision 2 rejects a newer
// worker's heartbeat, whose fingerprints carry the revision, a field it does
// not know.
const ProtocolRevision = 4

// Fingerprint identifies a dataset build well enough to catch the failure
// modes that silently corrupt distributed counting: a worker holding a
// different dataset (or a differently-built taxonomy) under the same name,
// the same baskets in a different shard layout, or different baskets of the
// same size — or a worker of a build that speaks another count wire
// (Protocol). Loading is deterministic — LoadDir resolves identical
// dictionary IDs and shard layouts from identical files — so equal
// fingerprints mean the worker's item IDs, shard indexes and per-shard
// transactions line up with the coordinator's. The loading mode is not
// part of it: a unit's answer is its candidates' supports, which a node
// counts alike from levels in memory and by streaming its shard files.
type Fingerprint struct {
	Dataset      string `json:"dataset"`
	Transactions int    `json:"transactions"`
	Height       int    `json:"height"`
	Nodes        int    `json:"nodes"`
	Shards       int    `json:"shards"`
	Digest       uint64 `json:"digest"`
	Protocol     int    `json:"protocol"`
}

// NewFingerprint derives the fingerprint of a loaded dataset: its shape, the
// shard count and a 64-bit digest over each shard's transactions in order,
// where the shards are the ones an engine over src counts with
// (txdb.ShardsOf), all under this build's ProtocolRevision.
// The digest reads the source once, so a FileSource pays one more sequential
// read. A source that fails to scan gets a random digest: its fingerprint
// matches no other, so no node counts on data it cannot read.
func NewFingerprint(name string, src txdb.Source, tree *taxonomy.Tree) Fingerprint {
	shards := txdb.ShardsOf(src)
	h := uint64(14695981039346656037) // the FNV-1a offset basis
	for _, shard := range shards {
		err := shard.Scan(func(tx itemset.Set) error {
			h = mix(h, uint64(len(tx)))
			for _, id := range tx {
				h = mix(h, uint64(id))
			}
			return nil
		})
		if err != nil {
			h = rand.Uint64()
			break
		}
		h = mix(h, ^uint64(0)) // the shard boundary, unlike any length or ID
	}
	return Fingerprint{
		Dataset: name, Transactions: src.Len(), Height: tree.Height(), Nodes: tree.NodeCount(),
		Shards: len(shards), Digest: h, Protocol: ProtocolRevision,
	}
}

// mix folds v into digest h: FNV-1a over 64-bit words, plus a shift that
// carries high bits down, so every input bit reaches every output bit.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 1099511628211
	return h ^ h>>32
}

func (f Fingerprint) String() string {
	return fmt.Sprintf("%s(tx=%d,h=%d,nodes=%d,shards=%d,digest=%016x,protocol=%d)",
		f.Dataset, f.Transactions, f.Height, f.Nodes, f.Shards, f.Digest, f.Protocol)
}

// CountRequest is one core.ShardUnit on the wire, with the fingerprint a
// worker checks before counting it. The candidates travel packed
// (core.PackedSets): a packing that does not decode answers 400, and so does
// any field the unit does not have, such as the mining configuration an
// earlier revision sent.
type CountRequest struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	core.ShardUnit
}

// CountResponse is the worker's core.ShardTally for the request's unit.
type CountResponse struct {
	Worker string `json:"worker"`
	core.ShardTally
}

// Heartbeat is the worker → coordinator health push: who the worker is,
// where it serves the count endpoint, and which dataset builds it holds.
type Heartbeat struct {
	Worker   string        `json:"worker"`
	Addr     string        `json:"addr"` // base URL, e.g. http://10.0.0.7:8081
	Datasets []Fingerprint `json:"datasets"`
}

// Catalog maps dataset names to the engine and fingerprint both sides of
// the protocol resolve requests against: workers count through it,
// coordinators mine through it and fall back to its engines in degraded
// mode. Safe for concurrent use.
type Catalog struct {
	mu sync.RWMutex
	m  map[string]CatalogEntry
}

// CatalogEntry is one dataset's cluster-facing state.
type CatalogEntry struct {
	Engine *core.Engine
	Tree   *taxonomy.Tree
	Fp     Fingerprint
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{m: make(map[string]CatalogEntry)}
}

// Add registers (or replaces) a dataset.
func (c *Catalog) Add(name string, eng *core.Engine, tree *taxonomy.Tree, fp Fingerprint) {
	c.mu.Lock()
	c.m[name] = CatalogEntry{Engine: eng, Tree: tree, Fp: fp}
	c.mu.Unlock()
}

// Get looks a dataset up by name.
func (c *Catalog) Get(name string) (CatalogEntry, bool) {
	c.mu.RLock()
	e, ok := c.m[name]
	c.mu.RUnlock()
	return e, ok
}

// Fingerprints lists every registered dataset's fingerprint, sorted by
// dataset name — the payload a worker heartbeats.
func (c *Catalog) Fingerprints() []Fingerprint {
	c.mu.RLock()
	out := make([]Fingerprint, 0, len(c.m))
	for _, e := range c.m {
		out = append(out, e.Fp)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out
}
