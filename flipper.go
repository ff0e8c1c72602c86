// Package flipper mines flipping correlation patterns from transactional
// databases with taxonomies, implementing Barsky, Kim, Weninger & Han,
// "Mining Flipping Correlations from Large Datasets with Taxonomies",
// PVLDB 5(4), 2011.
//
// A flipping pattern is an itemset whose correlation alternates between
// positive and negative as its items are generalized level by level up a
// taxonomy — e.g. eggs and fish are rarely bought together (negative) even
// though their categories, fresh produce and meat&fish, are strongly
// positively correlated. The Flipper algorithm finds all such patterns
// directly, without enumerating all frequent itemsets, using
// correlation-based pruning that works for measures that are not
// anti-monotonic.
//
// # Quickstart
//
//	tree, err := flipper.ParseTaxonomy(strings.NewReader(taxonomyEdges), nil)
//	db, err := flipper.ReadBaskets(strings.NewReader(baskets), tree.Dict())
//	cfg := flipper.DefaultConfig(tree.Height())
//	cfg.Gamma, cfg.Epsilon = 0.6, 0.35
//	res, err := flipper.Mine(db, tree, cfg)
//	for _, p := range res.Patterns {
//	    fmt.Print(p.Format(tree))
//	}
//
// The package is a thin facade over the internal engine; all types are
// aliases, so values flow freely between this package and the returned
// results.
package flipper

import (
	"context"
	"io"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/dict"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Core aliases: the search configuration, results and patterns.
type (
	// Config parameterizes a mining run; start from DefaultConfig.
	Config = core.Config
	// Result carries patterns and run statistics.
	Result = core.Result
	// Pattern is one flipping correlation pattern with its full chain.
	Pattern = core.Pattern
	// LevelInfo describes one level of a pattern's generalization chain.
	LevelInfo = core.LevelInfo
	// Label classifies an itemset's correlation sign.
	Label = core.Label
	// Stats aggregates cost counters of a run.
	Stats = core.Stats
	// CellStat is the per-cell breakdown (Config.KeepCellStats).
	CellStat = core.CellStat
	// PruningLevel selects the pruning machinery (Basic … Full).
	PruningLevel = core.PruningLevel
	// CountStrategy names the support-counting implementation; every mine
	// counts by scan.
	CountStrategy = core.CountStrategy
)

// Substrate aliases: taxonomy, transactions, measures, itemsets.
type (
	// Taxonomy is the is-a hierarchy over items.
	Taxonomy = taxonomy.Tree
	// TaxonomyBuilder accumulates parent→child edges.
	TaxonomyBuilder = taxonomy.Builder
	// DB is an in-memory transaction database.
	DB = txdb.DB
	// Source is a replayable stream of transactions (DB, FileSource or
	// ShardedSource).
	Source = txdb.Source
	// FileSource streams a basket file from disk on every pass.
	FileSource = txdb.FileSource
	// ShardedSource composes per-shard Sources for shard-parallel counting,
	// including out-of-core mining over per-shard files.
	ShardedSource = txdb.ShardedSource
	// Dictionary maps item names to dense int32 IDs.
	Dictionary = dict.Dictionary
	// Measure selects a null-invariant correlation measure.
	Measure = measure.Measure
	// Itemset is a canonical (sorted, duplicate-free) set of item IDs.
	Itemset = itemset.Set
	// ItemID identifies one item or taxonomy node.
	ItemID = itemset.ID
)

// Pruning levels, mirroring the four variants of the paper's evaluation.
const (
	// Basic is the support-only Apriori baseline with post-filtering.
	Basic = core.Basic
	// Flipping gates vertical growth on alive flipping chains.
	Flipping = core.Flipping
	// FlippingTPG adds termination of pattern growth (Theorem 3).
	FlippingTPG = core.FlippingTPG
	// Full adds single-item based pruning (Theorem 2 / Corollary 2).
	Full = core.Full
)

// Counting strategies.
const (
	// CountScan probes candidates with transaction subsets (paper-faithful).
	CountScan = core.CountScan
	// Deprecated: CountAuto equals CountScan; the per-cell choice between
	// scan and bitmap counting is retired.
	CountAuto = core.CountAuto
	// Deprecated: CountBitmap equals CountScan; the bitmap counting backend
	// is retired.
	CountBitmap = core.CountBitmap
)

// ErrUnknownAnchor reports an anchored run whose Config.Anchor names no
// item in the taxonomy.
var ErrUnknownAnchor = core.ErrUnknownAnchor

// Correlation labels.
const (
	// LabelNone marks correlations strictly between ε and γ.
	LabelNone = core.LabelNone
	// LabelPositive marks Corr ≥ γ.
	LabelPositive = core.LabelPositive
	// LabelNegative marks Corr ≤ ε.
	LabelNegative = core.LabelNegative
)

// The five null-invariant measures of the paper's Table 2.
const (
	// Kulczynski is the arithmetic mean of conditional probabilities (the
	// paper's default).
	Kulczynski = measure.Kulczynski
	// Cosine is the geometric mean.
	Cosine = measure.Cosine
	// AllConfidence is the minimum (anti-monotonic).
	AllConfidence = measure.AllConfidence
	// Coherence is the harmonic mean (the paper's re-definition; see
	// Measure.AntiMonotonic for a subtlety the reproduction uncovered).
	Coherence = measure.Coherence
	// MaxConfidence is the maximum.
	MaxConfidence = measure.MaxConfidence
)

// Mine runs the Flipper algorithm (or the BASIC baseline, per cfg.Pruning)
// over src with the given taxonomy and returns all flipping patterns.
//
// Each call prepares the data from scratch. To mine the same dataset more
// than once — threshold sweeps, parameter exploration, serving repeated
// queries — use NewEngine and Engine.Mine, which cache level views,
// counting indexes and scratch memory across runs.
func Mine(src Source, tree *Taxonomy, cfg Config) (*Result, error) {
	return core.Mine(src, tree, cfg)
}

// MineContext is Mine under a context: the run polls ctx at cheap
// checkpoints (between candidate blocks, transaction blocks and table
// cells) and aborts with an error wrapping ctx.Err() — typically within
// well under 100ms of cancellation even on dense workloads. A cancelled
// run returns no partial results.
func MineContext(ctx context.Context, src Source, tree *Taxonomy, cfg Config) (*Result, error) {
	return core.MineContext(ctx, src, tree, cfg)
}

// Engine is a reusable miner bound to one dataset. Materialized level
// views, subset tables, bitmap indexes and counting scratch built for one
// Mine call are reused by every later call, so repeat runs skip data
// preparation entirely. A FileSource (or a ShardedSource of them) is
// streamed instead: re-read on every counting pass. Results are byte-identical
// to the one-shot Mine. An Engine is safe for concurrent use.
type Engine = core.Engine

// NewEngine returns a reusable mining engine over one source and taxonomy.
func NewEngine(src Source, tree *Taxonomy) *Engine { return core.NewEngine(src, tree) }

// DefaultConfig returns the paper's default settings for a taxonomy of the
// given height: Kulczynski, γ=0.3, ε=0.1, full pruning, and per-level
// supports decreasing from 1% to 0.01%.
func DefaultConfig(height int) Config { return core.DefaultConfig(height) }

// NewTaxonomyBuilder starts a taxonomy; pass nil for a fresh dictionary.
func NewTaxonomyBuilder(d *Dictionary) *TaxonomyBuilder { return taxonomy.NewBuilder(d) }

// ParseTaxonomy reads the "child<TAB>parent" edge-list format.
func ParseTaxonomy(r io.Reader, d *Dictionary) (*Taxonomy, error) { return taxonomy.Parse(r, d) }

// NewDB returns an empty transaction database; pass nil for a fresh
// dictionary, or tree.Dict() to share the taxonomy's.
func NewDB(d *Dictionary) *DB { return txdb.New(d) }

// ReadBaskets parses the one-transaction-per-line basket format (item names
// separated by commas).
func ReadBaskets(r io.Reader, d *Dictionary) (*DB, error) { return txdb.ReadBaskets(r, d) }

// OpenBasketFile opens a basket file as a streaming Source for disk-resident
// mining: every counting pass re-reads it, and no level or subset table is
// built over it.
func OpenBasketFile(path string, d *Dictionary) (*FileSource, error) {
	return txdb.OpenFile(path, d)
}

// OpenBasketSource opens one basket file as a Source: a FileSource re-read
// from disk on every pass when stream is set, otherwise an in-memory DB
// read once.
func OpenBasketSource(path string, d *Dictionary, stream bool) (Source, error) {
	return txdb.OpenBasketSource(path, d, stream)
}

// PartitionDB splits an in-memory database into an n-shard source whose
// shards alias the database's storage; mining it counts every pass
// shard-parallel with output byte-identical to the unsharded run.
// It is how an in-memory database is sharded: the shard layout is always the
// source's own.
func PartitionDB(db *DB, n int) *ShardedSource { return txdb.PartitionSource(db, n) }

// OpenShardDir opens a directory of shard*.txt basket files (the flipgen
// -shards layout) as a ShardedSource, in shard order. With stream set
// each shard becomes a FileSource re-read from disk on every pass — the
// out-of-core mode; otherwise each shard is read into memory once.
func OpenShardDir(dir string, d *Dictionary, stream bool) (*ShardedSource, error) {
	return txdb.OpenShardDir(dir, d, stream)
}

// NewShardedSource composes per-shard Sources (e.g. one FileSource per
// basket shard file) into one mineable source. All shards must share a
// dictionary. Over FileSources this is the out-of-core mode: counting
// streams the shard files in parallel, so datasets larger than RAM mine with
// only per-worker scan buffers resident.
func NewShardedSource(shards ...Source) (*ShardedSource, error) {
	return txdb.NewSharded(shards...)
}

// EpsilonPoint is one step of an ε sweep (see EpsilonSweep).
type EpsilonPoint = core.EpsilonPoint

// EpsilonSweep mines with each ε (all below cfg.Gamma) and reports pattern
// counts in descending-ε order — the paper's threshold-setting workflow.
func EpsilonSweep(src Source, tree *Taxonomy, cfg Config, epsilons []float64) ([]EpsilonPoint, error) {
	return core.EpsilonSweep(src, tree, cfg, epsilons)
}

// EpsilonSweepContext is EpsilonSweep under a context; the sweep aborts
// between and within steps when ctx is done.
func EpsilonSweepContext(ctx context.Context, src Source, tree *Taxonomy, cfg Config, epsilons []float64) ([]EpsilonPoint, error) {
	return core.EpsilonSweepContext(ctx, src, tree, cfg, epsilons)
}

// SuggestEpsilon bisects for the most selective ε that still yields at
// least target flipping patterns; found is false when even ε just below γ
// cannot reach the target.
func SuggestEpsilon(src Source, tree *Taxonomy, cfg Config, target int) (eps float64, res *Result, found bool, err error) {
	return core.SuggestEpsilon(src, tree, cfg, target)
}

// SuggestEpsilonContext is SuggestEpsilon under a context; the bisection
// aborts between and within probe runs when ctx is done.
func SuggestEpsilonContext(ctx context.Context, src Source, tree *Taxonomy, cfg Config, target int) (eps float64, res *Result, found bool, err error) {
	return core.SuggestEpsilonContext(ctx, src, tree, cfg, target)
}

// ParseMeasure resolves a measure name ("kulczynski", "cosine",
// "all_confidence", "coherence", "max_confidence").
func ParseMeasure(name string) (Measure, error) { return measure.Parse(name) }

// ParsePruningLevel resolves a pruning level name ("basic", "flipping",
// "flipping+tpg", "full").
func ParsePruningLevel(name string) (PruningLevel, error) { return core.ParsePruningLevel(name) }

// ParseCountStrategy resolves a counting strategy name: "scan", and the
// retired "auto", "bitmap", "bits", "tidlist" and "tid", all to CountScan.
func ParseCountStrategy(name string) (CountStrategy, error) { return core.ParseCountStrategy(name) }
