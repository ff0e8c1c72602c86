package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flipper-mining/flipper/internal/candtrie"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Result carries the patterns and counters of one mining run.
type Result struct {
	// Patterns holds every flipping pattern, deterministically ordered (by
	// size then leaf items), or the top-K by gap when Config.TopK is set.
	Patterns []Pattern
	// Stats aggregates cost counters (scans, candidates, memory peaks).
	Stats Stats
}

// Engine mines one source/taxonomy pair repeatedly, caching everything that
// depends only on the dataset — the interned levels of every shard
// (txdb.Level: distinct weighted rows in one arena), the pair and triple
// tables (txdb.SubsetTable) that answer k = 2 and k = 3 cells from the
// second reach of each (level, shard, k) on, and the bitmap indexes anchored
// search counts on — across Mine calls, plus a pool of per-run scratch
// (candidate stores, counting buffers, chain arenas) so repeated runs stop
// paying full allocation.
//
// The shard layout (txdb.ShardsOf) and the loading mode (txdb.Streams) are
// the source's own, resolved once in NewEngine: to count an in-memory
// database shard-parallel, mine a txdb.PartitionSource over it; to keep
// passes on disk, mine a txdb.FileSource (or a ShardedSource of them), which
// the engine re-reads on every pass instead of building levels. No
// configuration field shapes the cached state, so every knob varies freely
// across calls over the same caches. All methods are safe for concurrent
// use: dataset state is built once and read-only afterwards, and each run
// checks scratch out of the pool for exclusive use.
//
// A warm run is byte-identical to a cold one: pattern bytes trivially so,
// and the stats (db_scans, trie_nodes, bitmap_builds, …) because the miner
// accounts init passes, table lookups and index builds logically per run,
// whether or not the cache already held them.
type Engine struct {
	src  txdb.Source
	tree *taxonomy.Tree

	ds dataState // the dataset state, built on the first run

	mu      sync.Mutex
	scratch []*runScratch // LIFO so the warmest arenas are reused first
}

// NewEngine returns an engine over the source and taxonomy. The source and
// tree must not be mutated while the engine is in use — cached levels and
// indexes are built from them once.
func NewEngine(src txdb.Source, tree *taxonomy.Tree) *Engine {
	e := &Engine{src: src, tree: tree}
	e.ds.shards = txdb.ShardsOf(src)
	e.ds.stream = txdb.Streams(src)
	return e
}

// dataState is the engine's dataset-derived state. The base fields are
// built once under the sync.Once; each (level, shard, k) subset table builds
// under its own sync.Once on the second reach of a cell or unit of that k,
// and each (level, shard) bitmap index on first use by anchored search, and
// both are then shared read-only. An unsharded source is one shard: every
// per-shard slice below then has length 1.
type dataState struct {
	once sync.Once
	err  error

	shards []txdb.Source // txdb.ShardsOf(the engine's source), set by NewEngine
	stream bool          // txdb.Streams(the engine's source), set by NewEngine

	levels [][]*txdb.Level        // [shard][level]; nil when streaming
	sup1   []map[itemset.ID]int64 // all single supports per level, over all shards
	widths []int                  // max generalized width per level

	tables  []lazyTable // by (level, shard, k), see tableSlot
	bitmaps []lazyIndex // [level·len(shards) + shard], see index
}

// lazyTable is one shard's k-subset table of one level, built when a scan
// cell or unit of that k reaches the (level, shard) for the second time (see
// dataState.table).
type lazyTable struct {
	reaches atomic.Int64
	once    sync.Once
	t       *txdb.SubsetTable // nil when the level is over the table's cap
}

// dataFor resolves (building at most once, on cfg's workers) the engine's
// dataset state.
func (e *Engine) dataFor(cfg Config) (*dataState, error) {
	ds := &e.ds
	ds.once.Do(func() {
		// A build that panics leaves this error for every later run, which
		// would otherwise mine the half-built state as if it were the data.
		ds.err = errBuildPanicked
		ds.err = ds.build(e.tree, cfg)
	})
	return ds, ds.err
}

var errBuildPanicked = fmt.Errorf("core: the dataset build panicked in an earlier run")

// build materializes the levels of every shard, or streams one
// single-support pass over a streamed source. Parallelism of the build
// follows the triggering run's configuration; the built state is identical
// either way.
func (ds *dataState) build(tax *taxonomy.Tree, cfg Config) error {
	H := tax.Height()
	ds.sup1 = make([]map[itemset.ID]int64, H+1)
	ds.widths = make([]int, H+1)
	srcs := ds.shards
	ds.bitmaps = make([]lazyIndex, (H+1)*len(srcs))
	ds.tables = make([]lazyTable, (H+1)*len(srcs)*(txdb.MaxTableK-1))
	if ds.stream {
		return ds.streamSingleSupports(srcs, tax, H, min(cfg.workers(), len(srcs)))
	}
	// One build unit per (shard, level) of an in-memory shard, the units
	// spread over the run's workers. The merged per-item supports and
	// widths are exact integer aggregates of the shard levels, so the level
	// summaries the rest of the run reads do not depend on the shard count.
	levels, err := txdb.BuildLevels(srcs, tax, cfg.workers())
	if err != nil {
		return err
	}
	ds.levels = levels
	for h := 1; h <= H; h++ {
		if len(srcs) == 1 {
			ds.sup1[h] = ds.levels[0][h].Support
			ds.widths[h] = ds.levels[0][h].MaxWidth
			continue
		}
		sup := make(map[itemset.ID]int64)
		for _, levels := range ds.levels {
			ds.widths[h] = max(ds.widths[h], levels[h].MaxWidth)
			for id, n := range levels[h].Support {
				sup[id] += n
			}
		}
		ds.sup1[h] = sup
	}
	return nil
}

// initScans is the number of database passes the init of the dataset
// state logically costs a run: one per level when materialized — the level
// build's pass per level of an in-memory shard — or one streaming
// single-support pass. Charged per run whether or not the cache already
// held the state, so warm stats match cold ones byte for byte.
func (ds *dataState) initScans(height int) int64 {
	if ds.stream {
		return 1
	}
	return int64(height)
}

// Validate checks cfg against the engine's dataset without mining — the
// early rejection path for services that accept configurations over the
// wire: the configuration against the taxonomy's height and the source's
// transaction count.
func (e *Engine) Validate(cfg Config) error {
	_, err := e.validate(&cfg)
	return err
}

// validate is Validate, returning the resolved absolute per-level supports
// (indexed by level, entry 0 unused).
func (e *Engine) validate(cfg *Config) ([]int64, error) {
	if e.tree == nil {
		return nil, fmt.Errorf("core: nil taxonomy")
	}
	return cfg.validate(e.tree.Height(), e.src.Len())
}

// runScratch is the reusable per-run arena set. One run checks it out of
// the engine pool for exclusive use; everything in it is either overwritten
// or explicitly cleared before reuse.
type runScratch struct {
	cells    map[int][]*cell     // retired cells by k, stores Reset and reusable
	chains   []chainRec          // chain arena backing (records cleared at release)
	sups     []int64             // finishCell single-support scratch
	partials []partial           // per-worker counting state, reset on checkout
	units    []unit              // the current pass's work units
	cand     []itemset.ID        // candidate canonicalization buffer
	bySup    []itemSup           // bind's frequent items, sorted for SIBP
	tables   []*txdb.SubsetTable // the current scan pass's subset table per shard; nil scans
	anchored anchoredScratch     // anchored search's buffers and conditional index
}

// itemSup is a frequent item with its support, the element bind sorts by
// (support, ID) into the ascending-support order SIBP walks.
type itemSup struct {
	id  itemset.ID
	sup int64
}

func (e *Engine) getScratch() *runScratch {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.scratch); n > 0 {
		sc := e.scratch[n-1]
		e.scratch = e.scratch[:n-1]
		return sc
	}
	return &runScratch{cells: make(map[int][]*cell)}
}

func (e *Engine) putScratch(sc *runScratch) {
	e.mu.Lock()
	e.scratch = append(e.scratch, sc)
	e.mu.Unlock()
}

// supsFor returns a length-k int64 scratch (contents unspecified).
func (sc *runScratch) supsFor(k int) []int64 {
	if cap(sc.sups) < k {
		sc.sups = make([]int64, k)
	}
	return sc.sups[:k]
}

// candFor returns a length-k item scratch (contents unspecified).
func (sc *runScratch) candFor(k int) []itemset.ID {
	if cap(sc.cand) < k {
		sc.cand = make([]itemset.ID, k)
	}
	return sc.cand[:k]
}

// partialsFor checks out one partial per worker for a pass over c, errors
// cleared. Worker 0 counts into c's own support slab (zero before counting),
// so a one-worker pass merges nothing; the others get zeroed vectors of the
// slab's length.
func (sc *runScratch) partialsFor(c *cell, workers int) []partial {
	for len(sc.partials) < workers {
		sc.partials = append(sc.partials, partial{})
	}
	out := sc.partials[:workers]
	n := c.store.Len()
	for w := range out {
		p := &out[w]
		p.err = nil
		switch {
		case w == 0:
			p.counts = c.store.Sup
		case cap(p.counts) < n:
			p.counts = make([]int64, n)
		default:
			p.counts = p.counts[:n]
			clear(p.counts)
		}
	}
	return out
}

// entryMeta is the engine-side metadata of one candidate slab entry. Items
// and supports live in the cell's candtrie.Store; this parallel slab holds
// what labeling and chain linking add on top. Chain references are indexes
// into the miner's chain arena, never pointers into other cells, so freeing
// a row releases its slabs wholesale.
type entryMeta struct {
	corr        float64
	parentChain int32 // chain-arena index of the alive parent; -1 in row 1
	chain       int32 // chain-arena index once this entry is alive; -1
	label       Label
	parentLabel Label // label of the parent entry at generation time
	alive       bool
	infrequent  bool // counted, sup < θ_h; retained for subset checks only
}

// cell is one Q(h,k) of the table M: the counted k-itemsets at level h.
// Candidates live in a trie-indexed slab store with a parallel metadata
// slab; membership, subset checks and scan counting all go through the trie
// (no key strings, no map probes).
type cell struct {
	h, k       int
	store      *candtrie.Store
	meta       []entryMeta
	candidates int
	frequent   int
	positive   int
	negative   int
	alive      int
}

func newCell(h, k int) *cell {
	return &cell{h: h, k: k, store: candtrie.New(k)}
}

// cell checks a pooled cell out of the scratch (store slabs retained from
// earlier rows, runs or count units) or allocates a fresh one.
func (sc *runScratch) cell(h, k int) *cell {
	if list := sc.cells[k]; len(list) > 0 {
		c := list[len(list)-1]
		sc.cells[k] = list[:len(list)-1]
		c.h, c.k = h, k
		c.meta = c.meta[:0]
		c.candidates, c.frequent, c.positive, c.negative, c.alive = 0, 0, 0, 0, 0
		return c
	}
	return newCell(h, k)
}

// retire resets a cell's store and returns it to the scratch for reuse by a
// later row, run or count unit. Callers must be done with every alias into
// the store's arenas.
func (sc *runScratch) retire(c *cell) {
	c.store.Reset()
	sc.cells[c.k] = append(sc.cells[c.k], c)
}

// chainRec is one link of a flipping chain in the miner's chain arena. When
// an entry turns out alive, its level info is copied here (items cloned out
// of the cell's arena), so pattern assembly never needs a freed row's slab.
type chainRec struct {
	items  itemset.Set
	sup    int64
	corr   float64
	label  Label
	parent int32 // chain-arena index of the level-(h-1) link; -1 at level 1
}

// miner holds the state of one run: the configuration-dependent level
// summaries (frequent items, thresholds, SIBP state), the live rows of the
// search table, the chain arena, and the run's stats. Dataset-derived state
// is read through m.ds; reusable arenas through m.sc.
type miner struct {
	cfg    Config
	tax    *taxonomy.Tree
	src    txdb.Source
	height int
	n      int
	minSup []int64 // absolute, indexed by level (0 unused)

	eng *Engine
	ds  *dataState
	sc  *runScratch

	sorted [][]itemset.ID // frequent items per level, ascending support (SIBP)

	// bmBuilt marks levels whose bitmap indexes this run's anchored search
	// has logically built (noteBitmaps). The engine may serve a cached
	// index, but Stats.BitmapBuilds follows these per-run flags, so a warm
	// run reports the same stats as a cold one.
	bmBuilt []bool

	rows     []map[int]*cell       // rows[h][k]
	excluded []map[itemset.ID]bool // SIBP-excluded items per level
	rset     []map[itemset.ID]bool // R_h of the most recent column per level
	rsetCol  []int                 // column the R set belongs to

	// chains is the chain arena: one record per alive entry, linked upward
	// by index. It is the only candidate state that outlives freeRow.
	chains []chainRec

	stats Stats
	maxK  int

	// done is the run context's cancellation channel (nil when the run is
	// not cancellable, e.g. plain Mine). The mining loops poll it between
	// cells and the counting passes poll it at block granularity, so a
	// cancelled run unwinds within a bounded amount of counting work; an
	// uncancellable run pays one nil check per poll.
	done <-chan struct{}

	// ctx is the run's context; counting delegated over the network needs
	// the context itself, not just its done channel. Background for plain
	// Mine.
	ctx context.Context

	// remote, when set, counts every pass (MineRemote): count hands it one
	// unit per shard. Errors park in scanErr like streaming scan failures.
	remote ShardCounter

	// scanErr records the first streaming counting-pass failure (the
	// materialized paths surface errors at init instead). Counting cannot
	// return errors through the mining loop, so the streaming passes park
	// the failure here, later passes short-circuit on it, and Mine fails
	// with it rather than returning silently undercounted patterns.
	scanErr error
}

// Mine runs the Flipper algorithm (or the BASIC baseline, depending on
// cfg.Pruning) over src with the given taxonomy.
//
// The taxonomy must offer a generalization at every level for every leaf:
// either it is balanced, or it was extended with taxonomy.Tree.Extend
// (the paper's Figure 3 variant B) or truncated to uniform levels.
//
// Mine builds a single-use Engine; callers mining the same dataset
// repeatedly should hold one Engine and call its Mine method, which reuses
// built levels, subset tables and counting arenas across runs.
func Mine(src txdb.Source, tree *taxonomy.Tree, cfg Config) (*Result, error) {
	return NewEngine(src, tree).Mine(cfg)
}

// MineContext is Mine with a cancellable context; see Engine.MineContext for
// the cancellation contract.
func MineContext(ctx context.Context, src txdb.Source, tree *taxonomy.Tree, cfg Config) (*Result, error) {
	return NewEngine(src, tree).MineContext(ctx, cfg)
}

// Mine runs one mining pass over the engine's dataset, reusing every cached
// representation and pooled arena a previous run left behind. Safe for
// concurrent use; the result is byte-identical to a cold Mine.
func (e *Engine) Mine(cfg Config) (*Result, error) {
	return e.MineContext(context.Background(), cfg)
}

// errCancelled is the sentinel a cancelled run's streaming scan callbacks
// abort their pass with; MineContext reports ctx.Err() instead, so the
// sentinel never escapes.
var errCancelled = fmt.Errorf("core: run cancelled")

// MineContext is Mine under a context: when ctx is cancelled or its deadline
// passes, the run stops at the next cancellation checkpoint — the mining
// loops check between cells and every counting pass checks at block
// granularity inside its worker loops — and returns an error wrapping
// ctx.Err(). No partial Result is ever returned. Checkpoints are polls of
// the context's done channel, so an uncancellable context (e.g.
// context.Background, which plain Mine uses) costs one nil check per poll
// and the hot counting loops stay unaffected.
//
// Dataset-state builds (materialized levels, lazily built indexes) are shared
// across concurrent runs and therefore not cancellable: a run gives up
// before and after binding, but never aborts a build another run may be
// waiting on.
func (e *Engine) MineContext(ctx context.Context, cfg Config) (*Result, error) {
	return e.mineContext(ctx, cfg, nil)
}

// mineContext is the shared run body of MineContext and MineRemote: one
// mining pass under ctx, counting locally or through remote.
func (e *Engine) mineContext(ctx context.Context, cfg Config, remote ShardCounter) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: mine aborted: %w", err)
	}
	minSup, err := e.validate(&cfg)
	if err != nil {
		return nil, err
	}
	if !e.tree.IsBalanced() && !e.tree.Extended() {
		return nil, fmt.Errorf("core: taxonomy is unbalanced; call Extend (variant B) or Truncate (variant A) first")
	}
	m := &miner{
		cfg:    cfg,
		tax:    e.tree,
		src:    e.src,
		height: e.tree.Height(),
		n:      e.src.Len(),
		minSup: minSup,
		done:   ctx.Done(),
		ctx:    ctx,
		remote: remote,
	}
	if err := m.bind(e); err != nil {
		return nil, err
	}
	defer m.release()

	var patterns []Pattern
	switch {
	case cfg.Anchor != "":
		patterns, err = m.mineAnchored()
		if err != nil {
			return nil, err
		}
	case cfg.Pruning == Basic:
		patterns = m.mineBasic()
	default:
		patterns = m.mineFlipper()
	}
	if err := ctx.Err(); err != nil {
		// Cancellation wins over any scan abort it caused: the caller sees
		// the context error, never the internal sentinel.
		return nil, fmt.Errorf("core: mine aborted: %w", err)
	}
	if m.scanErr != nil {
		return nil, fmt.Errorf("core: streaming counting pass failed: %w", m.scanErr)
	}
	switch {
	case cfg.Anchor != "":
		// mineAnchored already ranked by gap and truncated to AnchorTopK.
	case cfg.TopK > 0:
		sortPatternsByGap(patterns)
		if len(patterns) > cfg.TopK {
			patterns = patterns[:cfg.TopK]
		}
	default:
		sortPatterns(patterns)
	}
	m.stats.Elapsed = time.Since(start)
	return &Result{Patterns: patterns, Stats: m.stats}, nil
}

// init binds the miner to a fresh single-use engine — the compatibility
// path for directly constructed miners (tests build them by hand);
// Engine.Mine binds against the shared engine instead.
func (m *miner) init() error {
	return m.bind(NewEngine(m.src, m.tax))
}

// bind attaches the miner to an engine: resolves (building if needed) the
// dataset state for its configuration, checks scratch out of the pool, and
// computes the per-run level summaries and logical init accounting.
func (m *miner) bind(e *Engine) error {
	ds, err := e.dataFor(m.cfg)
	if err != nil {
		return err
	}
	m.eng = e
	m.ds = ds
	m.sc = e.getScratch()
	m.chains = m.sc.chains[:0]

	H := m.height
	m.sorted = make([][]itemset.ID, H+1)
	m.bmBuilt = make([]bool, H+1)
	m.rows = make([]map[int]*cell, H+1)
	m.excluded = make([]map[itemset.ID]bool, H+1)
	m.rset = make([]map[itemset.ID]bool, H+1)
	m.rsetCol = make([]int, H+1)
	for h := 1; h <= H; h++ {
		m.rows[h] = make(map[int]*cell)
		m.excluded[h] = make(map[itemset.ID]bool)
	}
	m.stats.Shards = len(ds.shards)
	m.stats.DBScans += ds.initScans(H)

	for h := 1; h <= H; h++ {
		bySup := m.sc.bySup[:0]
		for id, sup := range ds.sup1[h] {
			if sup >= m.minSup[h] {
				bySup = append(bySup, itemSup{id, sup})
			}
		}
		slices.SortFunc(bySup, func(a, b itemSup) int {
			if c := cmp.Compare(a.sup, b.sup); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id)
		})
		items := make([]itemset.ID, len(bySup))
		for i, is := range bySup {
			items[i] = is.id
		}
		m.sorted[h] = items
		m.sc.bySup = bySup
	}

	// Column bound K: itemsets wider than any transaction at a level cannot
	// be frequent there; flipping chains need every level, so the minimum
	// width over the levels bounds the whole table. The level-1 fanout and
	// MaxK bound it further.
	K := ds.widths[1]
	for h := 2; h <= H; h++ {
		if ds.widths[h] < K {
			K = ds.widths[h]
		}
	}
	if f := len(m.sorted[1]); f < K {
		K = f
	}
	if m.cfg.MaxK > 0 && m.cfg.MaxK < K {
		K = m.cfg.MaxK
	}
	m.maxK = K

	m.stats.Transactions = m.n
	m.stats.Height = H
	m.stats.MaxK = K
	return nil
}

// frequent reports whether item id is frequent at level h. An ID the level
// lacks reads support 0, below every θ_h ≥ 1.
func (m *miner) frequent(h int, id itemset.ID) bool {
	return m.ds.sup1[h][id] >= m.minSup[h]
}

// release retires every still-live cell into the scratch pool and returns
// the scratch to the engine. Patterns never alias cell or chain storage —
// chain records clone their items and collectBasic clones what it exports —
// so the arenas are free for the next run the moment mining ends.
func (m *miner) release() {
	for h := range m.rows {
		for _, c := range m.rows[h] {
			m.sc.retire(c)
		}
		m.rows[h] = nil
	}
	sc := m.sc
	sc.chains = m.chains
	clear(sc.chains) // drop references to the cloned chain itemsets
	sc.chains = sc.chains[:0]
	m.sc = nil
	m.eng.putScratch(sc)
}

// canceled is the shared cancellation checkpoint: one nil check when the run
// has no cancellable context, one non-blocking channel poll otherwise.
// Counting workers call it with the miner's done channel at block
// granularity, so the per-element hot loops never pay for it.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// cancelled is the single-goroutine checkpoint of the mining loops.
func (m *miner) cancelled() bool { return canceled(m.done) }

// mineFlipper is Algorithm 1: zigzag over rows 1–2, then row-wise descent,
// with flipping gating and (by pruning level) TPG and SIBP.
func (m *miner) mineFlipper() []Pattern {
	H := m.height
	// Rows 1 and 2, zigzag: Q(1,k) then Q(2,k) for growing k.
	for k := 2; k <= m.maxK; k++ {
		if m.cancelled() {
			return nil
		}
		c1 := m.aprioriCell(1, k)
		m.finishCell(c1)
		m.rows[1][k] = c1
		c2 := m.childCell(2, k)
		m.finishCell(c2)
		m.rows[2][k] = c2
		if m.cfg.Pruning.usesSIBP() {
			m.sibpUpdate(1, k, c1)
			m.sibpUpdate(2, k, c2)
			m.sibpExclude(2, k)
		}
		if c1.candidates == 0 {
			break // row 1 exhausted; nothing can grow to the right
		}
		if m.tpg(c1, c2) {
			break
		}
	}
	// Rows 3..H, one row at a time.
	for h := 3; h <= H; h++ {
		for k := 2; k <= m.maxK; k++ {
			if m.cancelled() {
				return nil
			}
			parent := m.rows[h-1][k]
			if parent == nil {
				break // the row above stopped before this column
			}
			c := m.childCell(h, k)
			m.finishCell(c)
			m.rows[h][k] = c
			if m.cfg.Pruning.usesSIBP() {
				m.sibpUpdate(h, k, c)
				m.sibpExclude(h, k)
			}
			if m.tpg(parent, c) {
				break
			}
		}
		// "Eliminate non-flipping patterns in rows h-1 and h": everything
		// two rows up can no longer influence generation; free it.
		m.freeRow(h - 2)
	}
	return m.collect()
}

// tpg applies the Theorem-3 check to two vertically consecutive cells. It
// requires at least one frequent itemset across the pair: vertical gating
// leaves a cell empty when its parent cell has no chain-alive itemset, and
// such a cell holds no positive itemset yet says nothing about wider
// itemsets, so two of them are no evidence to stop growth on.
func (m *miner) tpg(up, down *cell) bool {
	if !m.cfg.Pruning.usesTPG() {
		return false
	}
	if up.frequent == 0 && down.frequent == 0 {
		return false
	}
	if up.positive == 0 && down.positive == 0 {
		m.stats.TPGBreaks++
		return true
	}
	return false
}

// finishCell counts a cell's candidates, labels the frequent ones, links
// chain liveness into the chain arena, and marks infrequent candidates
// (their items stay in the slab for Apriori subset checks until the row is
// freed, but they leave the resident-candidate metric immediately).
func (m *miner) finishCell(c *cell) {
	if c.candidates > 0 {
		m.count(c)
	}
	thr := m.minSup[c.h]
	for i := range c.meta {
		e := &c.meta[i]
		sup := c.store.Sup[i]
		if sup < thr {
			e.infrequent = true
			m.stats.dropResident(1, c.k)
			continue
		}
		items := c.store.Items(int32(i))
		c.frequent++
		m.stats.FrequentItemsets++
		e.corr, e.label = m.label(items, sup, c.h)
		switch e.label {
		case LabelPositive:
			c.positive++
			m.stats.PositiveItemsets++
		case LabelNegative:
			c.negative++
			m.stats.NegativeItemsets++
		}
		if c.h == 1 {
			e.alive = e.label.Labeled()
		} else {
			// childCell only expands alive parents, so parentChain ≥ 0 holds
			// for every generated candidate; the check guards hand-built cells.
			e.alive = e.label.Labeled() && e.parentChain >= 0 && e.label.Flips(e.parentLabel)
		}
		if e.alive {
			c.alive++
			m.stats.AliveItemsets++
			e.chain = int32(len(m.chains))
			m.chains = append(m.chains, chainRec{
				items:  items.Clone(),
				sup:    sup,
				corr:   e.corr,
				label:  e.label,
				parent: e.parentChain,
			})
		}
	}
	if m.cfg.KeepCellStats {
		m.stats.Cells = append(m.stats.Cells, CellStat{
			H: c.h, K: c.k, Candidates: c.candidates,
			Frequent: c.frequent, Positive: c.positive, Negative: c.negative, Alive: c.alive,
		})
	}
}

// label is the labeling rule every search shares: the correlation of a
// frequent itemset of level h from its support and the level's single-item
// supports, and its label against γ (positive) and ε (negative).
func (m *miner) label(items itemset.Set, sup int64, h int) (float64, Label) {
	sups := m.sc.supsFor(len(items))
	sup1 := m.ds.sup1[h]
	for j, id := range items {
		sups[j] = sup1[id]
	}
	corr := m.cfg.Measure.Corr(sup, sups)
	switch {
	case corr >= m.cfg.Gamma:
		return corr, LabelPositive
	case corr <= m.cfg.Epsilon:
		return corr, LabelNegative
	}
	return corr, LabelNone
}

// freeRow releases the cells of a completed row. Because chain links live in
// the miner's chain arena (alive entries copy their level info there as they
// are labeled), dropping the row's cells frees the candidate slabs — item
// arena, support slice, trie nodes, metadata — wholesale, with no per-entry
// bookkeeping; the slabs go back to the scratch pool for the next row.
// This is the paper's memory story for Figure 9(b): only alive chain links
// outlive their row.
func (m *miner) freeRow(h int) {
	if h < 1 || m.rows[h] == nil {
		return
	}
	for _, c := range m.rows[h] {
		m.stats.dropResident(c.frequent, c.k)
		m.sc.retire(c)
	}
	m.rows[h] = nil
}

// collect assembles patterns from alive entries of the leaf row.
func (m *miner) collect() []Pattern {
	var out []Pattern
	leafRow := m.rows[m.height]
	if leafRow == nil {
		return nil
	}
	for _, c := range leafRow {
		for i := range c.meta {
			if !c.meta[i].alive {
				continue
			}
			out = append(out, m.assemble(c.meta[i].chain))
		}
	}
	return out
}

// assemble walks a leaf entry's chain-arena links into a Pattern.
func (m *miner) assemble(ci int32) Pattern {
	chain := make([]LevelInfo, m.height)
	cur := ci
	for h := m.height; h >= 1; h-- {
		r := &m.chains[cur]
		chain[h-1] = LevelInfo{
			Level:   h,
			Items:   r.items,
			Support: r.sup,
			Corr:    r.corr,
			Label:   r.label,
		}
		cur = r.parent
	}
	p := Pattern{Leaf: chain[m.height-1].Items, Chain: chain}
	p.computeGap()
	return p
}
