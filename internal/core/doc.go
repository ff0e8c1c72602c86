/*
Package core implements the Flipper algorithm (Barsky et al., PVLDB 5(4),
2011): direct mining of flipping correlation patterns over a transactional
database equipped with a taxonomy, without generating all frequent itemsets
first. Four cumulative pruning levels — support-only (the BASIC baseline),
flipping-based vertical gating, termination of pattern growth (TPG,
Theorem 3) and single-item based pruning (SIBP, Theorem 2 / Corollary 2) —
reproduce the four variants of the paper's evaluation.

The rest of this comment is an algorithm walkthrough mapping the engine
onto the paper; start at Mine in engine.go and read alongside. For the
repository-level view — how this engine relates to the facade, the txdb
and taxonomy substrate, and the flipperd serving layer above it — see
docs/ARCHITECTURE.md.

# The search space (paper §4, Figure 6)

The table M has rows h = 1..H (taxonomy levels, 1 most general) and columns
k = 2..K (itemset sizes). Cell Q(h,k) holds k-itemsets whose items are
level-h taxonomy nodes from pairwise distinct level-1 subtrees. K is
bounded by the smallest maximum transaction width across the levels, the
level-1 fanout, and Config.MaxK.

# Processing order (paper §4.3.1, Figure 7(b), Algorithm 1)

Rows 1 and 2 are computed zigzag — Q(1,2), Q(2,2), Q(1,3), Q(2,3), … — so
the termination check always has two vertically consecutive cells in hand.
Rows 3..H follow one at a time, left to right. After finishing row h the
cells of row h−2 are released wholesale — each cell's candidate slabs
(item arena, supports, trie nodes, metadata) drop with the cell pointer.
Alive entries copy their level info into the miner's chain arena as they
are labeled, linked upward by index, so chains survive row frees without
keeping any cell alive. This is how the paper's "eliminate non-flipping
patterns in rows h−1 and h" keeps memory proportional to two rows plus the
output (Figure 9(b)).

# Candidate generation (cells.go)

Row 1 is a complete level-wise Apriori over the frequent level-1 items:
join prefix-sharing (k−1)-itemsets, check every (k−1)-subset. Row 1 has no
parent row, so its cells contain every frequent k-itemset at level 1.

Rows ≥ 2 grow vertically: each chain-alive itemset P in Q(h−1,k) expands
into the Cartesian product of its items' children (taxonomy.ChildrenAt,
which also realizes Figure 3 variant B by letting a shallow leaf stand in
for itself). A candidate is dropped early when one of its items is not a
frequent level-h 1-item, when SIBP excluded one of its items, or when a
(k−1)-subset was counted in Q(h,k−1) and found infrequent. Dropping
requires positive evidence of infrequency: a subset that was never
generated (possible under vertical gating) proves nothing.

Why vertical expansion instead of the textbook join within each row: a
subitemset of a flipping pattern need not have an alive chain of its own,
so joins over chain-gated cells can fail to assemble candidates that are
legitimate flipping-pattern generalizations. Children-of-alive-parents
generates exactly {A : parent(A) alive} ⊇ {generalizations of flipping
patterns}, keeping the miner complete; the randomized equivalence suite
(equivalence_test.go) pins this against BASIC enumeration.

# Counting (counting.go)

Candidates live in a trie-indexed slab store (internal/candtrie): items in
one arena, supports in one slice, and a prefix trie over item IDs indexing
both. CountScan is the paper's strategy: one sequential pass per cell.
All levels are built once, in one pass over the source (txdb.BuildLevels):
every transaction is generalized to each level and interned, so a level is
its distinct rows with weights plus a row index per transaction —
generalization collapses many raw transactions onto few distinct ones, so
upper rows count over tiny weighted sets. Each row is filtered to
candidate-relevant items and walked down the trie
(candtrie.Store.CountTx): only subsets sharing a prefix with some
candidate are ever enumerated, and no key bytes or map probes appear in
the inner loop (Stats.ProbesPruned counts what the descent skipped). Work
is fanned out over Config.Parallelism workers that merge plain int64 count
slices. With Config.Materialize=false the engine instead re-reads the
Source every pass — the paper's disk-resident mode. CountTIDList
intersects per-item transaction-id lists, CountBitmap ANDs per-item bit
vectors over the distinct weighted transactions and pop-counts the result
(internal/bitmap; vectors are built lazily per level and cached, like the
tid lists) — both iterate the candidate slab directly. CountAuto picks per
cell using a three-way cost estimate in word-operation units (a trie scan
probe is calibrated as 2.5 of those; see chooseStrategy).

Every backend also has a shard-parallel variant (counting_shard.go),
selected by Config.Shards or by mining a txdb.ShardedSource: the database
is split into contiguous transaction shards, each worker owns one shard —
its own levels (one level build per shard, concurrently at init), tid
lists and bitmap index — and fills a private partial support vector;
mergePartials sums the partials into the candidate slab in shard order.
An unsharded run is the same state with one shard. Integer sums make the
sharded output byte-identical to the unsharded run (shard_test.go pins
this across strategies, pruning levels and shard counts), which is why
Shards, like Parallelism, is excluded from Config.CanonicalKey. Sharded
streaming scans the shard sources in parallel — for per-shard basket
files, the out-of-core mode. Stats.Shards and Stats.ShardMergeNs surface
the fan-out and the serial merge fraction.

# Labeling and chains (engine.go finishCell)

A counted itemset with sup ≥ θ_h gets Corr computed from the level's
single-item supports, then a label: positive (≥ γ), negative (≤ ε) or none.
alive(1,k) = labeled; alive(h,k) = labeled ∧ parent alive ∧ label flips
parent's (the parent's chain index and label are captured at generation
time, so no cross-row pointers exist). Alive entries in row H are the
flipping patterns; assemble walks the chain-arena links to emit the full
chain.

# Pruning ladder (paper §4.2–4.3)

  - support: infrequent candidates are marked in the slab (their items
    stay for the subset checks of the cell to the right, until the row is
    freed).
  - flipping: only alive entries expand vertically; dead rows are freed.
  - TPG (Theorem 3): if two vertically consecutive cells hold at least one
    frequent itemset and no positive one, columns ≥ k of the row pair are
    abandoned. The check requires frequent evidence so that cells emptied
    by gating alone cannot fire it.
  - SIBP (Theorem 2 / Corollary 2): per level, walk the frequent items by
    ascending support; the maximal prefix whose members occur in no
    positive k-itemset forms R_h(k). An item whose level-(h−1)
    generalization sits in R_{h−1}(k) while the item sits in R_h(k) can
    never appear in a flipping pattern of size > k and is excluded from the
    row's further candidate generation. Both R sets must come from the same
    column (rsetCol) — a stale upper set proves nothing.

# Anchored top-K (anchored.go)

Config.Anchor answers "the K most flipping patterns through this item"
without a full mine: a DFS grows level-1 root sets that contain the
anchor's root, then descends with the anchor's position locked to its
ancestor path and subtree. Every candidate the DFS reaches is counted
exactly on the level's cached bitmap index, summed over shards. A branch
ends only on an infrequent set, a label that does not flip, or a running
gap strictly below the current K-th best, so the ranking equals filtering
and ranking the full mine (anchored_test.go pins this). Streaming runs
have no levels to index and fall back to that full mine plus the filter.

# BASIC (basic.go)

The baseline is a complete per-level Apriori with support-only pruning and
post-processing, retaining every counted candidate for the whole run: the
pipeline the paper compares against ("compute all frequent patterns before
ranking"). It shares counting and labeling code with Flipper, so runtime
and memory comparisons (Figures 8 and 9) isolate exactly the pruning.
*/
package core
