package core

import (
	"fmt"
	"strings"
	"time"
)

// CellStat records what happened in one cell Q(h,k) of the search-space
// table; collected when Config.KeepCellStats is set.
type CellStat struct {
	H, K       int
	Candidates int // itemsets generated and counted
	Frequent   int // sup ≥ θ_h
	Positive   int // Corr ≥ γ among frequent
	Negative   int // Corr ≤ ε among frequent
	Alive      int // frequent, labeled, chain alternates up to this level
}

// Stats aggregates the cost and yield counters of one mining run. The
// candidate-memory counters reproduce the paper's Figure 9(b) comparison:
// BASIC retains every frequent itemset it ever counts, while Flipper frees
// non-flipping itemsets as rows complete.
type Stats struct {
	Transactions int
	Height       int
	MaxK         int

	// Shards is the number of transaction shards counting fanned out over
	// (1 when the run was unsharded), and ShardMergeNs the nanoseconds spent
	// merging the counting workers' partial support vectors into the
	// candidate slabs — every local pass merges, sharded or not — the
	// serial fraction that bounds parallel speedup (Amdahl's law).
	Shards       int
	ShardMergeNs int64

	// DBScans counts sequential passes over the (levels of the) database,
	// including the init. A materialized init counts height logical passes,
	// one per level, although the level build reads the source once; a
	// streaming init counts its one single-item pass.
	DBScans int64
	// CandidatesCounted is the number of itemsets whose support was counted.
	CandidatesCounted int64
	// SubsetPruned counts candidates discarded before counting because a
	// (k-1)-subset was already known to be infrequent.
	SubsetPruned int64
	// FrequentItemsets / PositiveItemsets / NegativeItemsets tally counted
	// itemsets of size ≥ 2 by outcome (complete totals only under Basic,
	// where cells hold all frequent itemsets).
	FrequentItemsets  int64
	PositiveItemsets  int64
	NegativeItemsets  int64
	AliveItemsets     int64
	TPGBreaks         int64
	SIBPExcludedItems int64

	// BitmapBuilds counts the bit-vector index constructions of anchored
	// search, the only search that counts on them: the first use of a level
	// in a run counts one per shard, whether or not the engine's dataset
	// state already held the indexes, so warm runs report what cold ones do.
	// BitmapWordOps counts the 64-bit AND/load operations spent answering
	// its support queries. Both are zero for every other run.
	BitmapBuilds  int64
	BitmapWordOps int64

	// TrieNodes counts prefix-trie nodes allocated across all candidate
	// stores of the run.
	TrieNodes int64

	// PeakCandidates and PeakBytes track the maximum number of itemsets
	// resident at once and their estimated memory footprint.
	PeakCandidates int64
	PeakBytes      int64

	// SketchProbes, SketchPruned and ExactFallbacks are always zero.
	//
	// Deprecated: anchored search probes no sketches; it counts every
	// candidate exactly, so its work shows in CandidatesCounted,
	// BitmapBuilds and BitmapWordOps.
	SketchProbes int64
	// Deprecated: always zero; see SketchProbes.
	SketchPruned int64
	// Deprecated: always zero; see SketchProbes.
	ExactFallbacks int64

	// Degraded marks a distributed run that fell back to local counting for
	// at least one shard because no worker could serve it (internal/cluster's
	// degraded mode). The patterns are still exact — local counting computes
	// the same partial sums a worker would have — but operators watching for
	// capacity loss need the flag. Always false for single-process runs.
	Degraded bool

	Elapsed time.Duration
	Cells   []CellStat

	current      int64
	currentBytes int64
}

// entryBytes estimates the resident footprint of one counted itemset in the
// slab store: 4k arena bytes for the items, 8 for the support slot, ~24 for
// the metadata record, and ~20 for the amortized share of trie nodes
// (roughly 1.3 nodes of 16 bytes per entry on realistic candidate sets).
// About half the old map representation's 96+4k (entry struct + slice
// header + hash-map slot), which is the point of the slab.
func entryBytes(k int) int64 { return 52 + 4*int64(k) }

func (s *Stats) addResident(n int, k int) {
	s.current += int64(n)
	s.currentBytes += int64(n) * entryBytes(k)
	if s.current > s.PeakCandidates {
		s.PeakCandidates = s.current
	}
	if s.currentBytes > s.PeakBytes {
		s.PeakBytes = s.currentBytes
	}
}

func (s *Stats) dropResident(n int, k int) {
	s.current -= int64(n)
	s.currentBytes -= int64(n) * entryBytes(k)
}

// String renders a one-run summary for logs and the CLI.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d tx, H=%d, maxK=%d: ", s.Transactions, s.Height, s.MaxK)
	fmt.Fprintf(&b, "%d candidates counted (%d subset-pruned), %d frequent (%d pos / %d neg, %d alive), ",
		s.CandidatesCounted, s.SubsetPruned, s.FrequentItemsets, s.PositiveItemsets, s.NegativeItemsets, s.AliveItemsets)
	fmt.Fprintf(&b, "%d scans, peak %d itemsets (%.1f MB est)",
		s.DBScans, s.PeakCandidates, float64(s.PeakBytes)/(1<<20))
	if s.TPGBreaks > 0 {
		fmt.Fprintf(&b, ", %d TPG breaks", s.TPGBreaks)
	}
	if s.SIBPExcludedItems > 0 {
		fmt.Fprintf(&b, ", %d SIBP-excluded items", s.SIBPExcludedItems)
	}
	if s.BitmapBuilds > 0 {
		fmt.Fprintf(&b, ", %d bitmap builds (%d word ops)", s.BitmapBuilds, s.BitmapWordOps)
	}
	if s.TrieNodes > 0 {
		fmt.Fprintf(&b, ", %d trie nodes", s.TrieNodes)
	}
	if s.Shards > 1 {
		fmt.Fprintf(&b, ", %d shards (merge %v)", s.Shards, time.Duration(s.ShardMergeNs).Round(time.Microsecond))
	}
	fmt.Fprintf(&b, ", %v", s.Elapsed.Round(time.Millisecond))
	return b.String()
}
