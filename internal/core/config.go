package core

import (
	"fmt"
	"math"
	"runtime"

	"github.com/flipper-mining/flipper/internal/measure"
)

// PruningLevel selects how much of the Flipper machinery is active. Levels
// are cumulative and mirror the four curves of the paper's Figure 8.
type PruningLevel int8

const (
	// Basic is the baseline: complete per-level Apriori with support-only
	// pruning, flipping chains assembled by post-processing. It represents
	// the prior-art pipeline the paper compares against.
	Basic PruningLevel = iota
	// Flipping gates vertical growth on chain-alive parents and frees
	// non-flipping itemsets once two consecutive rows are complete.
	Flipping
	// FlippingTPG adds the termination-of-pattern-growth check (Theorem 3).
	FlippingTPG
	// Full adds single-item based pruning (Theorem 2, Corollary 2).
	Full
)

// Levels lists all pruning levels in ascending strength.
func Levels() []PruningLevel { return []PruningLevel{Basic, Flipping, FlippingTPG, Full} }

func (p PruningLevel) String() string {
	switch p {
	case Basic:
		return "basic"
	case Flipping:
		return "flipping"
	case FlippingTPG:
		return "flipping+tpg"
	case Full:
		return "flipping+tpg+sibp"
	default:
		return fmt.Sprintf("pruning(%d)", int(p))
	}
}

// ParsePruningLevel converts a level name produced by String (aliases:
// "naive" for flipping-only, "full" for everything).
func ParsePruningLevel(s string) (PruningLevel, error) {
	switch s {
	case "basic":
		return Basic, nil
	case "flipping", "naive":
		return Flipping, nil
	case "flipping+tpg", "tpg":
		return FlippingTPG, nil
	case "flipping+tpg+sibp", "full", "sibp":
		return Full, nil
	default:
		return 0, fmt.Errorf("core: unknown pruning level %q", s)
	}
}

// usesFlipping reports whether vertical growth is gated on chain-alive
// parents.
func (p PruningLevel) usesFlipping() bool { return p >= Flipping }

// usesTPG reports whether the Theorem-3 termination check runs.
func (p PruningLevel) usesTPG() bool { return p >= FlippingTPG }

// usesSIBP reports whether single-item based pruning runs.
func (p PruningLevel) usesSIBP() bool { return p >= Full }

// CountStrategy names how candidate supports are counted. Every mine counts
// by scan; the type and the names of the retired backends remain so that
// configurations, flags and wire bodies that spell them keep working.
type CountStrategy int8

// CountScan is the paper-faithful strategy: one pass over the level's rows
// (or, for k = 2 and 3 on a warm engine, its subset tables) per cell,
// walking each row's items down the cell's candidate trie so that only the
// subsets sharing a prefix with some candidate are enumerated.
const CountScan CountStrategy = 0

const (
	// Deprecated: CountAuto chose between scan and a bitmap backend per
	// cell; every mine now counts by scan, and "auto" parses to CountScan.
	CountAuto = CountScan
	// Deprecated: CountBitmap counted on per-item bit vectors; every mine now
	// counts by scan, and "bitmap", "bits", "tidlist" and "tid" parse to
	// CountScan.
	CountBitmap = CountScan
)

func (s CountStrategy) String() string {
	if s == CountScan {
		return "scan"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// ParseCountStrategy converts a strategy name to CountScan: "scan", and the
// names of retired backends — "auto", "bitmap", "bits", "tidlist" and
// "tid" — so configurations written for them keep working.
func ParseCountStrategy(s string) (CountStrategy, error) {
	switch s {
	case "scan", "auto", "bitmap", "bits", "tidlist", "tid":
		return CountScan, nil
	default:
		return 0, fmt.Errorf("core: unknown counting strategy %q", s)
	}
}

// Config parameterizes a mining run. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// Measure is the null-invariant correlation measure (default Kulczynski,
	// as in the paper's experiments).
	Measure measure.Measure `json:"measure"`
	// Gamma is the positive-correlation threshold γ (label positive when
	// Corr ≥ γ).
	Gamma float64 `json:"gamma"`
	// Epsilon is the negative-correlation threshold ε (label negative when
	// Corr ≤ ε). Must be strictly below Gamma.
	Epsilon float64 `json:"epsilon"`
	// MinSup holds per-level minimum supports as fractions of the number of
	// transactions, indexed by level-1 (MinSup[0] is level 1). Length must
	// equal the taxonomy height. Ignored when MinSupAbs is set.
	MinSup []float64 `json:"min_sup,omitempty"`
	// MinSupAbs optionally holds per-level absolute minimum supports.
	MinSupAbs []int64 `json:"min_sup_abs,omitempty"`
	// Pruning selects the pruning level (default Full).
	Pruning PruningLevel `json:"pruning"`
	// Strategy names the support-counting implementation; CountScan is the
	// only one.
	Strategy CountStrategy `json:"strategy"`
	// MaxK caps the itemset size explored; 0 means bounded only by the data
	// (max transaction width and level-1 fanout).
	MaxK int `json:"max_k,omitempty"`
	// Parallelism is the number of counting workers; 0 means GOMAXPROCS.
	// Counting cuts every pass into units of shard rows or candidates, at
	// least this many when the data allows, and a worker pool of this size
	// runs them however many shards the source has (txdb.ShardsOf).
	Parallelism int `json:"parallelism,omitempty"`
	// KeepCellStats records per-cell statistics in the result.
	KeepCellStats bool `json:"keep_cell_stats,omitempty"`
	// TopK, when positive, sorts patterns by descending flip gap (the
	// smallest |Corr(h) − Corr(h+1)| along the chain) and keeps the K
	// "most flipping" ones — the extension sketched in the paper's
	// future-work section.
	TopK int `json:"top_k,omitempty"`

	// Anchor, when set, switches the run into anchored search: instead of
	// mining every flipping pattern, the engine searches only patterns whose
	// generalization chain contains the named taxonomy node at its level, and
	// returns the AnchorTopK best by descending flip gap — exactly what
	// filtering and ranking the full mine would return. Every candidate on
	// the anchored chains is counted exactly on the level's bitmap index.
	// Mutually exclusive with TopK (use AnchorTopK).
	Anchor string `json:"anchor,omitempty"`
	// AnchorTopK is how many anchored patterns to return; required (≥ 1)
	// when Anchor is set.
	AnchorTopK int `json:"anchor_top_k,omitempty"`
}

// DefaultConfig returns the paper's default synthetic-experiment settings
// for a taxonomy of the given height: γ=0.3, ε=0.1, Kulczynski, full pruning
// and the thr-profile-like decreasing supports (1%, 0.1%, 0.05%, 0.01%, …).
func DefaultConfig(height int) Config {
	sup := make([]float64, height)
	defaults := []float64{0.01, 0.001, 0.0005, 0.0001}
	for h := range sup {
		if h < len(defaults) {
			sup[h] = defaults[h]
		} else {
			sup[h] = defaults[len(defaults)-1]
		}
	}
	return Config{
		Measure:  measure.Kulczynski,
		Gamma:    0.3,
		Epsilon:  0.1,
		MinSup:   sup,
		Pruning:  Full,
		Strategy: CountScan,
	}
}

// validate checks the configuration against a taxonomy of the given height
// and database size, returning the resolved absolute per-level supports
// (indexed by level, entry 0 unused).
func (c *Config) validate(height, n int) ([]int64, error) {
	if height < 2 {
		return nil, fmt.Errorf("core: flipping patterns need a taxonomy of height ≥ 2, got %d", height)
	}
	if !c.Measure.Valid() {
		return nil, fmt.Errorf("core: invalid measure %v", c.Measure)
	}
	if !(c.Gamma > 0 && c.Gamma <= 1) {
		return nil, fmt.Errorf("core: gamma %v out of (0, 1]", c.Gamma)
	}
	if c.Epsilon < 0 || c.Epsilon >= c.Gamma {
		return nil, fmt.Errorf("core: epsilon %v must be in [0, gamma)", c.Epsilon)
	}
	if c.MaxK < 0 {
		return nil, fmt.Errorf("core: MaxK %d negative", c.MaxK)
	}
	if c.Parallelism < 0 {
		return nil, fmt.Errorf("core: parallelism %d negative", c.Parallelism)
	}
	if c.Strategy != CountScan {
		return nil, fmt.Errorf("core: unknown counting strategy %v", c.Strategy)
	}
	if c.Anchor == "" {
		if c.AnchorTopK != 0 {
			return nil, fmt.Errorf("core: anchor_top_k %d requires an anchor", c.AnchorTopK)
		}
	} else {
		if c.AnchorTopK < 1 {
			return nil, fmt.Errorf("core: anchored search needs anchor_top_k ≥ 1, got %d", c.AnchorTopK)
		}
		if c.TopK != 0 {
			return nil, fmt.Errorf("core: top_k and anchor are mutually exclusive (use anchor_top_k)")
		}
	}
	abs := make([]int64, height+1)
	switch {
	case c.MinSupAbs != nil:
		if len(c.MinSupAbs) != height {
			return nil, fmt.Errorf("core: MinSupAbs has %d levels, taxonomy has %d", len(c.MinSupAbs), height)
		}
		for h := 1; h <= height; h++ {
			v := c.MinSupAbs[h-1]
			if v < 1 {
				return nil, fmt.Errorf("core: MinSupAbs[%d] = %d, want ≥ 1", h-1, v)
			}
			abs[h] = v
		}
	case c.MinSup != nil:
		if len(c.MinSup) != height {
			return nil, fmt.Errorf("core: MinSup has %d levels, taxonomy has %d", len(c.MinSup), height)
		}
		for h := 1; h <= height; h++ {
			f := c.MinSup[h-1]
			if f < 0 || f > 1 {
				return nil, fmt.Errorf("core: MinSup[%d] = %v out of [0, 1]", h-1, f)
			}
			v := int64(math.Ceil(f * float64(n)))
			if v < 1 {
				v = 1
			}
			abs[h] = v
		}
	default:
		return nil, fmt.Errorf("core: one of MinSup or MinSupAbs is required")
	}
	return abs, nil
}

// workers resolves the counting parallelism.
func (c *Config) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}
