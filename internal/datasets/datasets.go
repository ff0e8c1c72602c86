// Package datasets simulates the paper's three reality-check datasets —
// GROCERIES, CENSUS and MEDLINE — which are not redistributable. Each
// simulator reproduces the original's scale (transaction count, taxonomy
// depth and shape) and plants the flipping correlations the paper reports
// for that dataset (Figures 10–12), so the qualitative results are
// recoverable and verifiable. Everything is deterministic given a seed.
//
// The substitution rationale is recorded in DESIGN.md: the paper's
// quantitative claims about these datasets concern the behaviour of the
// miner in the low-support regime (runtime, candidate memory, pattern
// counts), which depends on scale and density, not on the identity of the
// items; the qualitative claims are specific published patterns, which the
// simulators plant with analytically controlled correlation chains.
package datasets

import (
	"fmt"
	"sort"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/gen"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Dataset bundles a simulated database with its taxonomy, the mining
// thresholds the paper's Table 4 lists for it, and the planted ground truth.
type Dataset struct {
	// Name is the paper's dataset name (GROCERIES, CENSUS, MEDLINE).
	Name string
	// DB holds the transactions.
	DB *txdb.DB
	// Tree is the taxonomy, already extended where the original hierarchy is
	// unbalanced (CENSUS income bins, MEDLINE temperance).
	Tree *taxonomy.Tree
	// Expected lists the planted flips that must be recoverable with the
	// dataset's thresholds.
	Expected []gen.ExpectedFlip
	// Gamma, Epsilon and MinSup are the paper's Table-4 threshold row,
	// adapted to the simulator's taxonomy height.
	Gamma   float64
	Epsilon float64
	MinSup  []float64
}

// Config returns the mining configuration for the dataset's Table-4 row.
func (d *Dataset) Config() core.Config {
	return core.Config{
		Measure:  measure.Kulczynski,
		Gamma:    d.Gamma,
		Epsilon:  d.Epsilon,
		MinSup:   d.MinSup,
		Pruning:  core.Full,
		Strategy: core.CountScan,
	}
}

// ByName builds a dataset simulator by its paper name, at the given scale
// factor (1.0 = the paper's size) and seed.
func ByName(name string, scale float64, seed int64) (*Dataset, error) {
	switch name {
	case "groceries", "GROCERIES":
		return Groceries(scale, seed)
	case "census", "CENSUS":
		return Census(scale, seed)
	case "medline", "MEDLINE":
		return Medline(scale, seed)
	default:
		return nil, fmt.Errorf("datasets: unknown dataset %q (want groceries, census or medline)", name)
	}
}

// Names lists the three simulators in the paper's order.
func Names() []string { return []string{"GROCERIES", "CENSUS", "MEDLINE"} }

// addForest registers a root→mid→leaves forest in deterministic (sorted)
// order — map iteration order must never leak into dictionary IDs or leaf
// ordering, or identical seeds would produce different datasets.
func addForest(b *taxonomy.Builder, forest map[string]map[string][]string) ([]string, error) {
	roots := make([]string, 0, len(forest))
	for root := range forest {
		roots = append(roots, root)
	}
	sort.Strings(roots)
	var leaves []string
	for _, root := range roots {
		mids := make([]string, 0, len(forest[root]))
		for mid := range forest[root] {
			mids = append(mids, mid)
		}
		sort.Strings(mids)
		for _, mid := range mids {
			for _, leaf := range forest[root][mid] {
				if err := b.AddPath(root, mid, leaf); err != nil {
					return nil, err
				}
				leaves = append(leaves, leaf)
			}
		}
	}
	return leaves, nil
}
