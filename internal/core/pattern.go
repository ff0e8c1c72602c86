package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/taxonomy"
)

// Label classifies a frequent itemset by its correlation value relative to
// the thresholds γ and ε.
type Label int8

const (
	// LabelNone marks a frequent itemset whose correlation falls strictly
	// between ε and γ; such itemsets break every flipping chain through them.
	LabelNone Label = iota
	// LabelPositive marks Corr ≥ γ.
	LabelPositive
	// LabelNegative marks Corr ≤ ε.
	LabelNegative
)

func (l Label) String() string {
	switch l {
	case LabelPositive:
		return "+"
	case LabelNegative:
		return "-"
	default:
		return "·"
	}
}

// Labeled reports whether the itemset is positive or negative.
func (l Label) Labeled() bool { return l != LabelNone }

// Flips reports whether two consecutive labels alternate sign.
func (l Label) Flips(parent Label) bool {
	return (l == LabelPositive && parent == LabelNegative) ||
		(l == LabelNegative && parent == LabelPositive)
}

// LevelInfo describes one level of a flipping pattern's generalization chain.
type LevelInfo struct {
	// Level is the taxonomy level (1 = most general).
	Level int `json:"level"`
	// Items holds the (h,k)-itemset at this level.
	Items itemset.Set `json:"items"`
	// Support is the itemset's transaction count at this level.
	Support int64 `json:"support"`
	// Corr is the correlation value under the run's measure.
	Corr float64 `json:"corr"`
	// Label is the sign of the correlation at this level.
	Label Label `json:"label"`
}

// Pattern is one flipping correlation pattern: a leaf-level k-itemset whose
// generalization chain alternates between positive and negative correlation
// at every step from level 1 down to the leaves.
type Pattern struct {
	// Leaf is the pattern's itemset at the deepest level.
	Leaf itemset.Set `json:"leaf"`
	// Chain holds one LevelInfo per level, ordered from level 1 to level H.
	Chain []LevelInfo `json:"chain"`
	// Gap is the smallest |Corr(h) − Corr(h+1)| along the chain: the
	// weakest flip. Larger gaps mean "more flipping"; the future-work top-K
	// ranking orders by descending Gap.
	Gap float64 `json:"gap"`
}

// K returns the pattern's itemset size.
func (p *Pattern) K() int { return len(p.Leaf) }

// computeGap fills Gap from the chain.
func (p *Pattern) computeGap() {
	gap := 0.0
	for i := 1; i < len(p.Chain); i++ {
		d := p.Chain[i].Corr - p.Chain[i-1].Corr
		if d < 0 {
			d = -d
		}
		if i == 1 || d < gap {
			gap = d
		}
	}
	p.Gap = gap
}

// Format renders the pattern with item names resolved through the taxonomy:
//
//	{eggs, fish}  gap=0.42
//	  L1 {fresh produce, meat&fish}  sup=3120  kulc=0.61  +
//	  L2 {eggs, fish}                sup=14    kulc=0.08  -
func (p *Pattern) Format(tree *taxonomy.Tree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  gap=%.3f\n", tree.FormatSet(p.Leaf), p.Gap)
	for _, li := range p.Chain {
		fmt.Fprintf(&b, "  L%d %-40s sup=%-8d corr=%.4f %s\n",
			li.Level, tree.FormatSet(li.Items), li.Support, li.Corr, li.Label)
	}
	return b.String()
}

// sortPatterns orders patterns deterministically: by itemset size, then by
// the leaf itemset key. Used for all result output so runs are comparable.
func sortPatterns(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		if len(ps[i].Leaf) != len(ps[j].Leaf) {
			return len(ps[i].Leaf) < len(ps[j].Leaf)
		}
		return ps[i].Leaf.Key() < ps[j].Leaf.Key()
	})
}

// sortPatternsByGap orders by descending gap (ties broken deterministically
// by leaf key); used by the top-K extension.
func sortPatternsByGap(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Gap != ps[j].Gap {
			return ps[i].Gap > ps[j].Gap
		}
		return ps[i].Leaf.Key() < ps[j].Leaf.Key()
	})
}
