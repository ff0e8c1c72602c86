package experiments

import (
	"fmt"
	"sort"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// TopK compares the anchored top-K search against the exact baseline (a full
// mine filtered to the anchor and ranked by gap) on the dense counting
// workload with planted flips: one full unanchored mine, whose candidate
// count is the denominator of the "how much counting does anchoring skip"
// story, then one anchored run per anchor on a shared engine, with its
// recall@K against the filtered full mine (1.000 by construction — the CI
// shape check).
func TopK(s Scale) (*Table, error) {
	const topK = 5
	db, tree, err := topkWorkload(s)
	if err != nil {
		return nil, err
	}
	cfg := topkConfig()
	t := &Table{
		ID:      "topk",
		Title:   "Anchored top-K: exact full mine vs anchored search",
		Columns: []string{"Anchor", "Mode", "Seconds", "Candidates", "Recall@5"},
		Notes: []string{
			fmt.Sprintf("dense background N=%d ×16 items over 64 cats, planted (+,−) flips on {cat00,cat01} and {cat02,cat03}; γ=%g, ε=%g", db.Len(), cfg.Gamma, cfg.Epsilon),
			"Candidates counts exact support counts (full mine: every counted candidate; anchored: the bitmap counts of every candidate on a chain through the anchor)",
		},
	}

	full, err := core.Mine(db, tree, cfg)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"(all)", "exact", seconds(full.Stats.Elapsed),
		fmt.Sprintf("%d", full.Stats.CandidatesCounted), "1.000",
	})

	eng := core.NewEngine(db, tree)
	for _, anchor := range []string{"leaf00.0", "cat02"} {
		want := exactAnchoredTopK(full, tree, anchor, topK)
		if len(want) == 0 {
			return nil, fmt.Errorf("topk: planted workload yields no patterns through anchor %s", anchor)
		}
		c := cfg
		c.Anchor = anchor
		c.AnchorTopK = topK
		res, err := eng.Mine(c)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			anchor, "anchored", seconds(res.Stats.Elapsed),
			fmt.Sprintf("%d", res.Stats.CandidatesCounted),
			fmt.Sprintf("%.3f", recallAt(res.Patterns, want)),
		})
	}
	return t, nil
}

// topkWorkload plants two (+,−) flips on the dense background: for each
// boosted category pair, n/10 extra cross-pair transactions raise the
// level-1 correlation past γ while leaving every leaf pair of the two
// categories uncorrelated (the cross pairs never co-occur with themselves),
// so the chain flips negative at the leaves.
func topkWorkload(s Scale) (*txdb.DB, *taxonomy.Tree, error) {
	db, tree, err := DenseWorkload(s.SyntheticN, 64, 2, 16, s.Seed)
	if err != nil {
		return nil, nil, err
	}
	m := s.SyntheticN / 10
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		for i := 0; i < m; i++ {
			db.AddNames(
				fmt.Sprintf("leaf%02d.%d", pair[0], i%2),
				fmt.Sprintf("leaf%02d.%d", pair[1], 1-i%2),
			)
		}
	}
	return db, tree, nil
}

// topkConfig: thresholds solved for the planted design. The random
// background puts unboosted category pairs near Kulczynski 0.2 (unlabeled:
// between ε and γ) and leaf pairs near 0.11; boosting lifts the planted
// category pairs past 0.4 and dilutes their leaf pairs under 0.12.
func topkConfig() core.Config {
	return core.Config{
		Measure:  measure.Kulczynski,
		Gamma:    0.4,
		Epsilon:  0.12,
		MinSup:   []float64{0.02, 0.005},
		Pruning:  core.Full,
		Strategy: core.CountScan,
	}
}

// exactAnchoredTopK is the semantic contract of the anchored path, computed
// independently: filter the full result to chains passing through the
// anchor, rank by descending gap (ties by leaf key, as core ranks), keep K.
func exactAnchoredTopK(full *core.Result, tree *taxonomy.Tree, anchor string, k int) []core.Pattern {
	id, ok := tree.Dict().Lookup(anchor)
	if !ok {
		return nil
	}
	level := tree.LevelOf(id)
	var out []core.Pattern
	for _, p := range full.Patterns {
		if level >= 1 && level <= len(p.Chain) && p.Chain[level-1].Items.Contains(id) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gap != out[j].Gap {
			return out[i].Gap > out[j].Gap
		}
		return out[i].Leaf.Key() < out[j].Leaf.Key()
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// recallAt measures how many of the exact top-K leaves the anchored run
// recovered.
func recallAt(got, want []core.Pattern) float64 {
	if len(want) == 0 {
		return 1
	}
	keys := make(map[string]bool, len(got))
	for _, p := range got {
		keys[p.Leaf.Key()] = true
	}
	hit := 0
	for _, p := range want {
		if keys[p.Leaf.Key()] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}
