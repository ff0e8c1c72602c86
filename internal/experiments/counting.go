package experiments

import (
	"fmt"

	"github.com/flipper-mining/flipper/internal/core"
)

// Counting compares the two concrete counting backends (and the auto cost
// model) across transaction densities on the default synthetic workload.
// The interesting axis is width: wider transactions mean denser level views
// and more candidates per cell — the regime where the bitmap backend's fixed
// ⌈n/64⌉ words per candidate pull ahead of the subset-enumerating scan.
func Counting(s Scale) (*Table, error) {
	t := &Table{
		ID:      "counting",
		Title:   "Counting-strategy comparison across densities (full pruning)",
		Columns: []string{"Width", "Strategy", "Seconds", "Candidates", "Bitmap builds", "Bitmap word ops", "Patterns"},
		Notes: []string{
			fmt.Sprintf("N=%d, thresholds %v, γ=0.3, ε=0.1", s.SyntheticN, defaultSynMinsup),
			"auto picks a backend per cell: scan when candidates dwarf the database, bitmap on dense high-candidate cells",
		},
	}
	strategies := []core.CountStrategy{core.CountScan, core.CountBitmap, core.CountAuto}
	for _, width := range []float64{5, 7, 9} {
		db, tree, err := synthetic(s.SyntheticN, width, s.Seed)
		if err != nil {
			return nil, err
		}
		for _, strategy := range strategies {
			cfg := syntheticConfig(core.Full, defaultSynMinsup)
			cfg.Strategy = strategy
			res, err := core.Mine(db, tree, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%g", width),
				strategy.String(),
				seconds(res.Stats.Elapsed),
				fmt.Sprintf("%d", res.Stats.CandidatesCounted),
				fmt.Sprintf("%d", res.Stats.BitmapBuilds),
				fmt.Sprintf("%d", res.Stats.BitmapWordOps),
				fmt.Sprintf("%d", len(res.Patterns)),
			})
		}
	}
	return t, nil
}
