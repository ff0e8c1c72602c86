package experiments

import (
	"fmt"
	"runtime"

	"github.com/flipper-mining/flipper/internal/core"
)

// Ablation evaluates the design choices DESIGN.md calls out beyond the
// paper: counting strategy (the paper's sequential scan vs bitmaps vs the
// cost-model auto mode), counting parallelism, and
// materialized views vs disk-resident streaming. All runs use full pruning
// on the default synthetic workload.
func Ablation(s Scale) (*Table, error) {
	db, tree, err := synthetic(s.SyntheticN, 5, s.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation",
		Title:   "Design-choice ablations (full pruning, default synthetic workload)",
		Columns: []string{"Variant", "Seconds", "DB scans", "Peak itemsets"},
		Notes: []string{
			fmt.Sprintf("N=%d, W=5, thresholds %v, γ=0.3, ε=0.1", s.SyntheticN, defaultSynMinsup),
		},
	}
	run := func(name string, mutate func(*core.Config)) error {
		cfg := syntheticConfig(core.Full, defaultSynMinsup)
		mutate(&cfg)
		res, err := core.Mine(db, tree, cfg)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			name,
			seconds(res.Stats.Elapsed),
			fmt.Sprintf("%d", res.Stats.DBScans),
			fmt.Sprintf("%d", res.Stats.PeakCandidates),
		})
		return nil
	}
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"count=scan", func(c *core.Config) { c.Strategy = core.CountScan }},
		{"count=bitmap", func(c *core.Config) { c.Strategy = core.CountBitmap }},
		{"count=auto", func(c *core.Config) { c.Strategy = core.CountAuto }},
		{"workers=1", func(c *core.Config) { c.Parallelism = 1 }},
		{fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), func(c *core.Config) { c.Parallelism = runtime.GOMAXPROCS(0) }},
		{"views=materialized", func(c *core.Config) { c.Materialize = true }},
		{"views=streaming", func(c *core.Config) { c.Materialize = false; c.Strategy = core.CountScan }},
	}
	for _, v := range variants {
		if err := run(v.name, v.mutate); err != nil {
			return nil, err
		}
	}
	return t, nil
}
