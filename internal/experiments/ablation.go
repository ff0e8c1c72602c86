package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Ablation evaluates the design choices DESIGN.md calls out beyond the
// paper: counting parallelism, and materialized views vs disk-resident
// streaming — the same baskets written
// to a file in a temporary directory and mined as a txdb.FileSource. All
// runs use full pruning on the default synthetic workload.
func Ablation(s Scale) (*Table, error) {
	db, tree, err := Synthetic(s.SyntheticN, 5, s.Seed)
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
	dir, err := os.MkdirTemp("", "flipper-ablation-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "baskets.txt")
	if err := db.WriteBasketFile(path); err != nil {
		return nil, err
	}
	file, err := txdb.OpenFile(path, tree.Dict())
	if err != nil {
		return nil, err
	}
	run := func(name string, src txdb.Source, mutate func(*core.Config)) error {
		cfg := syntheticConfig(core.Full, defaultSynMinsup)
		mutate(&cfg)
		res, err := core.Mine(src, tree, cfg)
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
	keep := func(*core.Config) {}
	variants := []struct {
		name   string
		src    txdb.Source
		mutate func(*core.Config)
	}{
		{"workers=1", db, func(c *core.Config) { c.Parallelism = 1 }},
		{fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), db, func(c *core.Config) { c.Parallelism = runtime.GOMAXPROCS(0) }},
		{"views=materialized", db, keep},
		{"views=streaming", file, keep},
	}
	for _, v := range variants {
		if err := run(v.name, v.src, v.mutate); err != nil {
			return nil, err
		}
	}
	return t, nil
}
