package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Sharding measures how counting scales with the transaction shard count on
// the dense workload the counting micro-benchmarks use. Scan counting runs
// a bounded worker pool over per-shard views; the table reports wall time,
// the serial merge fraction (Stats.ShardMergeNs) and the speedup over the
// unsharded run, for shard counts 1..8. The pattern count
// column doubles as a correctness check: sharding must never change it.
func Sharding(s Scale) (*Table, error) {
	n := s.SyntheticN
	db, tree, err := DenseWorkload(n, 64, 2, 16, s.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "sharding",
		Title:   "Shard-count scaling of scan counting (dense workload)",
		Columns: []string{"Shards", "Seconds", "Merge ms", "Speedup", "Patterns"},
		Notes: []string{
			fmt.Sprintf("dense: %d tx × 16 items, 64 cats × 2 leaves; every pair candidate counted", n),
			"speedup is vs shards=1; merge ms is the serial partial-vector merge (Amdahl bound)",
			fmt.Sprintf("GOMAXPROCS=%d — speedup is bounded by cores; on one core the table pins sharding overhead instead", runtime.GOMAXPROCS(0)),
		},
	}
	cfg := core.Config{
		Measure:   measure.Kulczynski,
		Gamma:     0.3,
		Epsilon:   0.1,
		MinSupAbs: []int64{5, 5},
		Pruning:   core.Basic,
		MaxK:      2,
	}
	var base time.Duration
	for _, shards := range []int{1, 2, 4, 8} {
		res, err := core.Mine(txdb.PartitionSource(db, shards), tree, cfg)
		if err != nil {
			return nil, err
		}
		if shards == 1 {
			base = res.Stats.Elapsed
		}
		speedup := float64(base) / float64(res.Stats.Elapsed)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", shards),
			seconds(res.Stats.Elapsed),
			fmt.Sprintf("%.1f", float64(res.Stats.ShardMergeNs)/1e6),
			fmt.Sprintf("%.2f", speedup),
			fmt.Sprintf("%d", len(res.Patterns)),
		})
	}
	return t, nil
}
