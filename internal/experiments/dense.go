package experiments

import (
	"fmt"
	"math/rand"

	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// DenseWorkload builds the counting benchmarks' home turf: a flat taxonomy
// of cats categories with leavesPerCat leaves each (height 2) and n
// transactions of width random leaves, so permissive thresholds put every
// pair candidate against a dense level view that barely dedups. Besides the
// topk and sharding experiments, the root counting and anchored benchmarks
// and the end-to-end benchmark's topk-large workload build their data with
// it.
func DenseWorkload(n, cats, leavesPerCat, width int, seed int64) (*txdb.DB, *taxonomy.Tree, error) {
	tb := taxonomy.NewBuilder(nil)
	for r := 0; r < cats; r++ {
		for l := 0; l < leavesPerCat; l++ {
			if err := tb.AddPath(fmt.Sprintf("cat%02d", r), fmt.Sprintf("leaf%02d.%d", r, l)); err != nil {
				return nil, nil, err
			}
		}
	}
	tree, err := tb.Build()
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	db := txdb.New(tree.Dict())
	for i := 0; i < n; i++ {
		var names []string
		for j := 0; j < width; j++ {
			names = append(names, fmt.Sprintf("leaf%02d.%d", rng.Intn(cats), rng.Intn(leavesPerCat)))
		}
		db.AddNames(names...)
	}
	return db, tree, nil
}
