package txdb_test

import (
	"testing"

	"github.com/flipper-mining/flipper/internal/golden"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// TestBuildLevelsMatchesReferenceOnGoldenScenarios checks the level build
// against the reference algorithm on every committed golden scenario, over
// the whole source and over each of its shards.
func TestBuildLevelsMatchesReferenceOnGoldenScenarios(t *testing.T) {
	t.Chdir("../golden") // fixture paths are relative to the golden package
	for _, sc := range golden.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			tree, src, _ := sc.Load(t)
			txdb.CheckLevelsAgainstReference(t, src, tree)
			if ss, ok := src.(*txdb.ShardedSource); ok {
				for _, shard := range ss.Shards() {
					txdb.CheckLevelsAgainstReference(t, shard, tree)
				}
			}
		})
	}
}
