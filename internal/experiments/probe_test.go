package experiments

import (
	"os"
	"testing"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
)

// TestProbeWidthCost is a manual probe (FLIPPER_PROBE=1 go test -run
// ProbeWidth -v) used to size the quick-scale width sweep for the BASIC
// baseline; at N=10,000 BASIC needs ~26 s at W=7 and ~40 s at W=8.
func TestProbeWidthCost(t *testing.T) {
	if os.Getenv("FLIPPER_PROBE") == "" {
		t.Skip("manual probe; set FLIPPER_PROBE=1 to run")
	}
	for _, w := range []int{7, 8} {
		db, tree, err := Synthetic(10000, float64(w), 1)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := core.Mine(db, tree, syntheticConfig(core.Basic, defaultSynMinsup))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("W=%d basic: %v, %d candidates", w, time.Since(start), res.Stats.CandidatesCounted)
	}
}
