package experiments

import (
	"fmt"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/gen"
	"github.com/flipper-mining/flipper/internal/measure"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// Minsup profiles of the paper's Table 3: per-level thresholds
// (θ1, θ2, θ3, θ4) lowered one level at a time.
var minsupProfiles = []struct {
	Name    string
	Profile [4]float64
}{
	{"thr1", [4]float64{0.05, 0.05, 0.05, 0.05}},
	{"thr2", [4]float64{0.05, 0.001, 0.0005, 0.0001}},
	{"thr3", [4]float64{0.01, 0.001, 0.0005, 0.0001}},
	{"thr4", [4]float64{0.01, 0.0005, 0.0005, 0.0001}},
	{"thr5", [4]float64{0.01, 0.0005, 0.0001, 0.0001}},
	{"thr6", [4]float64{0.01, 0.0005, 0.0001, 0.00005}},
	{"thr7", [4]float64{0.001, 0.0005, 0.0001, 0.00005}},
	{"thr8", [4]float64{0.001, 0.0001, 0.0001, 0.00005}},
	{"thr9", [4]float64{0.001, 0.0001, 0.00006, 0.00005}},
	{"thr10", [4]float64{0.001, 0.0001, 0.00006, 0.00003}},
}

// Table3 prints the minimum-support profiles (used by Figure 8(a)).
func Table3(Scale) (*Table, error) {
	t := &Table{
		ID:      "table3",
		Title:   "Minimum support profiles (paper Table 3)",
		Columns: []string{"Profile", "θ1", "θ2", "θ3", "θ4"},
	}
	for _, p := range minsupProfiles {
		t.Rows = append(t.Rows, []string{
			p.Name,
			fmt.Sprintf("%g", p.Profile[0]), fmt.Sprintf("%g", p.Profile[1]),
			fmt.Sprintf("%g", p.Profile[2]), fmt.Sprintf("%g", p.Profile[3]),
		})
	}
	return t, nil
}

// Synthetic builds the paper's default synthetic workload: H=4, 10 level-1
// categories, fanout 5, |I|≈1000 leaves, width W, N transactions. Besides
// the experiments, the root synthetic counting and cluster benchmarks build
// their data with it.
func Synthetic(n int, width float64, seed int64) (*txdb.DB, *taxonomy.Tree, error) {
	tree, err := gen.BuildTaxonomy(gen.DefaultTaxonomyParams())
	if err != nil {
		return nil, nil, err
	}
	p := gen.DefaultParams()
	p.N = n
	p.AvgWidth = width
	p.Seed = seed
	db, err := gen.Generate(tree, p)
	if err != nil {
		return nil, nil, err
	}
	return db, tree, nil
}

// syntheticConfig is the paper's default synthetic threshold set:
// γ=0.3, ε=0.1 and the thr5-style default supports.
func syntheticConfig(pruning core.PruningLevel, minsup []float64) core.Config {
	return core.Config{
		Measure:  measure.Kulczynski,
		Gamma:    0.3,
		Epsilon:  0.1,
		MinSup:   minsup,
		Pruning:  pruning,
		Strategy: core.CountScan,
	}
}

var defaultSynMinsup = []float64{0.01, 0.001, 0.0005, 0.0001}

// variantColumns are the four curves of Figure 8.
var variantColumns = []struct {
	Name    string
	Pruning core.PruningLevel
}{
	{"Basic", core.Basic},
	{"Flipping", core.Flipping},
	{"Flipping+TPG", core.FlippingTPG},
	{"Flipping+TPG+SIBP", core.Full},
}

// runVariants mines the same workload with all four pruning variants and
// returns the runtime cells plus the candidate counts (for notes).
func runVariants(db *txdb.DB, tree *taxonomy.Tree, minsup []float64, gamma, epsilon float64) ([]string, []int64, error) {
	times := make([]string, 0, len(variantColumns))
	candidates := make([]int64, 0, len(variantColumns))
	for _, v := range variantColumns {
		cfg := syntheticConfig(v.Pruning, minsup)
		cfg.Gamma, cfg.Epsilon = gamma, epsilon
		res, err := core.Mine(db, tree, cfg)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, seconds(res.Stats.Elapsed))
		candidates = append(candidates, res.Stats.CandidatesCounted)
	}
	return times, candidates, nil
}

// Fig8a reproduces Figure 8(a): runtime for the ten minsup profiles of
// Table 3, for all four pruning variants.
func Fig8a(s Scale) (*Table, error) {
	db, tree, err := Synthetic(s.SyntheticN, 5, s.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig8a",
		Title:   "Running time (sec) vs minimum support profile",
		Columns: append([]string{"Profile"}, variantNames()...),
		Notes: []string{
			fmt.Sprintf("N=%d (paper: 100,000), W=5, |I|≈1000, H=4, γ=0.3, ε=0.1", s.SyntheticN),
		},
	}
	for _, p := range minsupProfiles {
		times, _, err := runVariants(db, tree, p.Profile[:], 0.3, 0.1)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append([]string{p.Name}, times...))
	}
	return t, nil
}

// Fig8b reproduces Figure 8(b): runtime vs number of transactions; the
// paper sweeps 100K–1M and reports linear growth for all variants.
func Fig8b(s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig8b",
		Title:   "Running time (sec) vs number of transactions",
		Columns: append([]string{"N"}, variantNames()...),
		Notes: []string{
			fmt.Sprintf("sweep up to %d (paper: 1,000,000); default thresholds", s.SweepMax),
		},
	}
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		n := int(float64(s.SweepMax) * frac)
		if n < 1000 {
			n = 1000
		}
		db, tree, err := Synthetic(n, 5, s.Seed)
		if err != nil {
			return nil, err
		}
		times, _, err := runVariants(db, tree, defaultSynMinsup, 0.3, 0.1)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%d", n)}, times...))
	}
	return t, nil
}

// Fig8c reproduces Figure 8(c): runtime vs average transaction width W=5..10.
func Fig8c(s Scale) (*Table, error) {
	t := &Table{
		ID:      "fig8c",
		Title:   "Running time (sec) vs average transaction width",
		Columns: append([]string{"W"}, variantNames()...),
		Notes: []string{
			fmt.Sprintf("N=%d (paper: 100,000); width swept 5..10 as in the paper", s.SyntheticN),
		},
	}
	for w := 5; w <= 10; w++ {
		db, tree, err := Synthetic(s.SyntheticN, float64(w), s.Seed)
		if err != nil {
			return nil, err
		}
		times, _, err := runVariants(db, tree, defaultSynMinsup, 0.3, 0.1)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%d", w)}, times...))
	}
	return t, nil
}

// Fig8d reproduces Figure 8(d): runtime vs the seven (γ, ε) profiles. The
// BASIC baseline ignores correlation thresholds entirely, so its row is
// flat — exactly the paper's observation.
func Fig8d(s Scale) (*Table, error) {
	db, tree, err := Synthetic(s.SyntheticN, 5, s.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig8d",
		Title:   "Running time (sec) vs correlation thresholds (γ, ε)",
		Columns: append([]string{"(γ,ε)"}, variantNames()...),
		Notes: []string{
			fmt.Sprintf("N=%d; pruning strength grows with γ as in the paper", s.SyntheticN),
		},
	}
	profiles := [][2]float64{
		{0.2, 0.1}, {0.3, 0.1}, {0.4, 0.1}, {0.5, 0.1}, {0.6, 0.1},
		{0.6, 0.3}, {0.6, 0.5},
	}
	for _, p := range profiles {
		times, _, err := runVariants(db, tree, defaultSynMinsup, p[0], p[1])
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append([]string{fmt.Sprintf("(%.1f,%.1f)", p[0], p[1])}, times...))
	}
	return t, nil
}

func variantNames() []string {
	out := make([]string, len(variantColumns))
	for i, v := range variantColumns {
		out[i] = v.Name
	}
	return out
}
