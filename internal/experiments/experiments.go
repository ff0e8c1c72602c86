// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the synthetic parameter sweeps of Figure 8, the
// real-dataset comparisons of Figure 9, the pattern-count Table 4, the
// minimum-support profiles of Table 3, and the expectation-based
// instability demonstration of Table 1.
//
// Each driver returns a Table that renders as aligned text (mirroring the
// paper's presentation) or CSV. Absolute runtimes depend on hardware and on
// the scale factor; the harness is about reproducing the paper's *shapes*:
// which variant wins, by what factor, and how costs grow along each axis.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier, e.g. "fig8a" or "table4".
	ID string
	// Title describes the experiment, quoting the paper artifact.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows hold the data cells, one slice per row.
	Rows [][]string
	// Notes document scale factors and substitutions.
	Notes []string
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	fmt.Fprintln(w, line(t.Columns))
	for i, wd := range widths {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprint(w, strings.Repeat("-", wd))
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	return nil
}

// WriteCSV writes the table as CSV (header + rows; notes as comments).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Scale shrinks the paper's workloads so the whole suite runs in minutes on
// a laptop. The paper ran N=100K–1M transactions on a 48 GB Xeon server;
// shapes are preserved at smaller N because every cost in the algorithm is
// linear in N for a fixed density (the paper's own Figure 8(b)).
type Scale struct {
	// SyntheticN is the synthetic transaction count (paper: 100,000).
	SyntheticN int
	// SweepMax is the largest N of the Figure 8(b) sweep (paper: 1M).
	SweepMax int
	// GroceriesScale, CensusScale and MedlineScale multiply the original
	// dataset sizes (9,800 / 32,000 / 640,000).
	GroceriesScale float64
	CensusScale    float64
	MedlineScale   float64
	// Seed drives all generators.
	Seed int64
}

// Quick is the default scale: the full suite in a few minutes.
func Quick() Scale {
	return Scale{
		SyntheticN:     10_000,
		SweepMax:       50_000,
		GroceriesScale: 1.0,  // 9,800 — already small
		CensusScale:    0.5,  // 16,000
		MedlineScale:   0.05, // 32,000
		Seed:           1,
	}
}

// Paper is the paper-faithful scale; expect long runtimes for the BASIC
// baseline, exactly as the paper reports.
func Paper() Scale {
	return Scale{
		SyntheticN:     100_000,
		SweepMax:       1_000_000,
		GroceriesScale: 1.0,
		CensusScale:    1.0,
		MedlineScale:   1.0,
		Seed:           1,
	}
}

// Runner is one experiment driver.
type Runner func(Scale) (*Table, error)

// Registry maps experiment IDs to their drivers, in the paper's order.
func Registry() []struct {
	ID   string
	Desc string
	Run  Runner
} {
	return []struct {
		ID   string
		Desc string
		Run  Runner
	}{
		{"table1", "Table 1: expectation-based correlation instability", Table1},
		{"table3", "Table 3: minimum support profiles", Table3},
		{"fig8a", "Figure 8(a): runtime vs minimum support profile", Fig8a},
		{"fig8b", "Figure 8(b): runtime vs number of transactions", Fig8b},
		{"fig8c", "Figure 8(c): runtime vs transaction width", Fig8c},
		{"fig8d", "Figure 8(d): runtime vs correlation thresholds", Fig8d},
		{"fig9a", "Figure 9(a): runtime on real datasets", Fig9a},
		{"fig9b", "Figure 9(b): memory on real datasets", Fig9b},
		{"table4", "Table 4: flipping vs all positive/negative patterns", Table4},
		{"fig10-12", "Figures 10-12: qualitative patterns per dataset", Patterns},
		{"ablation", "Beyond the paper: counting strategy / parallelism / view ablations", Ablation},
		{"counting", "Beyond the paper: scan vs tidlist vs bitmap counting across densities", Counting},
		{"sharding", "Beyond the paper: shard-count scaling of the counting backends", Sharding},
		{"topk", "Beyond the paper: anchored top-K — exact full mine vs anchored search", TopK},
	}
}

// Lookup finds a driver by ID.
func Lookup(id string) (Runner, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

func seconds(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }
