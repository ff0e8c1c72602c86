// Command bench_gate is the CI perf wall. It has three modes:
//
// Regression diff (the perf gate proper, which ci/perf_gate.sh drives):
//
//	go run ./ci -baseline bench-base.txt -current bench-change.txt \
//	    [-max-regress 0.25] [-summary "$GITHUB_STEP_SUMMARY"]
//
// reads two sides' `go test -bench -benchmem` output, usually several runs
// each of a base commit's and a change's benchmarks, and compares each
// benchmark's medians. A benchmark whose median ns/op or allocs/op exceeds
// the base's by more than the threshold fails the gate, as does a base
// benchmark missing from the change (a silently dropped benchmark is a
// regression in coverage, not a pass). Every other metric a benchmark
// reports (b.ReportMetric) is an engine counter, which does not jitter: a
// counter both sides report must read the same in every run of both, and
// one the base reports must not go missing, the timing keys
// (core.VolatileStatsKeys) aside. A benchmark without counters on either
// side is not compared, and neither is a counter only the change reports.
// Benchmarks new in the change are reported but never fail. The diff, with
// each side's median and range, is written as a markdown table to the
// -summary file (the GitHub job summary) and as text to stdout, so a red
// gate is diagnosable from the CI page alone.
//
// Alloc budgets (replacing the old awk guard in bench-smoke):
//
//	go run ./ci -budget ci/alloc_budget.txt -bench alloc.txt
//
// parses `go test -bench -benchmem` output and enforces the per-benchmark
// allocs/op ceilings of the budget file on every run. A budget line naming
// a benchmark that never ran is a hard failure — a renamed or deleted
// benchmark must be renamed or deleted in the budget too, otherwise the
// guard it carried silently evaporates.
//
// Coverage floors (see cover.go):
//
//	go run ./ci -cover cover.out -require internal/core=85,internal/bitmap=85 \
//	    [-summary "$GITHUB_STEP_SUMMARY"]
//
// aggregates a `go test -coverprofile` file per package, writes the table
// to the job summary, and fails when a required package misses its floor
// or is absent from the profile.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"github.com/flipper-mining/flipper/internal/core"
)

func main() {
	var (
		baseline   = flag.String("baseline", "", "`go test -bench -benchmem` output of the base side (diff mode)")
		current    = flag.String("current", "", "`go test -bench -benchmem` output of the change")
		maxRegress = flag.Float64("max-regress", 0.25, "allowed fractional growth of median ns/op or allocs/op over the base")
		summary    = flag.String("summary", os.Getenv("GITHUB_STEP_SUMMARY"), "markdown summary file to append the diff table to (default $GITHUB_STEP_SUMMARY)")
		budget     = flag.String("budget", "", "alloc budget file (budget mode)")
		bench      = flag.String("bench", "", "`go test -bench -benchmem` output to check against -budget")
		cover      = flag.String("cover", "", "`go test -coverprofile` file to aggregate per package (coverage mode)")
		require    = flag.String("require", "", "comma-separated pkg=pct coverage floors enforced in coverage mode")
	)
	flag.Parse()
	var err error
	switch {
	case *cover != "":
		err = runCover(*cover, *require, *summary, os.Stdout)
	case *budget != "":
		err = runBudget(*budget, *bench, os.Stdout)
	case *baseline != "":
		err = runDiff(*baseline, *current, *maxRegress, *summary, os.Stdout)
	default:
		err = fmt.Errorf("need -baseline/-current (diff mode), -budget/-bench (budget mode) or -cover (coverage mode)")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench_gate: %v\n", err)
		os.Exit(1)
	}
}

// run is one run of one benchmark: each metric of its result line, by unit.
type run map[string]float64

// side is one side's runs of its benchmarks, by name.
type side map[string][]run

// spread is the median and range of one metric over a benchmark's runs.
type spread struct{ median, lo, hi float64 }

func spreadOf(runs []run, unit string) spread {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r[unit]
	}
	slices.Sort(v)
	n := len(v)
	return spread{median: (v[(n-1)/2] + v[n/2]) / 2, lo: v[0], hi: v[n-1]}
}

// diffRow is one benchmark's comparison in the diff table.
type diffRow struct {
	name                  string
	baseNs, curNs         spread
	baseAllocs, curAllocs spread
	nsDelta, allocsDel    float64  // fractional change of the medians vs the base
	counters              []string // counter faults, e.g. "key: base -> cur"
	status                string   // "ok" | "REGRESSED" | "COUNTERS" | "MISSING" | "new"
	failed                bool
}

// builtin lists the units every benchmark line may carry besides counters.
var builtin = map[string]bool{"ns/op": true, "B/op": true, "allocs/op": true, "MB/s": true}

// counterValues gathers each counter of runs with the value of every run
// that reports it, skipping the timing keys.
func counterValues(runs []run) map[string][]float64 {
	volatile := make(map[string]bool)
	for _, k := range core.VolatileStatsKeys() {
		volatile[k] = true
	}
	vals := make(map[string][]float64)
	for _, r := range runs {
		for k, v := range r {
			if !builtin[k] && !volatile[k] {
				vals[k] = append(vals[k], v)
			}
		}
	}
	return vals
}

// counterDiffs lists, sorted, every counter fault of one benchmark: a
// counter both sides report that does not read the same in every run of
// both, or one the base reports that the change does not. A benchmark
// without counters on either side has nothing to compare.
func counterDiffs(base, cur []run) []string {
	bv, cv := counterValues(base), counterValues(cur)
	if len(bv) == 0 || len(cv) == 0 {
		return nil
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	// agreed is the one value every run reports for a counter, or a fault
	// naming the side's readings.
	agreed := func(label string, vals []float64, runs int) (float64, string) {
		if len(vals) == runs && slices.Min(vals) == slices.Max(vals) {
			return vals[0], ""
		}
		read := make([]string, len(vals))
		for i, v := range vals {
			read[i] = num(v)
		}
		return 0, fmt.Sprintf("%s runs disagree (%d of %d report it: %s)", label, len(vals), runs, strings.Join(read, ", "))
	}
	var diffs []string
	for k, b := range bv {
		c, ok := cv[k]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: %s -> missing", k, num(b[0])))
			continue
		}
		bVal, bFault := agreed("base", b, len(base))
		cVal, cFault := agreed("change", c, len(cur))
		if fault := strings.Trim(bFault+"; "+cFault, "; "); fault != "" {
			diffs = append(diffs, k+": "+fault)
		} else if bVal != cVal {
			diffs = append(diffs, fmt.Sprintf("%s: %s -> %s", k, num(bVal), num(cVal)))
		}
	}
	slices.Sort(diffs)
	return diffs
}

// runDiff executes the regression-diff mode.
func runDiff(basePath, curPath string, maxRegress float64, summaryPath string, out io.Writer) error {
	if curPath == "" {
		return fmt.Errorf("diff mode needs -current")
	}
	base, baseOrder, err := parseBenchOutput(basePath)
	if err != nil {
		return err
	}
	cur, curOrder, err := parseBenchOutput(curPath)
	if err != nil {
		return err
	}
	frac := func(base, cur spread) float64 {
		if base.median <= 0 {
			return 0
		}
		return cur.median/base.median - 1
	}
	var rows []diffRow
	failed := false
	for _, name := range baseOrder {
		b := base[name]
		r := diffRow{name: name, baseNs: spreadOf(b, "ns/op"), baseAllocs: spreadOf(b, "allocs/op"), status: "ok"}
		if c, ok := cur[name]; !ok {
			r.status, r.failed = "MISSING", true
		} else {
			r.curNs, r.curAllocs = spreadOf(c, "ns/op"), spreadOf(c, "allocs/op")
			r.nsDelta, r.allocsDel = frac(r.baseNs, r.curNs), frac(r.baseAllocs, r.curAllocs)
			r.counters = counterDiffs(b, c)
			switch {
			case r.nsDelta > maxRegress || r.allocsDel > maxRegress:
				r.status, r.failed = "REGRESSED", true
			case len(r.counters) > 0:
				r.status, r.failed = "COUNTERS", true
			}
		}
		failed = failed || r.failed
		rows = append(rows, r)
	}
	for _, name := range curOrder {
		if _, ok := base[name]; !ok {
			c := cur[name]
			rows = append(rows, diffRow{name: name, curNs: spreadOf(c, "ns/op"), curAllocs: spreadOf(c, "allocs/op"), status: "new"})
		}
	}

	runs := func(s side) int {
		n := 0
		for _, rs := range s {
			n = max(n, len(rs))
		}
		return n
	}
	title := fmt.Sprintf("%s (%d runs) vs base %s (%d runs)", curPath, runs(cur), basePath, runs(base))
	renderText(out, title, maxRegress, rows)
	if summaryPath != "" {
		f, err := os.OpenFile(summaryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("summary: %w", err)
		}
		renderMarkdown(f, title, maxRegress, rows, failed)
		if err := f.Close(); err != nil {
			return fmt.Errorf("summary: %w", err)
		}
	}
	if failed {
		return fmt.Errorf("perf gate failed: regression, changed counter or missing benchmark vs %s (threshold %+.0f%%)", basePath, maxRegress*100)
	}
	fmt.Fprintf(out, "perf gate passed: %d benchmarks within %+.0f%% of %s, counters unchanged\n", len(base), maxRegress*100, basePath)
	return nil
}

// fmtSpread prints a spread as "median [lo–hi]".
func fmtSpread(s spread) string {
	return fmt.Sprintf("%.0f [%.0f–%.0f]", s.median, s.lo, s.hi)
}

func renderText(w io.Writer, title string, maxRegress float64, rows []diffRow) {
	fmt.Fprintf(w, "perf diff: %s, medians [ranges], fail above %+.0f%%\n", title, maxRegress*100)
	for _, r := range rows {
		switch r.status {
		case "MISSING":
			fmt.Fprintf(w, "%-48s MISSING from the change (base %s ns/op)\n", r.name, fmtSpread(r.baseNs))
		case "new":
			fmt.Fprintf(w, "%-48s new: %s ns/op  %s allocs/op\n", r.name, fmtSpread(r.curNs), fmtSpread(r.curAllocs))
		default:
			fmt.Fprintf(w, "%-48s %s -> %s ns/op (%+6.1f%%)  %.0f -> %.0f allocs/op (%+6.1f%%)  %s\n",
				r.name, fmtSpread(r.baseNs), fmtSpread(r.curNs), r.nsDelta*100,
				r.baseAllocs.median, r.curAllocs.median, r.allocsDel*100, r.status)
			for _, d := range r.counters {
				fmt.Fprintf(w, "%-48s   counter %s\n", "", d)
			}
		}
	}
}

func renderMarkdown(w io.Writer, title string, maxRegress float64, rows []diffRow, failed bool) {
	verdict := "✅ within threshold"
	if failed {
		verdict = "❌ regression detected"
	}
	fmt.Fprintf(w, "### Perf gate: %s — %s\n\n", title, verdict)
	fmt.Fprintf(w, "Medians [ranges]. Fails above %+.0f%% median ns/op or allocs/op growth, or on any changed counter.\n\n", maxRegress*100)
	fmt.Fprintln(w, "| benchmark | base ns/op | change ns/op | Δns | base allocs | change allocs | Δallocs | status |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---|")
	for _, r := range rows {
		switch r.status {
		case "MISSING":
			fmt.Fprintf(w, "| `%s` | %s | — | — | %.0f | — | — | ❌ missing |\n", r.name, fmtSpread(r.baseNs), r.baseAllocs.median)
		case "new":
			fmt.Fprintf(w, "| `%s` | — | %s | — | — | %.0f | — | 🆕 new |\n", r.name, fmtSpread(r.curNs), r.curAllocs.median)
		default:
			mark := "✅"
			if r.failed {
				mark = "❌"
			}
			if len(r.counters) > 0 {
				mark += " counters: `" + strings.Join(r.counters, "`, `") + "`"
			}
			fmt.Fprintf(w, "| `%s` | %s | %s | %+.1f%% | %.0f | %.0f | %+.1f%% | %s |\n",
				r.name, fmtSpread(r.baseNs), fmtSpread(r.curNs), r.nsDelta*100,
				r.baseAllocs.median, r.curAllocs.median, r.allocsDel*100, mark)
		}
	}
	fmt.Fprintln(w)
}

// runBudget executes the alloc-budget mode.
func runBudget(budgetPath, benchPath string, out io.Writer) error {
	if benchPath == "" {
		return fmt.Errorf("budget mode needs -bench")
	}
	budgets, order, err := loadBudgets(budgetPath)
	if err != nil {
		return err
	}
	ran, _, err := parseBenchOutput(benchPath)
	if err != nil {
		return err
	}
	failed := false
	for _, name := range order {
		runs := ran[name]
		if len(runs) == 0 {
			fmt.Fprintf(out, "%-44s NEVER RAN (budget %d)\n", name, budgets[name])
			failed = true
			continue
		}
		got := int64(spreadOf(runs, "allocs/op").hi)
		status := "ok"
		if got > budgets[name] {
			status = "OVER BUDGET"
			failed = true
		}
		fmt.Fprintf(out, "%-44s %7d allocs/op (budget %7d) %s\n", name, got, budgets[name], status)
	}
	if failed {
		return fmt.Errorf("alloc budget check failed (see above; budgets in %s)", budgetPath)
	}
	return nil
}

// loadBudgets reads "name max-allocs" lines, ignoring blanks and #-comments.
func loadBudgets(path string) (map[string]int64, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	budgets := make(map[string]int64)
	var order []string
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, nil, fmt.Errorf("%s:%d: want \"name max-allocs\", got %q", path, line, text)
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%s:%d: bad budget %q: %v", path, line, fields[1], err)
		}
		if _, dup := budgets[fields[0]]; dup {
			return nil, nil, fmt.Errorf("%s:%d: duplicate budget for %s", path, line, fields[0])
		}
		budgets[fields[0]] = n
		order = append(order, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(budgets) == 0 {
		return nil, nil, fmt.Errorf("%s: no budgets", path)
	}
	return budgets, order, nil
}

// parseBenchOutput reads `go test -bench` output: each result line's
// metrics by unit (ns/op, B/op, allocs/op and every b.ReportMetric unit,
// which go prints before B/op), gathered per benchmark name without the
// -<GOMAXPROCS> suffix go appends, in the order the names first appear.
func parseBenchOutput(path string) (side, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	runs := make(side)
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not a result line: the iteration count leads one
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := make(run)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: bad %s on line %q", path, fields[i+1], sc.Text())
			}
			r[fields[i+1]] = v
		}
		if _, seen := runs[name]; !seen {
			order = append(order, name)
		}
		runs[name] = append(runs[name], r)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(runs) == 0 {
		return nil, nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return runs, order, nil
}
