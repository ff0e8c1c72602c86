// Command bench_gate is the CI perf wall. It has three modes:
//
// Regression diff (the perf gate proper):
//
//	go run ./ci -baseline BENCH_PR7.json -current BENCH_ci.json \
//	    [-max-regress 0.25] [-summary "$GITHUB_STEP_SUMMARY"]
//
// compares the freshly measured BENCH_ci.json against the committed
// baseline, benchmark by benchmark. A benchmark whose ns/op or allocs/op
// exceeds the baseline by more than the threshold fails the gate, as does
// a baseline benchmark missing from the current run (a silently dropped
// benchmark is a regression in coverage, not a pass). The engine counters
// a record carries do not jitter, so they must match exactly: every
// baseline counter but the timing keys (core.VolatileStatsKeys) must read
// the same in the current record, and a record with no counters on either
// side is not compared. Benchmarks new in the current run are reported but
// never fail. The full diff is written as a markdown table to the -summary
// file (the GitHub job summary) and as text to stdout, so a red gate is
// diagnosable from the CI page alone.
//
// Alloc budgets (replacing the old awk guard in bench-smoke):
//
//	go run ./ci -budget ci/alloc_budget.txt -bench alloc.txt
//
// parses `go test -bench -benchmem` output and enforces the per-benchmark
// allocs/op ceilings of the budget file. A budget line naming a benchmark
// that never ran is a hard failure — a renamed or deleted benchmark must
// be renamed or deleted in the budget too, otherwise the guard it carried
// silently evaporates.
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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/flipper-mining/flipper/internal/core"
)

// BenchRecord mirrors the per-benchmark entry of flipbench's BENCH_<tag>.json.
type BenchRecord struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Counters    map[string]float64 `json:"counters"`
}

// BenchFile mirrors flipbench's envelope; fields the gate ignores are
// dropped by the decoder.
type BenchFile struct {
	Tag        string        `json:"tag"`
	MaxProcs   int           `json:"maxprocs"`
	Benchmarks []BenchRecord `json:"benchmarks"`
}

func main() {
	var (
		baseline   = flag.String("baseline", "", "committed BENCH_<tag>.json to diff against")
		current    = flag.String("current", "", "freshly measured BENCH JSON")
		maxRegress = flag.Float64("max-regress", 0.25, "allowed fractional ns/op or allocs/op growth over baseline")
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

// diffRow is one benchmark's comparison in the diff table.
type diffRow struct {
	name               string
	baseNs, curNs      float64
	baseAllocs         int64
	curAllocs          int64
	nsDelta, allocsDel float64  // fractional change vs baseline
	counters           []string // counter mismatches, "key: base -> cur"
	status             string   // "ok" | "REGRESSED" | "COUNTERS" | "MISSING" | "new"
	failed             bool
}

// counterDiffs lists, sorted by key, every counter of base that cur does
// not match exactly, skipping the timing keys. A record without counters
// on either side has nothing to compare.
func counterDiffs(base, cur map[string]float64) []string {
	if len(base) == 0 || len(cur) == 0 {
		return nil
	}
	volatile := make(map[string]bool)
	for _, k := range core.VolatileStatsKeys() {
		volatile[k] = true
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	var diffs []string
	for k, b := range base {
		if volatile[k] {
			continue
		}
		switch c, ok := cur[k]; {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s: %s -> missing", k, num(b)))
		case c != b:
			diffs = append(diffs, fmt.Sprintf("%s: %s -> %s", k, num(b), num(c)))
		}
	}
	sort.Strings(diffs)
	return diffs
}

func loadBench(path string) (*BenchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f BenchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return &f, nil
}

// runDiff executes the regression-diff mode.
func runDiff(basePath, curPath string, maxRegress float64, summaryPath string, out io.Writer) error {
	if curPath == "" {
		return fmt.Errorf("diff mode needs -current")
	}
	base, err := loadBench(basePath)
	if err != nil {
		return err
	}
	cur, err := loadBench(curPath)
	if err != nil {
		return err
	}
	curByName := make(map[string]BenchRecord, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	frac := func(baseV, curV float64) float64 {
		if baseV <= 0 {
			return 0
		}
		return curV/baseV - 1
	}
	var rows []diffRow
	failed := false
	for _, b := range base.Benchmarks {
		c, ok := curByName[b.Name]
		if !ok {
			rows = append(rows, diffRow{name: b.Name, baseNs: b.NsPerOp, baseAllocs: b.AllocsPerOp, status: "MISSING", failed: true})
			failed = true
			continue
		}
		delete(curByName, b.Name)
		r := diffRow{
			name:   b.Name,
			baseNs: b.NsPerOp, curNs: c.NsPerOp,
			baseAllocs: b.AllocsPerOp, curAllocs: c.AllocsPerOp,
			nsDelta:   frac(b.NsPerOp, c.NsPerOp),
			allocsDel: frac(float64(b.AllocsPerOp), float64(c.AllocsPerOp)),
			counters:  counterDiffs(b.Counters, c.Counters),
			status:    "ok",
		}
		switch {
		case r.nsDelta > maxRegress || r.allocsDel > maxRegress:
			r.status, r.failed = "REGRESSED", true
		case len(r.counters) > 0:
			r.status, r.failed = "COUNTERS", true
		}
		failed = failed || r.failed
		rows = append(rows, r)
	}
	extra := make([]string, 0, len(curByName))
	for name := range curByName {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		c := curByName[name]
		rows = append(rows, diffRow{name: name, curNs: c.NsPerOp, curAllocs: c.AllocsPerOp, status: "new"})
	}

	renderText(out, base.Tag, cur.Tag, maxRegress, rows)
	if summaryPath != "" {
		f, err := os.OpenFile(summaryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("summary: %w", err)
		}
		renderMarkdown(f, base.Tag, cur.Tag, maxRegress, rows, failed)
		if err := f.Close(); err != nil {
			return fmt.Errorf("summary: %w", err)
		}
	}
	if failed {
		return fmt.Errorf("perf gate failed: regression, changed counter or missing benchmark vs %s (threshold %+.0f%%)", basePath, maxRegress*100)
	}
	fmt.Fprintf(out, "perf gate passed: %d benchmarks within %+.0f%% of %s, counters unchanged\n", len(base.Benchmarks), maxRegress*100, basePath)
	return nil
}

func renderText(w io.Writer, baseTag, curTag string, maxRegress float64, rows []diffRow) {
	fmt.Fprintf(w, "perf diff: %s (current) vs %s (baseline), fail above %+.0f%%\n", curTag, baseTag, maxRegress*100)
	for _, r := range rows {
		switch r.status {
		case "MISSING":
			fmt.Fprintf(w, "%-44s MISSING from current run (baseline %12.0f ns/op)\n", r.name, r.baseNs)
		case "new":
			fmt.Fprintf(w, "%-44s new: %12.0f ns/op %8d allocs/op\n", r.name, r.curNs, r.curAllocs)
		default:
			fmt.Fprintf(w, "%-44s %12.0f -> %12.0f ns/op (%+6.1f%%)  %7d -> %7d allocs/op (%+6.1f%%)  %s\n",
				r.name, r.baseNs, r.curNs, r.nsDelta*100, r.baseAllocs, r.curAllocs, r.allocsDel*100, r.status)
			for _, d := range r.counters {
				fmt.Fprintf(w, "%-44s   counter %s\n", "", d)
			}
		}
	}
}

func renderMarkdown(w io.Writer, baseTag, curTag string, maxRegress float64, rows []diffRow, failed bool) {
	verdict := "✅ within threshold"
	if failed {
		verdict = "❌ regression detected"
	}
	fmt.Fprintf(w, "### Perf gate: `%s` vs baseline `%s` — %s\n\n", curTag, baseTag, verdict)
	fmt.Fprintf(w, "Fails above %+.0f%% ns/op or allocs/op growth, or on any changed counter.\n\n", maxRegress*100)
	fmt.Fprintln(w, "| benchmark | base ns/op | cur ns/op | Δns | base allocs | cur allocs | Δallocs | status |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---|")
	for _, r := range rows {
		switch r.status {
		case "MISSING":
			fmt.Fprintf(w, "| `%s` | %.0f | — | — | %d | — | — | ❌ missing |\n", r.name, r.baseNs, r.baseAllocs)
		case "new":
			fmt.Fprintf(w, "| `%s` | — | %.0f | — | — | %d | — | 🆕 new |\n", r.name, r.curNs, r.curAllocs)
		default:
			mark := "✅"
			if r.failed {
				mark = "❌"
			}
			if len(r.counters) > 0 {
				mark += " counters: `" + strings.Join(r.counters, "`, `") + "`"
			}
			fmt.Fprintf(w, "| `%s` | %.0f | %.0f | %+.1f%% | %d | %d | %+.1f%% | %s |\n",
				r.name, r.baseNs, r.curNs, r.nsDelta*100, r.baseAllocs, r.curAllocs, r.allocsDel*100, mark)
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
	allocs, err := parseBenchOutput(benchPath)
	if err != nil {
		return err
	}
	failed := false
	for _, name := range order {
		got, ran := allocs[name]
		if !ran {
			fmt.Fprintf(out, "%-44s NEVER RAN (budget %d)\n", name, budgets[name])
			failed = true
			continue
		}
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

// parseBenchOutput extracts "<name> -> allocs/op" from `go test -bench
// -benchmem` output, stripping the -<GOMAXPROCS> suffix go appends to
// benchmark names.
func parseBenchOutput(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allocs := make(map[string]int64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i < len(fields); i++ {
			if fields[i] == "allocs/op" {
				n, err := strconv.ParseInt(fields[i-1], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad allocs/op on line %q", path, sc.Text())
				}
				allocs[name] = n
			}
		}
	}
	return allocs, sc.Err()
}
