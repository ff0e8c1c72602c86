package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// runRecord is one untraced run read back from its output.
type runRecord struct {
	workload string
	res      result
}

// readRuns reads the untraced runs in the output files: each run is a header
// line naming its workload followed, last, by its result line. One file may
// hold several runs.
func readRuns(paths []string) ([]runRecord, error) {
	var out []runRecord
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var header struct {
			Bench    string `json:"bench"`
			Workload string `json:"workload"`
			Trace    int    `json:"trace"`
		}
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 || line[0] != '{' {
				continue
			}
			var res result
			if err := json.Unmarshal(line, &res); err == nil && res.Metrics != nil {
				if header.Workload == "" {
					f.Close()
					return nil, fmt.Errorf("%s: result without a header line", p)
				}
				if header.Trace == 0 {
					out = append(out, runRecord{header.Workload, res})
				}
				continue
			}
			if err := json.Unmarshal(line, &header); err != nil || header.Bench == "" {
				f.Close()
				return nil, fmt.Errorf("%s: unexpected line %q", p, line)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

// verdict is the comparison of one (workload, metric) pair.
type verdict struct {
	workload, metric        string
	baseQ1, baseMed, baseQ3 float64
	chQ1, chMed, chQ3       float64
	wins, pairs             int
	verdict                 string
}

// minPairs is the least number of parent/change pairs a gain is claimed on.
const minPairs = 10

// errorRate is the pseudo-metric compared beside the end-to-end metrics:
// failed operations over attempted ones, which may not rise at all.
const errorRate = "error_rate"

// judge applies the gain and regression rules to one metric's runs; base[i]
// and change[i] form the i-th pair.
func judge(d metricDef, base, change []float64) verdict {
	v := verdict{metric: d.Name, pairs: min(len(base), len(change))}
	v.baseQ1, v.baseMed, v.baseQ3 = quartiles(base)
	v.chQ1, v.chMed, v.chQ3 = quartiles(change)
	v.baseMed, v.chMed = median(base), median(change)
	better := func(x, y float64) bool {
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := 0; i < v.pairs; i++ {
		if better(change[i], base[i]) {
			v.wins++
		}
	}
	worse := v.chMed - v.baseMed
	if d.Better == "higher" {
		worse = -worse
	}
	spread := v.baseQ3 - v.baseQ1
	rel := func(x float64) float64 {
		if v.baseMed == 0 {
			return x
		}
		return x / math.Abs(v.baseMed)
	}
	allBetter := len(change) > 0 && len(base) > 0
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	switch {
	case d.Name == errorRate && mean(change) > mean(base):
		v.verdict = "regressed"
	case d.Name != errorRate && rel(worse) > d.Bound:
		v.verdict = "regressed"
	case v.pairs >= minPairs && v.wins*10 >= 9*v.pairs && worse < 0 && -worse > spread:
		v.verdict = "improved"
	case d.Name != errorRate && rel(spread) > d.Bound && !allBetter:
		v.verdict = "unresolved"
	default:
		v.verdict = "unchanged"
	}
	return v
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// compareRuns judges every end-to-end metric, and the error rate, of every
// workload both sides ran.
func compareRuns(base, change []runRecord) []verdict {
	var out []verdict
	for _, w := range workloadDefs {
		b, c := ofWorkload(base, w.Name), ofWorkload(change, w.Name)
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		defs := append(append([]metricDef(nil), endToEnd...), metricDef{Name: errorRate, Unit: "ratio", Better: "lower"})
		for _, d := range defs {
			v := judge(d, values(b, d.Name), values(c, d.Name))
			v.workload = w.Name
			out = append(out, v)
		}
	}
	return out
}

func ofWorkload(runs []runRecord, name string) []result {
	var out []result
	for _, r := range runs {
		if r.workload == name {
			out = append(out, r.res)
		}
	}
	return out
}

func values(rs []result, metric string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if metric == errorRate {
			out = append(out, float64(r.Failed)/float64(max(r.Attempted, 1)))
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareMain is "flipload compare": it exits 1 when any pair regressed,
// or, with -claim, unless the claimed pair improved.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePaths := fs.String("base", "", "comma-separated output files of the parent commit's runs")
	changePaths := fs.String("change", "", "comma-separated output files of the change's runs, paired in order with -base")
	claim := fs.String("claim", "", "workload:metric to check alone; exit 0 only if it improved")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePaths == "" || *changePaths == "" {
		fmt.Fprintln(stderr, "compare: need -base and -change")
		return 2
	}
	base, err := readRuns(strings.Split(*basePaths, ","))
	if err == nil {
		var change []runRecord
		if change, err = readRuns(strings.Split(*changePaths, ",")); err == nil {
			return report(compareRuns(base, change), *claim, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "compare:", err)
	return 2
}

func report(vs []verdict, claim string, stdout, stderr io.Writer) int {
	if claim != "" {
		var kept []verdict
		for _, v := range vs {
			if v.workload+":"+v.metric == claim {
				kept = append(kept, v)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(stderr, "compare: no runs of %s on both sides\n", claim)
			return 2
		}
		vs = kept
	}
	fmt.Fprintf(stdout, "%-16s %-11s %-34s %-34s %-6s %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	code := 0
	for _, v := range vs {
		fmt.Fprintf(stdout, "%-16s %-11s %-34s %-34s %-6s %s\n", v.workload, v.metric,
			fmt.Sprintf("%.6g [%.6g, %.6g]", v.baseMed, v.baseQ1, v.baseQ3),
			fmt.Sprintf("%.6g [%.6g, %.6g]", v.chMed, v.chQ1, v.chQ3),
			fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		switch {
		case claim != "" && v.verdict != "improved":
			code = 1
		case claim == "" && v.verdict == "regressed":
			code = 1
		}
	}
	return code
}
