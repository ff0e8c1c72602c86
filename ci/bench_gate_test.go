package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// benchLines renders go test -bench result lines, one per run: each run
// prints every benchmark once, with the GOMAXPROCS suffix go appends.
func benchLines(runs ...string) string {
	return "goos: linux\ngoarch: amd64\npkg: github.com/flipper-mining/flipper\n" + strings.Join(runs, "") + "PASS\n"
}

// baseOutput is two runs of a base side.
var baseOutput = benchLines(`BenchmarkCountingDense/scan-2        	      50	  20000000 ns/op	 8000000 B/op	   20000 allocs/op
BenchmarkCountingDenseWarm/scan-2    	     300	   5000000 ns/op	  500000 B/op	    4200 allocs/op
`, `BenchmarkCountingDense/scan-2        	      50	  20000000 ns/op	 8000000 B/op	   20000 allocs/op
BenchmarkCountingDenseWarm/scan-2    	     300	   5000000 ns/op	  500000 B/op	    4200 allocs/op
`)

func TestDiffPassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.txt", baseOutput)
	cur := writeFile(t, dir, "cur.txt", benchLines(`BenchmarkCountingDense/scan-2        	      50	  24000000 ns/op	 8000000 B/op	   21000 allocs/op
BenchmarkCountingDenseWarm/scan-2    	     300	   4000000 ns/op	  500000 B/op	    4100 allocs/op
BenchmarkCountingDense/extra-2       	       1	         1 ns/op	       1 B/op	       1 allocs/op
`))
	summary := filepath.Join(dir, "summary.md")
	var out strings.Builder
	if err := runDiff(base, cur, 0.25, summary, &out); err != nil {
		t.Fatalf("gate failed on a +20%% run: %v\n%s", err, out.String())
	}
	md, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Perf gate", "BenchmarkCountingDense/scan", "🆕 new", "within threshold", "20000000 [20000000–20000000]"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("summary missing %q:\n%s", want, md)
		}
	}
}

func TestDiffFailsOnNsRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.txt", baseOutput)
	cur := writeFile(t, dir, "cur.txt", benchLines(`BenchmarkCountingDense/scan-2        	      50	  26000000 ns/op	 8000000 B/op	   20000 allocs/op
BenchmarkCountingDenseWarm/scan-2    	     300	   5000000 ns/op	  500000 B/op	    4200 allocs/op
`))
	summary := filepath.Join(dir, "summary.md")
	var out strings.Builder
	err := runDiff(base, cur, 0.25, summary, &out)
	if err == nil {
		t.Fatalf("gate passed a +30%% ns/op regression:\n%s", out.String())
	}
	md, _ := os.ReadFile(summary)
	if !strings.Contains(string(md), "regression detected") {
		t.Errorf("summary does not flag the regression:\n%s", md)
	}
}

func TestDiffFailsOnAllocsRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.txt", baseOutput)
	cur := writeFile(t, dir, "cur.txt", benchLines(`BenchmarkCountingDense/scan-2        	      50	  20000000 ns/op	 8000000 B/op	   20000 allocs/op
BenchmarkCountingDenseWarm/scan-2    	     300	   5000000 ns/op	  500000 B/op	    9000 allocs/op
`))
	var out strings.Builder
	if err := runDiff(base, cur, 0.25, "", &out); err == nil {
		t.Fatalf("gate passed a 2x allocs/op regression:\n%s", out.String())
	}
}

func TestDiffFailsOnMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.txt", baseOutput)
	cur := writeFile(t, dir, "cur.txt", benchLines(`BenchmarkCountingDense/scan-2        	      50	  20000000 ns/op	 8000000 B/op	   20000 allocs/op
`))
	var out strings.Builder
	err := runDiff(base, cur, 0.25, "", &out)
	if err == nil {
		t.Fatalf("gate passed with a base benchmark missing from the change:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Errorf("diff output does not call out the missing benchmark:\n%s", out.String())
	}
}

// TestDiffTakesMedians: the gate judges the median of each side's runs,
// which alternate between the sides, so one slow run of five does not
// fail it, while three do.
func TestDiffTakesMedians(t *testing.T) {
	line := func(ns int) string {
		return fmt.Sprintf("BenchmarkCountingDenseWarm/scan-2 \t 300 \t %d ns/op \t 500000 B/op \t 4200 allocs/op\n", ns)
	}
	steady := []string{line(5000000), line(5100000), line(4900000), line(5000000), line(5050000)}
	dir := t.TempDir()
	base := writeFile(t, dir, "base.txt", benchLines(steady...))
	for _, tc := range []struct {
		name string
		runs []string
		fail bool
	}{
		{"one slow run", []string{line(5000000), line(15000000), line(4950000), line(5100000), line(5000000)}, false},
		{"three slow runs", []string{line(15000000), line(5000000), line(15000000), line(5100000), line(14000000)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := writeFile(t, dir, "cur.txt", benchLines(tc.runs...))
			var out strings.Builder
			err := runDiff(base, cur, 0.25, "", &out)
			if (err != nil) != tc.fail {
				t.Fatalf("gate error = %v, want failure %v:\n%s", err, tc.fail, out.String())
			}
			for _, want := range []string{"(5 runs)", "5000000 [4900000–5100000]"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("diff output does not show %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestParseBenchOutput: names lose go's -<GOMAXPROCS> suffix (and only a
// numeric one), and b.ReportMetric units, which go prints between ns/op and
// B/op, are read like the built-in ones.
func TestParseBenchOutput(t *testing.T) {
	path := writeFile(t, t.TempDir(), "bench.txt", `goos: linux
BenchmarkCountingDenseWarm/scan-8 	     300	   1000000 ns/op	     10080 candidates_counted	         3.000 patterns	  500000 B/op	    4115 allocs/op
BenchmarkColdPrepare             	      40	  27000000 ns/op	  900000 B/op	     560 allocs/op
BenchmarkFig8aMinsupProfiles/thr1-high-16 	 10	 1000 ns/op	 0 patterns
BenchmarkServeCacheHit
BenchmarkServeCacheHit-2         	   30000	     35000 ns/op	   20000 B/op	      85 allocs/op
--- BENCH: BenchmarkServeCacheHit-2
PASS
`)
	runs, order, err := parseBenchOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BenchmarkCountingDenseWarm/scan", "BenchmarkColdPrepare", "BenchmarkFig8aMinsupProfiles/thr1-high", "BenchmarkServeCacheHit"}
	if !slices.Equal(order, want) {
		t.Fatalf("names %q, want %q", order, want)
	}
	warm := runs["BenchmarkCountingDenseWarm/scan"]
	if len(warm) != 1 {
		t.Fatalf("%d runs of the warm benchmark, want 1", len(warm))
	}
	for unit, v := range map[string]float64{"ns/op": 1000000, "candidates_counted": 10080, "patterns": 3, "B/op": 500000, "allocs/op": 4115} {
		if warm[0][unit] != v {
			t.Errorf("%s = %v, want %v", unit, warm[0][unit], v)
		}
	}
	if got := runs["BenchmarkServeCacheHit"]; len(got) != 1 || got[0]["allocs/op"] != 85 {
		t.Errorf("cache hit runs %v, want one of 85 allocs/op", got)
	}
}

// countersBase is a base side whose CountingDense/scan carries engine
// counters, plus ColdPrepare, which carries none.
var countersBase = benchLines(`BenchmarkCountingDense/scan-2 	 40 	 29000000 ns/op 	 2311764 bitmap_word_ops 	 10080 candidates_counted 	 6775 probes_pruned 	 871.0 shard_merge_ns 	 10269 trie_nodes 	 7000000 B/op 	 4536 allocs/op
BenchmarkColdPrepare-2 	 40 	 40000000 ns/op 	 900000 B/op 	 290 allocs/op
`)

// countersCurrent is a change side with the given metrics (each " value
// unit" pair) on CountingDense/scan and ColdPrepare, over as many runs as
// scan lists.
func countersCurrent(cold string, scan ...string) string {
	var runs []string
	for _, s := range scan {
		runs = append(runs, `BenchmarkCountingDense/scan-2 	 40 	 29000000 ns/op `+s+` 	 7000000 B/op 	 4536 allocs/op
BenchmarkColdPrepare-2 	 40 	 40000000 ns/op `+cold+` 	 900000 B/op 	 290 allocs/op
`)
	}
	return benchLines(runs...)
}

func TestDiffCounters(t *testing.T) {
	const all = ` 2311764 bitmap_word_ops 10080 candidates_counted 6775 probes_pruned 871.0 shard_merge_ns 10269 trie_nodes`
	cases := []struct {
		name      string
		base      string // countersBase when empty
		scan      []string
		cold      string
		fail      bool
		mentioned []string // in the text output
	}{
		{name: "equal", scan: []string{all}},
		{name: "one changed", scan: []string{` 2311765 bitmap_word_ops 10080 candidates_counted 6775 probes_pruned 871.0 shard_merge_ns 10269 trie_nodes`},
			fail: true, mentioned: []string{"COUNTERS", "bitmap_word_ops: 2311764 -> 2311765"}},
		{name: "one missing", scan: []string{` 2311764 bitmap_word_ops 10080 candidates_counted 871.0 shard_merge_ns 10269 trie_nodes`},
			fail: true, mentioned: []string{"probes_pruned: 6775 -> missing"}},
		{name: "only volatile changed", scan: []string{` 2311764 bitmap_word_ops 10080 candidates_counted 6775 probes_pruned 12345 shard_merge_ns 10269 trie_nodes`}},
		{name: "no counters", scan: []string{all}, cold: ` 3.000 patterns`},
		{name: "no counters in the current run", scan: []string{``}},
		{name: "a counter only the change reports", scan: []string{all + ` 3.000 patterns`}},
		{name: "change runs disagree", scan: []string{all, ` 2311764 bitmap_word_ops 10081 candidates_counted 6775 probes_pruned 871.0 shard_merge_ns 10269 trie_nodes`, all},
			fail: true, mentioned: []string{"candidates_counted: change runs disagree (3 of 3 report it: 10080, 10081, 10080)"}},
		{name: "base runs disagree", base: countersBase + strings.Replace(countersBase, " 10269 trie_nodes", " 10270 trie_nodes", 1), scan: []string{all},
			fail: true, mentioned: []string{"trie_nodes: base runs disagree (2 of 2 report it: 10269, 10270)\n"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.base == "" {
				c.base = countersBase
			}
			base := writeFile(t, dir, "base.txt", c.base)
			cur := writeFile(t, dir, "cur.txt", countersCurrent(c.cold, c.scan...))
			summary := filepath.Join(dir, "summary.md")
			var out strings.Builder
			err := runDiff(base, cur, 0.25, summary, &out)
			if (err != nil) != c.fail {
				t.Fatalf("gate error = %v, want failure %v:\n%s", err, c.fail, out.String())
			}
			for _, want := range c.mentioned {
				if !strings.Contains(out.String(), want) {
					t.Errorf("diff output does not name %q:\n%s", want, out.String())
				}
			}
			md, err := os.ReadFile(summary)
			if err != nil {
				t.Fatal(err)
			}
			if c.fail && !strings.Contains(string(md), "counters: `") {
				t.Errorf("summary does not name the changed counters:\n%s", md)
			}
		})
	}
}

const benchOutput = `goos: linux
goarch: amd64
BenchmarkCountingDense/scan-8   	       1	  47003334 ns/op	 7242440 B/op	   20423 allocs/op
BenchmarkCountingDense/bitmap-8 	       1	  19580593 ns/op	 7991840 B/op	   20647 allocs/op
BenchmarkCountingDenseWarm/bitmap-8 	   1	   5314555 ns/op	 1898928 B/op	    4178 allocs/op
PASS
`

func TestBudgetPasses(t *testing.T) {
	dir := t.TempDir()
	budget := writeFile(t, dir, "budget.txt", `# comment
BenchmarkCountingDense/scan 30000
BenchmarkCountingDense/bitmap 30000
BenchmarkCountingDenseWarm/bitmap 8000
`)
	bench := writeFile(t, dir, "bench.txt", benchOutput)
	var out strings.Builder
	if err := runBudget(budget, bench, &out); err != nil {
		t.Fatalf("budget check failed on in-budget run: %v\n%s", err, out.String())
	}
}

func TestBudgetFailsOverBudget(t *testing.T) {
	dir := t.TempDir()
	budget := writeFile(t, dir, "budget.txt", "BenchmarkCountingDense/scan 20000\n")
	bench := writeFile(t, dir, "bench.txt", benchOutput)
	var out strings.Builder
	if err := runBudget(budget, bench, &out); err == nil {
		t.Fatalf("budget check passed 20423 allocs against a 20000 budget:\n%s", out.String())
	}
}

func TestBudgetFailsOnUnmatchedEntry(t *testing.T) {
	dir := t.TempDir()
	budget := writeFile(t, dir, "budget.txt", `BenchmarkCountingDense/scan 30000
BenchmarkCountingDense/renamed_away 30000
`)
	bench := writeFile(t, dir, "bench.txt", benchOutput)
	var out strings.Builder
	err := runBudget(budget, bench, &out)
	if err == nil {
		t.Fatalf("budget check passed with an entry that never ran:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "NEVER RAN") {
		t.Errorf("output does not call out the dead budget entry:\n%s", out.String())
	}
}

func TestBudgetRejectsMalformedFile(t *testing.T) {
	dir := t.TempDir()
	bench := writeFile(t, dir, "bench.txt", benchOutput)
	for name, content := range map[string]string{
		"three-fields": "BenchmarkX 100 extra\n",
		"non-numeric":  "BenchmarkX lots\n",
		"duplicate":    "BenchmarkX 1\nBenchmarkX 2\n",
		"empty":        "# only comments\n",
	} {
		budget := writeFile(t, dir, name+".txt", content)
		var out strings.Builder
		if err := runBudget(budget, bench, &out); err == nil {
			t.Errorf("%s: malformed budget file accepted", name)
		}
	}
}
