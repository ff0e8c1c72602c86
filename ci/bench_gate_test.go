package main

import (
	"os"
	"path/filepath"
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

const baselineJSON = `{
  "tag": "PR7",
  "maxprocs": 1,
  "benchmarks": [
    {"name": "CountingDense/bitmap", "ns_per_op": 20000000, "allocs_per_op": 20000, "bytes_per_op": 8000000},
    {"name": "CountingDense/bitmap/warm", "ns_per_op": 5000000, "allocs_per_op": 4200, "bytes_per_op": 500000}
  ]
}`

func TestDiffPassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", baselineJSON)
	cur := writeFile(t, dir, "cur.json", `{
  "tag": "ci",
  "benchmarks": [
    {"name": "CountingDense/bitmap", "ns_per_op": 24000000, "allocs_per_op": 21000},
    {"name": "CountingDense/bitmap/warm", "ns_per_op": 4000000, "allocs_per_op": 4100},
    {"name": "CountingDense/extra", "ns_per_op": 1, "allocs_per_op": 1}
  ]
}`)
	summary := filepath.Join(dir, "summary.md")
	var out strings.Builder
	if err := runDiff(base, cur, 0.25, summary, &out); err != nil {
		t.Fatalf("gate failed on a +20%% run: %v\n%s", err, out.String())
	}
	md, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Perf gate", "CountingDense/bitmap", "🆕 new", "within threshold"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("summary missing %q:\n%s", want, md)
		}
	}
}

func TestDiffFailsOnNsRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", baselineJSON)
	cur := writeFile(t, dir, "cur.json", `{
  "tag": "ci",
  "benchmarks": [
    {"name": "CountingDense/bitmap", "ns_per_op": 26000000, "allocs_per_op": 20000},
    {"name": "CountingDense/bitmap/warm", "ns_per_op": 5000000, "allocs_per_op": 4200}
  ]
}`)
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
	base := writeFile(t, dir, "base.json", baselineJSON)
	cur := writeFile(t, dir, "cur.json", `{
  "tag": "ci",
  "benchmarks": [
    {"name": "CountingDense/bitmap", "ns_per_op": 20000000, "allocs_per_op": 20000},
    {"name": "CountingDense/bitmap/warm", "ns_per_op": 5000000, "allocs_per_op": 9000}
  ]
}`)
	var out strings.Builder
	if err := runDiff(base, cur, 0.25, "", &out); err == nil {
		t.Fatalf("gate passed a 2x allocs/op regression:\n%s", out.String())
	}
}

func TestDiffFailsOnMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", baselineJSON)
	cur := writeFile(t, dir, "cur.json", `{
  "tag": "ci",
  "benchmarks": [
    {"name": "CountingDense/bitmap", "ns_per_op": 20000000, "allocs_per_op": 20000}
  ]
}`)
	var out strings.Builder
	err := runDiff(base, cur, 0.25, "", &out)
	if err == nil {
		t.Fatalf("gate passed with a baseline benchmark missing from the run:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Errorf("diff output does not call out the missing benchmark:\n%s", out.String())
	}
}

// countersBase is a baseline whose records carry engine counters, plus one
// record (ColdPrepare/medline) that carries none.
const countersBase = `{
  "tag": "PR15",
  "benchmarks": [
    {"name": "CountingDense/scan", "ns_per_op": 29000000, "allocs_per_op": 4536,
     "counters": {"bitmap_word_ops": 2311764, "candidates_counted": 10080, "probes_pruned": 6775, "shard_merge_ns": 871, "trie_nodes": 10269}},
    {"name": "ColdPrepare/medline", "ns_per_op": 40000000, "allocs_per_op": 290}
  ]
}`

// countersCurrent is a current run with the given counters on
// CountingDense/scan and ColdPrepare/medline.
func countersCurrent(scan, cold string) string {
	return `{
  "tag": "ci",
  "benchmarks": [
    {"name": "CountingDense/scan", "ns_per_op": 29000000, "allocs_per_op": 4536, "counters": ` + scan + `},
    {"name": "ColdPrepare/medline", "ns_per_op": 40000000, "allocs_per_op": 290, "counters": ` + cold + `}
  ]
}`
}

func TestDiffCounters(t *testing.T) {
	cases := []struct {
		name      string
		scan      string
		cold      string
		fail      bool
		mentioned []string // in the text output
	}{
		{name: "equal", scan: `{"bitmap_word_ops": 2311764, "candidates_counted": 10080, "probes_pruned": 6775, "shard_merge_ns": 871, "trie_nodes": 10269}`, cold: `null`},
		{name: "one changed", scan: `{"bitmap_word_ops": 2311765, "candidates_counted": 10080, "probes_pruned": 6775, "shard_merge_ns": 871, "trie_nodes": 10269}`, cold: `null`,
			fail: true, mentioned: []string{"COUNTERS", "bitmap_word_ops: 2311764 -> 2311765"}},
		{name: "one missing", scan: `{"bitmap_word_ops": 2311764, "candidates_counted": 10080, "shard_merge_ns": 871, "trie_nodes": 10269}`, cold: `null`,
			fail: true, mentioned: []string{"probes_pruned: 6775 -> missing"}},
		{name: "only volatile changed", scan: `{"bitmap_word_ops": 2311764, "candidates_counted": 10080, "probes_pruned": 6775, "shard_merge_ns": 12345, "trie_nodes": 10269}`, cold: `null`},
		{name: "no counters", scan: `{"bitmap_word_ops": 2311764, "candidates_counted": 10080, "probes_pruned": 6775, "shard_merge_ns": 871, "trie_nodes": 10269}`, cold: `{"patterns": 3}`},
		{name: "no counters in the current run", scan: `null`, cold: `null`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			base := writeFile(t, dir, "base.json", countersBase)
			cur := writeFile(t, dir, "cur.json", countersCurrent(c.scan, c.cold))
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
