package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseMinsup(t *testing.T) {
	got, err := parseMinsup("0.01, 0.001,0.0005")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0.01 || got[2] != 0.0005 {
		t.Errorf("parseMinsup = %v", got)
	}
	if _, err := parseMinsup("0.1,abc"); err == nil {
		t.Error("malformed minsup accepted")
	}
}

// buildCmd compiles this command into a temp dir and returns the binary
// path. Skipped in -short mode.
func buildCmd(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	bin := filepath.Join(t.TempDir(), "flipper")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

const toyTaxonomy = "a1\ta\na11\ta1\na12\ta1\na2\ta\na21\ta2\na22\ta2\n" +
	"b1\tb\nb11\tb1\nb12\tb1\nb2\tb\nb21\tb2\nb22\tb2\n"

const toyBaskets = `a11, a22, b11, b22
a11, a21, b11
a12, a21
a12, a22, b21
a12, a22, b21
a12, a21, b22
a21, b12
b12, b21, b22
b12, b21
a22, b12, b22
`

func writeToy(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	tax := filepath.Join(dir, "tax.tsv")
	db := filepath.Join(dir, "baskets.txt")
	if err := os.WriteFile(tax, []byte(toyTaxonomy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(db, []byte(toyBaskets), 0o644); err != nil {
		t.Fatal(err)
	}
	return tax, db
}

func TestCLIEndToEnd(t *testing.T) {
	bin := buildCmd(t)
	tax, db := writeToy(t)
	out, err := exec.Command(bin,
		"-tax", tax, "-db", db,
		"-gamma", "0.6", "-epsilon", "0.35", "-minsup", "0.1,0.1,0.1",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"1 flipping pattern(s)", "{a11, b11}", "L2 {a1, b1}"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestCLIJSONAndStream(t *testing.T) {
	bin := buildCmd(t)
	tax, db := writeToy(t)
	out, err := exec.Command(bin,
		"-tax", tax, "-db", db, "-json", "-stream",
		"-gamma", "0.6", "-epsilon", "0.35", "-minsup", "0.1,0.1,0.1",
	).Output()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var patterns []map[string]any
	if err := json.Unmarshal(out, &patterns); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if len(patterns) != 1 {
		t.Fatalf("JSON patterns = %d", len(patterns))
	}
}

func TestCLIAPIJSON(t *testing.T) {
	bin := buildCmd(t)
	tax, db := writeToy(t)
	out, err := exec.Command(bin,
		"-tax", tax, "-db", db, "-json-api",
		"-gamma", "0.6", "-epsilon", "0.35", "-minsup", "0.1,0.1,0.1",
	).Output()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The envelope is the flipperd service's completed-mine result shape.
	var res struct {
		PatternCount int              `json:"pattern_count"`
		Patterns     []map[string]any `json:"patterns"`
		Stats        map[string]any   `json:"stats"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if res.PatternCount != 1 || len(res.Patterns) != 1 {
		t.Fatalf("pattern_count = %d", res.PatternCount)
	}
	if res.Stats["transactions"] != 10.0 {
		t.Errorf("stats = %v", res.Stats)
	}
	if _, ok := res.Stats["candidates_counted"]; !ok {
		t.Errorf("stats missing core counters: %v", res.Stats)
	}
}

// TestCLISharded pins the -shards flag and the shard-directory form of -db:
// both must mine exactly what the single-file, unsharded run mines, and
// both must take effect, which the shard count in the -json-api stats shows.
func TestCLISharded(t *testing.T) {
	bin := buildCmd(t)
	tax, db := writeToy(t)
	run := func(args ...string) []byte {
		t.Helper()
		args = append(args, "-gamma", "0.6", "-epsilon", "0.35", "-minsup", "0.1,0.1,0.1")
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		return out
	}
	mine := func(args ...string) string { return string(run(append(args, "-json")...)) }
	shards := func(args ...string) float64 {
		t.Helper()
		var res struct {
			Stats map[string]any `json:"stats"`
		}
		if err := json.Unmarshal(run(append(args, "-json-api")...), &res); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		n, _ := res.Stats["shards"].(float64)
		return n
	}
	want := mine("-tax", tax, "-db", db)
	if got := mine("-tax", tax, "-db", db, "-shards", "3"); got != want {
		t.Errorf("-shards 3 diverged:\n%s\nvs\n%s", want, got)
	}
	if n := shards("-tax", tax, "-db", db, "-shards", "3"); n != 3 {
		t.Errorf("-shards 3 counted %v shards, want 3", n)
	}
	// Shard-directory form: split the baskets into per-shard files.
	lines := strings.SplitAfter(strings.TrimRight(toyBaskets, "\n"), "\n")
	shardDir := filepath.Join(t.TempDir(), "shards")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	half := len(lines) / 2
	for i, chunk := range []string{strings.Join(lines[:half], ""), strings.Join(lines[half:], "")} {
		if err := os.WriteFile(filepath.Join(shardDir, []string{"shard000.txt", "shard001.txt"}[i]), []byte(chunk), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := mine("-tax", tax, "-db", shardDir); got != want {
		t.Errorf("shard directory diverged:\n%s\nvs\n%s", want, got)
	}
	if n := shards("-tax", tax, "-db", shardDir); n != 2 {
		t.Errorf("the two-file shard directory counted %v shards, want 2", n)
	}
	if got := mine("-tax", tax, "-db", shardDir, "-stream"); got != want {
		t.Errorf("streamed shard directory diverged:\n%s\nvs\n%s", want, got)
	}
}

// TestCLIStrategyAlias pins that -strategy still accepts the names of the
// retired backends, each mining exactly what scan mines.
func TestCLIStrategyAlias(t *testing.T) {
	bin := buildCmd(t)
	tax, db := writeToy(t)
	mine := func(strategy string) string {
		t.Helper()
		out, err := exec.Command(bin, "-tax", tax, "-db", db, "-strategy", strategy, "-json",
			"-gamma", "0.6", "-epsilon", "0.35", "-minsup", "0.1,0.1,0.1").Output()
		if err != nil {
			t.Fatalf("-strategy %s: %v", strategy, err)
		}
		return string(out)
	}
	want := mine("scan")
	if !strings.Contains(want, "a11") {
		t.Fatalf("-strategy scan missed the toy pattern:\n%s", want)
	}
	for _, alias := range []string{"bitmap", "tidlist", "auto"} {
		if got := mine(alias); got != want {
			t.Errorf("-strategy %s diverged from scan:\n%s\nvs\n%s", alias, want, got)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	bin := buildCmd(t)
	tax, db := writeToy(t)
	cases := [][]string{
		{},            // missing required flags
		{"-tax", tax}, // missing -db
		{"-tax", tax, "-db", db, "-minsup", "0.1"},    // wrong level count
		{"-tax", tax, "-db", db, "-measure", "lift"},  // unknown measure
		{"-tax", tax, "-db", db, "-pruning", "bogus"}, // unknown pruning
		{"-tax", "/nonexistent", "-db", db},           // missing file
		{"-tax", tax, "-db", db, "-minsup", "0.1,0.1,0.1", "-strategy", "bogus"},
	}
	for _, args := range cases {
		if err := exec.Command(bin, args...).Run(); err == nil {
			t.Errorf("args %v: expected failure", args)
		}
	}
}

func TestCLICSVOutput(t *testing.T) {
	bin := buildCmd(t)
	tax, db := writeToy(t)
	csvPath := filepath.Join(t.TempDir(), "patterns.csv")
	out, err := exec.Command(bin,
		"-tax", tax, "-db", db, "-csv", csvPath,
		"-gamma", "0.6", "-epsilon", "0.35", "-minsup", "0.1,0.1,0.1",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.HasPrefix(text, "pattern,leaf,gap,level,items,support,corr,label\n") {
		t.Errorf("csv header: %q", strings.SplitN(text, "\n", 2)[0])
	}
	if !strings.Contains(text, "a11|b11") {
		t.Errorf("csv missing pattern rows:\n%s", text)
	}
}

func TestCLIAutoEpsilon(t *testing.T) {
	bin := buildCmd(t)
	tax, db := writeToy(t)
	// Start with a hopelessly tight ε; auto-tuning must relax it until the
	// toy pattern appears.
	out, err := exec.Command(bin,
		"-tax", tax, "-db", db,
		"-gamma", "0.6", "-epsilon", "0.01", "-minsup", "0.1,0.1,0.1",
		"-target-patterns", "1",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "auto-tuned ε") {
		t.Errorf("missing auto-tune notice:\n%s", text)
	}
	if !strings.Contains(text, "{a11, b11}") {
		t.Errorf("auto-tuned run missed the pattern:\n%s", text)
	}
}
