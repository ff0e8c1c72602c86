package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// flipperBin is the flipper CLI built once for the cli-cold tests.
var flipperBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "flipload-test-")
	if err != nil {
		panic(err)
	}
	flipperBin = filepath.Join(dir, "flipper")
	build := exec.Command("go", "build", "-o", flipperBin, "./cmd/flipper")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building flipper: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyRun runs a workload on inputs a tenth of the benchmark's size, with
// one set-up and the shortest window minOps allows.
func tinyRun(t *testing.T, workload string, trace bool, wrap func(http.Handler) http.Handler) *result {
	t.Helper()
	o := options{
		workload: workload,
		seed:     3,
		seconds:  0.05,
		trace:    trace,
		flipper:  flipperBin,
		workDir:  t.TempDir(),
		scale:    0.1,
		setups:   1,
		wrap:     wrap,
	}
	if trace {
		o.traceOut = filepath.Join(o.workDir, "spans.jsonl")
	}
	res, err := run(o)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res
}

func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w.Name, trace, nil)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, declared %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a number in %s", w.Name, trace, d.Name, m, d.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

// TestCorruptedResultIsAFailure flips one digit in every third job envelope
// flipperd sends: those operations must fail their output check.
func TestCorruptedResultIsAFailure(t *testing.T) {
	var n atomic.Int64
	corrupt := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			key := []byte(`"db_scans":`)
			if i := bytes.Index(body, key); i >= 0 && n.Add(1)%3 == 0 {
				j := i + len(key)
				for body[j] == ' ' {
					j++
				}
				body[j] = '0' + (body[j]-'0'+1)%10
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
	res := tinyRun(t, "explore-synth", false, corrupt)
	if res.Failed == 0 || res.Correct {
		t.Fatalf("corrupted results passed: failed=%d of %d, correct=%v", res.Failed, res.Attempted, res.Correct)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Error("p90 of 99 samples has 9.9 beyond it; want a refusal")
	}
	if v, err := percentile(append(xs, 100), 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if v, err := percentile([]float64{7}, 0.5); err != nil || v != 7 {
		t.Errorf("median of one sample = %v, %v; want 7", v, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{StartNS: 0, EndNS: 100}
	kids := []span{{StartNS: 10, EndNS: 30}, {StartNS: 20, EndNS: 40}, {StartNS: 90, EndNS: 120}}
	if got := selfTime(parent, kids); got != 60 {
		t.Errorf("self time = %d, want 100 - (30 + 10) = 60", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lat := metricDef{Name: "op_ms.p50", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := func(wins int) []float64 {
		out := make([]float64, len(steady))
		for i, b := range steady {
			out[i] = b * 0.9
			if i >= wins {
				out[i] = b * 1.01
			}
		}
		return out
	}
	cases := []struct {
		name         string
		d            metricDef
		base, change []float64
		want         string
	}{
		{"nine of ten wins and a clear delta", lat, steady, faster(9), "improved"},
		{"eight of ten wins", lat, steady, faster(8), "unchanged"},
		{"nine wins of nine pairs is too few pairs", lat, steady[:9], faster(9)[:9], "unchanged"},
		{"ties count for neither side", lat, steady, steady, "unchanged"},
		{"worse by more than the bound", lat, steady, scale(steady, 1.12), "regressed"},
		{"worse within the bound", lat, steady, scale(steady, 1.05), "unchanged"},
		{"spread wider than the bound", lat, []float64{80, 120, 90, 110, 100, 70, 130, 100, 95, 105}, steady, "unresolved"},
		{"spread wider, every change run better", lat, []float64{80, 120, 90, 110, 100, 85, 130, 100, 95, 105}, scale(steady, 0.7), "improved"},
		{"error rate rose", metricDef{Name: errorRate, Better: "lower"}, make([]float64, 10), append(make([]float64, 9), 0.01), "regressed"},
		{"higher is better", metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}, steady, scale(steady, 0.85), "regressed"},
	}
	for _, c := range cases {
		if v := judge(c.d, c.base, c.change); v.verdict != c.want {
			t.Errorf("%s: verdict %s (wins %d/%d), want %s", c.name, v.verdict, v.wins, v.pairs, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareReadsRunOutputs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		res := result{Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{Value: 10, Unit: d.Unit}
		}
		res.Metrics["op_ms.p50"] = metricValue{Value: p50, Unit: "ms"}
		line, _ := json.Marshal(res)
		path := filepath.Join(dir, name)
		body := `{"bench":"flipload","workload":"serve-hot","trace":0}` + "\n# report\n" + string(line) + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var base, change []string
	for i := 0; i < 10; i++ {
		base = append(base, write(fmt.Sprintf("base%d", i), 10, 0))
		change = append(change, write(fmt.Sprintf("change%d", i), 8, 0))
	}
	join := func(paths []string) string { return strings.Join(paths, ",") }
	var out, errOut bytes.Buffer
	args := []string{"-base", join(base), "-change", join(change), "-claim", "serve-hot:op_ms.p50"}
	if code := compareMain(args, &out, &errOut); code != 0 {
		t.Fatalf("claim of a 20%% faster p50: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	change[3] = write("failed", 8, 1)
	if code := compareMain([]string{"-base", join(base), "-change", join(change)}, &out, &errOut); code != 1 {
		t.Fatalf("a failed operation in the change must regress error_rate: exit %d\n%s", code, out.String())
	}
}

// TestDefinitionsMatchBenchmarkJSON keeps BENCHMARK.json, which the tools
// driving the benchmark read, in step with the definitions in this package.
func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, bench %+v", i, b.Workloads[i], w)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the bench %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, bench %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
