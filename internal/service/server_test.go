package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/flipper-mining/flipper/internal/datasets"
)

// toyPatch is the paper-toy threshold overlay (Figure 4: γ=0.6, ε=0.35).
const toyPatch = `{"gamma": 0.6, "epsilon": 0.35, "min_sup": [0.1, 0.1, 0.1]}`

// newTestServer serves the paper's Figure-4 toy dataset.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	toy := datasets.PaperToy()
	reg := NewRegistry()
	if err := reg.AddMemory("toy", toy.DB, toy.Tree); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (int, JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode job: %v", err)
		}
	}
	return resp.StatusCode, v
}

// pollDone polls GET /v1/jobs/{id} over HTTP until the job leaves the queue.
func pollDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job: %v", err)
		}
		if v.Status == StatusDone || v.Status == StatusFailed {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, v := submit(t, ts, `{"dataset": "toy", "config": `+toyPatch+`}`)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit status = %d", status)
	}
	if v.ID == "" || v.Dataset != "toy" || v.Kind != JobMine {
		t.Fatalf("job view = %+v", v)
	}
	done := pollDone(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	var res struct {
		PatternCount int `json:"pattern_count"`
		Patterns     []struct {
			Leaf []string `json:"leaf"`
		} `json:"patterns"`
		Stats struct {
			Transactions int   `json:"transactions"`
			DBScans      int64 `json:"db_scans"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("result not JSON: %v", err)
	}
	if res.PatternCount != 1 || len(res.Patterns) != 1 {
		t.Fatalf("pattern_count = %d, want the toy's single flip", res.PatternCount)
	}
	if got := fmt.Sprint(res.Patterns[0].Leaf); got != "[a11 b11]" {
		t.Errorf("leaf = %s, want [a11 b11]", got)
	}
	if res.Stats.Transactions != 10 || res.Stats.DBScans == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

// TestCacheHitIsByteIdentical: the first poll of a finished job and two
// later cache hits of its configuration carry the same result bytes.
func TestCacheHitIsByteIdentical(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	body := `{"dataset": "toy", "config": ` + toyPatch + `}`
	_, first := submit(t, ts, body)
	firstDone := pollDone(t, ts, first.ID)

	for hit := 1; hit <= 2; hit++ {
		status, again := submit(t, ts, body)
		if status != http.StatusOK {
			t.Fatalf("hit %d: submit status = %d, want 200 (cache hit)", hit, status)
		}
		if !again.CacheHit || again.Status != StatusDone {
			t.Fatalf("hit %d: job = %+v, want done cache hit", hit, again)
		}
		if again.ID == first.ID {
			t.Fatalf("cache hit reused job id %s", first.ID)
		}
		if !bytes.Equal(firstDone.Result, again.Result) {
			t.Errorf("hit %d: result differs:\n%s\nvs\n%s", hit, firstDone.Result, again.Result)
		}
	}
	cs := srv.Cache().Stats()
	if cs.Hits != 2 || cs.Misses != 1 {
		t.Errorf("cache stats = %+v, want 2 hits / 1 miss", cs)
	}
}

func TestCacheKeyIgnoresFieldOrderAndExecutionKnobs(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// Same configuration three ways: permuted JSON fields, and changed
	// execution knobs (parallelism, cell stats) that don't affect output.
	bodies := []string{
		`{"dataset": "toy", "config": {"gamma": 0.6, "epsilon": 0.35, "min_sup": [0.1, 0.1, 0.1]}}`,
		`{"dataset": "toy", "config": {"min_sup": [0.1, 0.1, 0.1], "epsilon": 0.35, "gamma": 0.6}}`,
		`{"dataset": "toy", "config": {"epsilon": 0.35, "parallelism": 3, "gamma": 0.6, "min_sup": [0.1, 0.1, 0.1]}}`,
	}
	_, first := submit(t, ts, bodies[0])
	pollDone(t, ts, first.ID)
	for _, body := range bodies[1:] {
		status, v := submit(t, ts, body)
		if status != http.StatusOK || !v.CacheHit {
			t.Errorf("body %s: status %d cacheHit=%v, want a cache hit", body, status, v.CacheHit)
		}
	}
	// A semantically different config must miss.
	status, v := submit(t, ts, `{"dataset": "toy", "config": {"gamma": 0.6, "epsilon": 0.2, "min_sup": [0.1, 0.1, 0.1]}}`)
	if status == http.StatusOK && v.CacheHit {
		t.Error("different epsilon unexpectedly hit the cache")
	}
}

// TestStrategyIsNoCacheField exercises the strategy names over the wire:
// every accepted name counts by scan, so a request that differs from an
// earlier one only in "strategy" hits the earlier one's cache slot, and its
// job echoes "scan" with the toy's single flipping pattern.
func TestStrategyIsNoCacheField(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := func(strategy string) string {
		return `{"dataset": "toy", "config": {"gamma": 0.6, "epsilon": 0.35, "min_sup": [0.1, 0.1, 0.1], "strategy": "` + strategy + `"}}`
	}
	status, v := submit(t, ts, body("scan"))
	if status == http.StatusOK && v.CacheHit {
		t.Fatal("the first request hit the cache")
	}
	pollDone(t, ts, v.ID)
	for _, strategy := range []string{"bitmap", "auto", "bits", "tidlist", "tid"} {
		status, v := submit(t, ts, body(strategy))
		if status != http.StatusOK || !v.CacheHit {
			t.Fatalf("%q after an equal scan request: status %d cacheHit=%v, want a cache hit", strategy, status, v.CacheHit)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var job struct {
			Config struct {
				Strategy string `json:"strategy"`
			} `json:"config"`
			Result struct {
				PatternCount int `json:"pattern_count"`
			} `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.Config.Strategy != "scan" || job.Result.PatternCount != 1 {
			t.Errorf("%q job echoes strategy %q with %d patterns, want \"scan\" with 1", strategy, job.Config.Strategy, job.Result.PatternCount)
		}
	}
}

func TestSweepJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"dataset": "toy", "kind": "sweep", "epsilons": [0.1, 0.35, 0.2], "config": ` + toyPatch + `}`
	status, v := submit(t, ts, body)
	if status != http.StatusAccepted {
		t.Fatalf("sweep submit status = %d", status)
	}
	done := pollDone(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("sweep failed: %s", done.Error)
	}
	var res struct {
		Points []struct {
			Epsilon  float64 `json:"epsilon"`
			Patterns int     `json:"patterns"`
		} `json:"points"`
	}
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 || res.Points[0].Epsilon != 0.35 {
		t.Fatalf("sweep points = %+v, want 3 points descending from 0.35", res.Points)
	}
	if res.Points[0].Patterns < 1 {
		t.Errorf("loosest ε found no patterns: %+v", res.Points)
	}

	// The same sweep with the ε list permuted is the same work: cache hit.
	status, v = submit(t, ts, `{"dataset": "toy", "kind": "sweep", "epsilons": [0.35, 0.2, 0.1], "config": `+toyPatch+`}`)
	if status != http.StatusOK || !v.CacheHit {
		t.Errorf("permuted sweep: status %d cacheHit=%v, want a cache hit", status, v.CacheHit)
	}
}

func TestSubmitErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		body string
		want int
	}{
		{`{"dataset": "nope"}`, http.StatusNotFound},
		{`{"dataset": "toy", "kind": "bogus"}`, http.StatusBadRequest},
		{`{"dataset": "toy", "config": {"gamma": 0.2, "epsilon": 0.5}}`, http.StatusBadRequest}, // ε ≥ γ
		{`{"dataset": "toy", "config": {"min_sup": [0.1]}}`, http.StatusBadRequest},             // wrong level count
		{`{"dataset": "toy", "kind": "sweep"}`, http.StatusBadRequest},                          // no epsilons
		{`{"dataset": "toy", "kind": "sweep", "epsilons": [0.9]}`, http.StatusBadRequest},       // ε ≥ γ
		{`{"dataset": "toy", "epsilons": [0.1, 0.2]}`, http.StatusBadRequest},                   // epsilons on a mine
		{`{"dataset": "toy", "config": {"measure": "lift"}}`, http.StatusBadRequest},            // unknown measure
		{`{"dataset": "toy", "unknown_field": 1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, _ := submit(t, ts, tc.body)
		if status != tc.want {
			t.Errorf("body %s: status = %d, want %d", tc.body, status, tc.want)
		}
	}
}

func TestDatasetsHealthzStats(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var dl struct {
		Datasets []Info `json:"datasets"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dl)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(dl.Datasets) != 1 || dl.Datasets[0].Name != "toy" ||
		dl.Datasets[0].Transactions != 10 || dl.Datasets[0].Height != 3 {
		t.Fatalf("datasets = %+v", dl.Datasets)
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]string
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil || hz["status"] != "ok" {
		t.Fatalf("healthz = %v (err %v)", hz, err)
	}

	// Run one job, then check it shows up in /v1/stats with core counters.
	_, v := submit(t, ts, `{"dataset": "toy", "config": `+toyPatch+`}`)
	pollDone(t, ts, v.ID)
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsBody
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Datasets != 1 || st.Queue.MinesRun != 1 || st.Queue.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].Stats == nil || st.Jobs[0].Stats.CandidatesCounted == 0 {
		t.Fatalf("per-job stats missing: %+v", st.Jobs)
	}
	if st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 miss", st.Cache)
	}
}

func TestJobNotFoundAndList(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d", resp.StatusCode)
	}

	_, v := submit(t, ts, `{"dataset": "toy", "config": `+toyPatch+`}`)
	pollDone(t, ts, v.ID)
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jl struct {
		Jobs []JobView `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&jl)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(jl.Jobs) != 1 || jl.Jobs[0].ID != v.ID || jl.Jobs[0].Result != nil {
		t.Errorf("job list = %+v, want one payload-free entry", jl.Jobs)
	}
}
