package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/datasets"
)

// awkward holds item names that JSON encoding must escape: the HTML-unsafe
// <, > and &, the JavaScript line terminators U+2028 and U+2029, a quote, a
// backslash and control characters, beside plain non-ASCII text.
var awkward = []string{"<b>&amp;", "line\u2028para\u2029end", `say "hi"`, `C:\dir`, "tab\tnl\n", "naïve 日本語 ü"}

// TestWriteJobMatchesEncoder pins writeJob's bytes: for every job state,
// a job envelope whose result is stored in envelope form writes exactly
// what writeJSON's indenting encoder writes for the same view with its
// result compact, as json.Marshal made it.
func TestWriteJobMatchesEncoder(t *testing.T) {
	created := time.Date(2026, 3, 14, 15, 9, 26, 535897932, time.FixedZone("X", 3600))
	started := created.Add(1500 * time.Microsecond)
	finished := started.Add(42 * time.Millisecond)
	cfg := core.DefaultConfig(3)
	anchored := cfg
	anchored.Anchor, anchored.AnchorTopK = awkward[0], 5

	mine := core.ResultJSON{
		PatternCount: 2,
		Patterns: []core.PatternJSON{
			{Leaf: awkward[:3], Gap: 0.25, Chain: []core.LevelJSON{
				{Level: 1, Items: awkward[3:], Support: 7, Corr: 0.75, Label: "+"},
				{Level: 2, Items: awkward[:3], Support: 3, Corr: 1.0 / 3, Label: "-"},
			}},
			{Leaf: []string{}, Gap: 1e-9, Chain: []core.LevelJSON{}},
		},
		Stats: core.StatsJSON{Transactions: 10, Height: 3, DBScans: 4, Elapsed: "1.5ms"},
	}
	empty := core.ResultJSON{Patterns: []core.PatternJSON{}}
	sweep := sweepResult{Points: []core.EpsilonPoint{{Epsilon: 0.1, Patterns: 3}, {Epsilon: 0.35, Patterns: 0}}}

	cases := []struct {
		name   string
		status int
		view   JobView
		result any // nil: the view carries no result
	}{
		{"queued", http.StatusAccepted, JobView{ID: "job-000001", Kind: JobMine, Dataset: "toy", Config: cfg, Status: StatusQueued, Created: created}, nil},
		{"queued with timeout", http.StatusAccepted, JobView{ID: "job-000002", Kind: JobMine, Dataset: "toy", Config: cfg, Status: StatusQueued, Created: created, TimeoutMS: 900000}, nil},
		{"running", http.StatusAccepted, JobView{ID: "job-000003", Kind: JobMine, Dataset: "toy", Config: cfg, Status: StatusRunning, Created: created, Started: &started, TimeoutMS: 250}, nil},
		{"done", http.StatusOK, JobView{ID: "job-000004", Kind: JobMine, Dataset: "toy", Config: cfg, Status: StatusDone, Created: created, Started: &started, Finished: &finished, ElapsedNS: finished.Sub(started).Nanoseconds()}, mine},
		{"done with timeout", http.StatusOK, JobView{ID: "job-000005", Kind: JobMine, Dataset: "toy", Config: cfg, Status: StatusDone, Created: created, Started: &started, Finished: &finished, ElapsedNS: 1, TimeoutMS: 900000}, mine},
		{"done, no patterns", http.StatusOK, JobView{ID: "job-000006", Kind: JobMine, Dataset: "toy", Config: cfg, Status: StatusDone, Created: created, Started: &started, Finished: &finished, ElapsedNS: 1}, empty},
		{"cache hit", http.StatusOK, JobView{ID: "job-000007", Kind: JobMine, Dataset: "toy", Config: cfg, Status: StatusDone, CacheHit: true, Created: created, Started: &created, Finished: &created, TimeoutMS: 900000}, mine},
		{"anchored cache hit", http.StatusOK, JobView{ID: "job-000008", Kind: JobMine, Dataset: awkward[1], Config: anchored, Status: StatusDone, CacheHit: true, Created: created, Started: &created, Finished: &created}, mine},
		{"failed", http.StatusOK, JobView{ID: "job-000009", Kind: JobMine, Dataset: "toy", Config: cfg, Status: StatusFailed, Error: "service: job panicked: " + strings.Join(awkward, " "), Created: created, Started: &started, Finished: &finished, ElapsedNS: 7}, nil},
		{"cancelled while queued", http.StatusOK, JobView{ID: "job-000010", Kind: JobMine, Dataset: "toy", Config: cfg, Status: StatusCancelled, Error: "cancelled", Created: created, Finished: &finished}, nil},
		{"cancelled at its timeout", http.StatusAccepted, JobView{ID: "job-000011", Kind: JobMine, Dataset: "toy", Config: cfg, Status: StatusCancelled, Error: "job timeout (250ms) exceeded", Created: created, Started: &started, Finished: &finished, ElapsedNS: 250000000, TimeoutMS: 250}, nil},
		{"sweep queued", http.StatusAccepted, JobView{ID: "job-000012", Kind: JobSweep, Dataset: "toy", Config: cfg, Epsilons: []float64{0.35, 0.1}, Status: StatusQueued, Created: created, TimeoutMS: 900000}, nil},
		{"sweep done", http.StatusOK, JobView{ID: "job-000013", Kind: JobSweep, Dataset: "toy", Config: cfg, Epsilons: []float64{0.35, 0.1}, Status: StatusDone, Created: created, Started: &started, Finished: &finished, ElapsedNS: 3}, sweep},
		{"sweep cache hit", http.StatusOK, JobView{ID: "job-000014", Kind: JobSweep, Dataset: "toy", Config: cfg, Epsilons: []float64{0.35, 0.1}, Status: StatusDone, CacheHit: true, Created: created, Started: &created, Finished: &created}, sweep},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compact, stored := tc.view, tc.view
			if tc.result != nil {
				raw, err := json.Marshal(tc.result)
				if err != nil {
					t.Fatal(err)
				}
				compact.Result = raw
				if stored.Result, err = envelopeForm(raw); err != nil {
					t.Fatal(err)
				}
			}
			want := httptest.NewRecorder()
			writeJSON(want, tc.status, compact)
			got := httptest.NewRecorder()
			writeJob(got, tc.status, stored)
			if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Errorf("status %d %q, want %d %q", got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("writeJob wrote\n%s\nwant\n%s", got.Body, want.Body)
			}
		})
	}
}

// TestServedEnvelopesMatchEncoder drives every route that writes a job
// envelope over HTTP — submissions of a mine and a sweep, their polls and
// cache hits, and top-K queries — and checks each body byte for byte
// against writeJSON's encoding of the job it decodes to, with its result
// compacted: what the queue stores must be the result's envelope form.
func TestServedEnvelopesMatchEncoder(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	check := func(what string, body []byte) JobView {
		t.Helper()
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s: %v\n%s", what, err, body)
		}
		compact := v
		if len(v.Result) > 0 {
			var b bytes.Buffer
			if err := json.Compact(&b, v.Result); err != nil {
				t.Fatal(err)
			}
			compact.Result = b.Bytes()
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, compact)
		if !bytes.Equal(body, want.Body.Bytes()) {
			t.Errorf("%s wrote\n%s\nwant\n%s", what, body, want.Body)
		}
		return v
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, job := range []string{
		`{"dataset": "toy", "config": ` + toyPatch + `}`,
		`{"dataset": "toy", "kind": "sweep", "epsilons": [0.1, 0.35], "config": ` + toyPatch + `, "timeout_ms": 60000}`,
	} {
		_, body := post(t, ts, "/v1/jobs", job)
		v := check("submit "+job, body)
		for !v.Status.finished() {
			time.Sleep(time.Millisecond)
			v = check("poll "+v.ID, get("/v1/jobs/"+v.ID))
		}
		if v.Status != StatusDone || len(v.Result) == 0 {
			t.Fatalf("job %s: %s %s", v.ID, v.Status, v.Error)
		}
		_, body = post(t, ts, "/v1/jobs", job)
		if hit := check("cache hit "+job, body); !hit.CacheHit {
			t.Errorf("resubmitted %s: not a cache hit", job)
		}
	}
	check("topk", get("/v1/topk?dataset=toy&anchor=a1&k=2"))
	_, body := post(t, ts, "/v1/topk", `{"dataset": "toy", "anchor": "b1", "k": 1, "config": `+toyPatch+`}`)
	check("topk POST", body)
}

// TestJobResponseKeepsItsJob re-asks one cached question from several
// clients at once under a history of one job, on both routes that submit.
// Each cache hit finishes as it is registered, so the next hit can prune it
// at once; every answer must still be the whole job it reports.
func TestJobResponseKeepsItsJob(t *testing.T) {
	toy := datasets.PaperToy()
	reg := NewRegistry()
	if err := reg.AddMemory("toy", toy.DB, toy.Tree); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Options{JobHistory: 1})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	routes := []struct {
		name string
		req  func() *http.Request
	}{
		{"POST /v1/jobs", func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"dataset": "toy", "config": `+toyPatch+`}`))
		}},
		{"GET /v1/topk", func() *http.Request {
			return httptest.NewRequest(http.MethodGet, "/v1/topk?dataset=toy&anchor=a1&k=2", nil)
		}},
	}
	for _, route := range routes {
		t.Run(route.name, func(t *testing.T) {
			// The first answer mines and fills the cache.
			first := httptest.NewRecorder()
			h.ServeHTTP(first, route.req())
			var v JobView
			if err := json.Unmarshal(first.Body.Bytes(), &v); err != nil || v.ID == "" {
				t.Fatalf("first answer: %d %s", first.Code, first.Body)
			}
			for deadline := time.Now().Add(10 * time.Second); !v.Status.finished(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("job %s did not finish", v.ID)
				}
				v, _ = srv.Queue().Get(v.ID)
			}
			const clients, asks = 4, 200
			var mu sync.Mutex
			bad := 0
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < asks; i++ {
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, route.req())
						var v JobView
						err := json.Unmarshal(rec.Body.Bytes(), &v)
						if err == nil && rec.Code == http.StatusOK && v.Status == StatusDone && v.ID != "" &&
							len(v.Result) > 0 && rec.Header().Get("Location") == "/v1/jobs/"+v.ID {
							continue
						}
						mu.Lock()
						if bad++; bad == 1 {
							t.Errorf("answer %d: %s (Location %q)", rec.Code, rec.Body, rec.Header().Get("Location"))
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			if bad > 0 {
				t.Errorf("%d of %d answers lost their job", bad, clients*asks)
			}
		})
	}
}
