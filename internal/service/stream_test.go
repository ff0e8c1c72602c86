package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newDirServer serves the data directory loaded the way flipperd -stream
// (stream set) or plain flipperd loads it.
func newDirServer(t *testing.T, dir string, stream bool) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir, stream); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestLoadingModeIsNoConfigField pins the wire side of "streaming comes from
// the source": the retired materialize and keep_cell_stats knobs are
// unknown fields that answer 400 before any job is queued, while every
// strategy name — scan's and the retired backends' — mines, sweeps and
// answers top-K queries over a dataset loaded with -stream exactly as over
// its in-memory twin.
func TestLoadingModeIsNoConfigField(t *testing.T) {
	dir := writeDataDir(t)
	// answers[stream] maps each accepted request to its result, stats aside:
	// the loading mode charges other scans and probes.
	var answers [2]map[string]string
	for i, stream := range []bool{false, true} {
		srv, ts := newDirServer(t, dir, stream)
		for _, tc := range []struct{ path, body string }{
			{"/v1/jobs", `{"dataset": "toy", "config": {"materialize": true}}`},
			{"/v1/jobs", `{"dataset": "toy", "config": {"materialize": false}}`},
			{"/v1/jobs", `{"dataset": "toy", "config": {"keep_cell_stats": true}}`},
			{"/v1/topk", `{"dataset": "toy", "anchor": "a1", "k": 2, "config": {"materialize": false}}`},
			{"/v1/topk", `{"dataset": "toy", "anchor": "a1", "k": 2, "config": {"keep_cell_stats": true}}`},
		} {
			if status, body := post(t, ts, tc.path, tc.body); status != http.StatusBadRequest {
				t.Errorf("stream=%v %s %s: status %d (%s), want 400", stream, tc.path, tc.body, status, body)
			}
		}
		if jobs := srv.Queue().List(); len(jobs) != 0 {
			t.Fatalf("stream=%v: rejected requests queued %d jobs", stream, len(jobs))
		}
		answers[i] = map[string]string{}
		for _, strategy := range []string{"scan", "bitmap", "auto", "tidlist"} {
			cfg := `{"strategy": "` + strategy + `", "gamma": 0.6, "epsilon": 0.35, "min_sup": [0.1, 0.1, 0.1]}`
			for _, tc := range []struct{ path, body string }{
				{"/v1/jobs", `{"dataset": "toy", "config": ` + cfg + `}`},
				{"/v1/jobs", `{"dataset": "toy", "kind": "sweep", "epsilons": [0.3], "config": ` + cfg + `}`},
				{"/v1/topk", `{"dataset": "toy", "anchor": "a1", "k": 2, "config": ` + cfg + `}`},
			} {
				status, body := post(t, ts, tc.path, tc.body)
				var v JobView
				if status != http.StatusOK && status != http.StatusAccepted || json.Unmarshal(body, &v) != nil {
					t.Fatalf("stream=%v %s %s: status %d (%s)", stream, tc.path, tc.body, status, body)
				}
				if v.Status != StatusDone {
					v = pollDone(t, ts, v.ID)
				}
				var res map[string]json.RawMessage
				if v.Status != StatusDone || json.Unmarshal(v.Result, &res) != nil {
					t.Fatalf("stream=%v %s %s: job %s: %s", stream, tc.path, tc.body, v.Status, v.Error)
				}
				if v.Config.Strategy.String() != "scan" {
					t.Errorf("stream=%v %s %s: echoes strategy %v, want scan", stream, tc.path, tc.body, v.Config.Strategy)
				}
				delete(res, "stats")
				out, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				answers[i][tc.path+" "+tc.body] = string(out)
			}
		}
	}
	for req, want := range answers[0] {
		if got := answers[1][req]; got != want {
			t.Errorf("%s: the streamed dataset answered\n%s\nthe in-memory one\n%s", req, got, want)
		}
	}
}

// TestTopKStreamedMatchesInMemory pins anchored top-K across the loading
// modes: a streamed dataset answers through the exact full mine plus a
// chain filter, an in-memory one through the anchored search, and both
// return the same ranked patterns.
func TestTopKStreamedMatchesInMemory(t *testing.T) {
	dir := writeDataDir(t)
	type answer struct {
		Status string `json:"status"`
		Result struct {
			PatternCount int             `json:"pattern_count"`
			Patterns     json.RawMessage `json:"patterns"`
		} `json:"result"`
	}
	var got [2]answer
	for i, stream := range []bool{false, true} {
		_, ts := newDirServer(t, dir, stream)
		status, body := post(t, ts, "/v1/topk",
			`{"dataset": "toy", "anchor": "a1", "k": 2, "config": {"gamma": 0.6, "epsilon": 0.35, "min_sup": [0.1, 0.1, 0.1]}}`)
		if status != http.StatusOK {
			t.Fatalf("stream=%v: status %d: %s", stream, status, body)
		}
		if err := json.Unmarshal(body, &got[i]); err != nil {
			t.Fatal(err)
		}
		if got[i].Status != string(StatusDone) {
			t.Fatalf("stream=%v: query %s: %s", stream, got[i].Status, body)
		}
	}
	if got[0].Result.PatternCount == 0 {
		t.Fatal("the in-memory query found no pattern; the comparison would be vacuous")
	}
	if got[0].Result.PatternCount != got[1].Result.PatternCount || string(got[0].Result.Patterns) != string(got[1].Result.Patterns) {
		t.Fatalf("streamed top-K diverged from the in-memory twin:\n%s\nvs\n%s", got[0].Result.Patterns, got[1].Result.Patterns)
	}
}
