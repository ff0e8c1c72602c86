package golden

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/service"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// The /v1 surface is exercised over httptest against a server whose registry
// holds every committed scenario. The whole conformance choreography is
// deterministic: one worker, jobs submitted in scenario order, each waited to
// completion before the next request, so job numbering, queue counters and
// the jobs list are identical on every run (timestamps are scrubbed by
// canonicalization).

// newConformanceHandler builds a flipperd server serving every scenario as a
// registered dataset (the scenario fixture directories are flipgen-layout
// dataset directories on purpose).
func newConformanceHandler(t *testing.T) http.Handler {
	t.Helper()
	reg := service.NewRegistry()
	for i := range Scenarios() {
		sc := Scenarios()[i]
		tree, src, _ := sc.Load(t)
		if err := reg.Add(&service.Dataset{Name: sc.Name, Tree: tree, Src: src}); err != nil {
			t.Fatal(err)
		}
	}
	srv := service.NewServer(reg, service.Options{Workers: 1})
	t.Cleanup(srv.Close)
	return srv.Handler()
}

// do issues one request against the handler and returns status and body.
func do(t *testing.T, h http.Handler, method, path string, body []byte) (int, []byte) {
	t.Helper()
	rec := doRec(t, h, method, path, body)
	return rec.Code, rec.Body.Bytes()
}

// doRec is do exposing the full recorder, for tests that pin headers.
func doRec(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// patchFor renders a scenario configuration as the submit-time ConfigPatch
// that reproduces it exactly over the dataset's defaults.
func patchFor(cfg core.Config) *service.ConfigPatch {
	return &service.ConfigPatch{
		Measure:  &cfg.Measure,
		Gamma:    &cfg.Gamma,
		Epsilon:  &cfg.Epsilon,
		MinSup:   cfg.MinSup,
		Pruning:  &cfg.Pruning,
		Strategy: &cfg.Strategy,
		MaxK:     &cfg.MaxK,
		TopK:     &cfg.TopK,
	}
}

func submitBody(t *testing.T, sc *Scenario) []byte {
	t.Helper()
	raw, err := json.Marshal(service.SubmitRequest{Dataset: sc.Name, Config: patchFor(sc.Config)})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// waitDone polls a job until it leaves the queue and returns its final
// envelope.
func waitDone(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		code, body := do(t, h, "GET", "/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: status %d: %s", id, code, body)
		}
		var v struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("job envelope: %v", err)
		}
		if v.Status == "done" || v.Status == "failed" || v.Status == "cancelled" {
			return body
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

// TestHTTPConformance runs the deterministic /v1 choreography: every
// scenario submitted and mined to completion in order, then a cache-hit
// resubmission, a sweep job, and finally the suite-wide endpoint envelopes
// (jobs list, datasets, healthz, stats). Each job's final envelope is pinned
// per scenario (job.json) and its embedded result must be byte-identical to
// the core/CLI fixture (result.json) — the cross-surface conformance claim.
func TestHTTPConformance(t *testing.T) {
	h := newConformanceHandler(t)
	scs := Scenarios()
	for i := range scs {
		sc := &scs[i]
		t.Run("job/"+sc.Name, func(t *testing.T) {
			code, resp := do(t, h, "POST", "/v1/jobs", submitBody(t, sc))
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Fatalf("submit: status %d: %s", code, resp)
			}
			var submitted struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(resp, &submitted); err != nil || submitted.ID == "" {
				t.Fatalf("submit envelope has no job id: %s", resp)
			}
			final := waitDone(t, h, submitted.ID)
			var env struct {
				Status string          `json:"status"`
				Error  string          `json:"error"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(final, &env); err != nil {
				t.Fatal(err)
			}
			if env.Status != "done" {
				t.Fatalf("job finished %s: %s", env.Status, env.Error)
			}
			Compare(t, filepath.Join(sc.Dir(), "job.json"), final)

			// Cross-surface identity: the result embedded in the HTTP job
			// envelope canonicalizes to exactly the core/CLI fixture.
			gotRes, err := Canonical(env.Result)
			if err != nil {
				t.Fatal(err)
			}
			want := ReadFixture(t, filepath.Join(sc.Dir(), "result.json"))
			if !bytes.Equal(gotRes, want) {
				t.Errorf("/v1 embedded result diverges from core envelope for %s:\n%s",
					sc.Name, Diff(want, gotRes))
			}
		})
	}

	t.Run("cache-hit", func(t *testing.T) {
		// Resubmitting the first scenario verbatim must come back already
		// done and flagged cache_hit, with the identical result payload.
		code, resp := do(t, h, "POST", "/v1/jobs", submitBody(t, &scs[0]))
		if code != http.StatusOK {
			t.Fatalf("cache-hit submit: status %d: %s", code, resp)
		}
		Compare(t, filepath.Join(SuiteDir, "cache_hit.json"), resp)
	})

	t.Run("sweep", func(t *testing.T) {
		raw, err := json.Marshal(service.SubmitRequest{
			Dataset:  scs[0].Name,
			Kind:     service.JobSweep,
			Config:   patchFor(scs[0].Config),
			Epsilons: []float64{0.25 * scs[0].Config.Gamma, 0.5 * scs[0].Config.Gamma, 0.75 * scs[0].Config.Gamma},
		})
		if err != nil {
			t.Fatal(err)
		}
		code, resp := do(t, h, "POST", "/v1/jobs", raw)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("sweep submit: status %d: %s", code, resp)
		}
		var submitted struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(resp, &submitted); err != nil || submitted.ID == "" {
			t.Fatalf("sweep submit envelope has no job id: %s", resp)
		}
		Compare(t, filepath.Join(SuiteDir, "sweep.json"), waitDone(t, h, submitted.ID))
	})

	// Suite-wide envelopes, pinned after the full choreography so the jobs
	// list and every counter reflect a known, reproducible history.
	for _, ep := range []struct{ name, path string }{
		{"jobs_list", "/v1/jobs"},
		{"datasets", "/v1/datasets"},
		{"healthz", "/v1/healthz"},
		{"readyz", "/v1/readyz"},
		{"stats", "/v1/stats"},
	} {
		t.Run(ep.name, func(t *testing.T) {
			code, body := do(t, h, "GET", ep.path, nil)
			if code != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", ep.path, code, body)
			}
			Compare(t, filepath.Join(SuiteDir, ep.name+".json"), body)
		})
	}
}

// TestHTTPErrorEnvelopes pins every /v1 error path — status code and exact
// JSON error body together, wrapped as {"status": N, "body": {...}} — on a
// fresh server so nothing depends on prior jobs.
func TestHTTPErrorEnvelopes(t *testing.T) {
	h := newConformanceHandler(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
	}{
		{"unknown_dataset", "POST", "/v1/jobs", `{"dataset": "no-such-dataset"}`},
		{"malformed_body", "POST", "/v1/jobs", `{"dataset": "toy-paper",`},
		{"unknown_config_field", "POST", "/v1/jobs", `{"dataset": "toy-paper", "config": {"shards": 2}}`},
		{"invalid_config", "POST", "/v1/jobs", `{"dataset": "toy-paper", "config": {"gamma": 1.5}}`},
		{"bad_kind", "POST", "/v1/jobs", `{"dataset": "toy-paper", "kind": "train"}`},
		{"mine_with_epsilons", "POST", "/v1/jobs", `{"dataset": "toy-paper", "epsilons": [0.1]}`},
		{"sweep_no_epsilons", "POST", "/v1/jobs", `{"dataset": "toy-paper", "kind": "sweep"}`},
		{"sweep_bad_epsilon", "POST", "/v1/jobs", `{"dataset": "toy-paper", "kind": "sweep", "epsilons": [5]}`},
		{"bad_timeout", "POST", "/v1/jobs", `{"dataset": "toy-paper", "timeout_ms": -5}`},
		{"unknown_job", "GET", "/v1/jobs/job-999999", ""},
		{"cancel_unknown_job", "DELETE", "/v1/jobs/job-999999", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, h, tc.method, tc.path, []byte(tc.body))
			if code < 400 {
				t.Fatalf("expected an error status, got %d: %s", code, body)
			}
			wrapped := fmt.Sprintf("{\"status\": %d, \"body\": %s}", code, body)
			Compare(t, filepath.Join(SuiteDir, "errors", tc.name+".json"), []byte(wrapped))
		})
	}
}

// gateSource wraps an in-memory database so its first Scan parks until
// released: the job occupying the single worker is frozen mid-mine, making
// the queue-full 503 deterministic instead of a race against fast toy mines.
type gateSource struct {
	*txdb.DB
	entered chan struct{}
	release chan struct{}
}

func (g *gateSource) Scan(fn func(tx itemset.Set) error) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	return g.DB.Scan(fn)
}

// TestHTTPQueueFullEnvelope pins the 503 envelope: a one-worker,
// depth-one server whose running job is gated mid-scan, a second job
// filling the queue, and a third deterministically rejected.
func TestHTTPQueueFullEnvelope(t *testing.T) {
	sc := Scenarios()[0]
	tree, _, _ := sc.Load(t)
	db := txdb.New(tree.Dict())
	db.AddNames("a11", "b11")
	gs := &gateSource{
		DB:      db,
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	reg := service.NewRegistry()
	if err := reg.Add(&service.Dataset{Name: "gate", Tree: tree, Src: gs}); err != nil {
		t.Fatal(err)
	}
	srv := service.NewServer(reg, service.Options{Workers: 1, QueueDepth: 1})
	defer srv.Close()
	defer close(gs.release)
	h := srv.Handler()

	submit := func(epsilon float64) (int, []byte) {
		body := fmt.Sprintf(`{"dataset": "gate", "config": {"epsilon": %g}}`, epsilon)
		return do(t, h, "POST", "/v1/jobs", []byte(body))
	}
	if code, body := submit(0.05); code != http.StatusAccepted {
		t.Fatalf("gate job: status %d: %s", code, body)
	}
	select {
	case <-gs.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("gated job never started scanning")
	}
	if code, body := submit(0.15); code != http.StatusAccepted {
		t.Fatalf("filler job: status %d: %s", code, body)
	}
	rec := doRec(t, h, "POST", "/v1/jobs", []byte(`{"dataset": "gate", "config": {"epsilon": 0.2}}`))
	code, body := rec.Code, rec.Body.Bytes()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("expected 503, got %d: %s", code, body)
	}
	// The Retry-After hint is part of the pinned envelope: load-shedding
	// without it invites hot-looping clients.
	wrapped := fmt.Sprintf("{\"status\": %d, \"retry_after\": %q, \"body\": %s}",
		code, rec.Header().Get("Retry-After"), body)
	Compare(t, filepath.Join(SuiteDir, "errors", "queue_full.json"), []byte(wrapped))
}

// TestHTTPCancelEnvelopes pins the DELETE /v1/jobs/{id} choreography on a
// gated one-worker server: cancelling a queued job (finalized instantly),
// cancelling the running job (acknowledged, then finalized once the miner
// observes the context), the final cancelled job envelope, and the 409 for
// re-cancelling a finished job.
func TestHTTPCancelEnvelopes(t *testing.T) {
	sc := Scenarios()[0]
	tree, _, _ := sc.Load(t)
	db := txdb.New(tree.Dict())
	db.AddNames("a11", "b11")
	gs := &gateSource{
		DB:      db,
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	reg := service.NewRegistry()
	if err := reg.Add(&service.Dataset{Name: "gate", Tree: tree, Src: gs}); err != nil {
		t.Fatal(err)
	}
	srv := service.NewServer(reg, service.Options{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	h := srv.Handler()

	submit := func(epsilon float64) string {
		t.Helper()
		body := fmt.Sprintf(`{"dataset": "gate", "config": {"epsilon": %g}}`, epsilon)
		code, resp := do(t, h, "POST", "/v1/jobs", []byte(body))
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d: %s", code, resp)
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(resp, &v); err != nil || v.ID == "" {
			t.Fatalf("submit envelope has no job id: %s", resp)
		}
		return v.ID
	}

	running := submit(0.05)
	select {
	case <-gs.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("gated job never started scanning")
	}
	queued := submit(0.15)

	code, body := do(t, h, "DELETE", "/v1/jobs/"+queued, nil)
	if code != http.StatusOK {
		t.Fatalf("cancel queued: status %d: %s", code, body)
	}
	Compare(t, filepath.Join(SuiteDir, "cancel_queued.json"), body)

	code, body = do(t, h, "DELETE", "/v1/jobs/"+running, nil)
	if code != http.StatusOK {
		t.Fatalf("cancel running: status %d: %s", code, body)
	}
	Compare(t, filepath.Join(SuiteDir, "cancel_running.json"), body)

	// Unblock the gated scan; the miner hits its next checkpoint, observes
	// the cancelled context and the job finalizes as cancelled.
	close(gs.release)
	final := waitDone(t, h, running)
	Compare(t, filepath.Join(SuiteDir, "job_cancelled.json"), final)

	code, body = do(t, h, "DELETE", "/v1/jobs/"+running, nil)
	if code != http.StatusConflict {
		t.Fatalf("cancel finished: status %d: %s", code, body)
	}
	wrapped := fmt.Sprintf("{\"status\": %d, \"body\": %s}", code, body)
	Compare(t, filepath.Join(SuiteDir, "errors", "cancel_finished.json"), []byte(wrapped))
}
