package golden

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/flipper-mining/flipper/internal/core"
)

// The anchored top-K surface is pinned on the topk-cosine scenario's dataset
// (no new scenario row: the /v1 conformance choreography numbers jobs by
// scenario order, so riding an existing dataset keeps those fixtures
// untouched). Three envelopes are committed: the core anchored result
// (topk_result.json, also what `flipper -anchor -json-api` must print), the
// /v1/topk 200 job envelope (topk.json), and the endpoint's error bodies.

// anchoredScenario returns the topk-cosine scenario and the anchored
// configuration the fixtures pin: the scenario's canonical config with the
// global top-K knob swapped for an anchor at level 2 of the paper's toy
// taxonomy.
func anchoredScenario(t *testing.T) (*Scenario, core.Config) {
	t.Helper()
	for _, sc := range Scenarios() {
		if sc.Name == "topk-cosine" {
			_, _, cfg := sc.Load(t)
			cfg.TopK = 0
			cfg.Anchor = "a1"
			cfg.AnchorTopK = 2
			return &sc, cfg
		}
	}
	t.Fatal("topk-cosine scenario missing")
	return nil, core.Config{}
}

// anchoredCoreEnvelope mines the anchored configuration in process and
// returns the raw result envelope — the reference every surface is compared
// against.
func anchoredCoreEnvelope(t *testing.T, sc *Scenario, cfg core.Config) []byte {
	t.Helper()
	tree, src, _ := sc.Load(t)
	res, err := core.Mine(src, tree, cfg)
	if err != nil {
		t.Fatalf("anchored Mine: %v", err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("anchored fixture mined no patterns; the fixture would pin an empty envelope")
	}
	raw, err := json.Marshal(res.JSON(tree))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTopKCoreGolden pins the anchored result envelope: patterns ranked by
// descending flip gap, truncated to K, with the bitmap counters in stats.
// This test owns the fixture under -update.
func TestTopKCoreGolden(t *testing.T) {
	sc, cfg := anchoredScenario(t)
	raw := anchoredCoreEnvelope(t, sc, cfg)
	Compare(t, filepath.Join(SuiteDir, "topk_result.json"), raw)
}

// TestTopKCLIGolden runs the real binary with -anchor over the committed
// scenario inputs and pins stdout to the same anchored envelope. Like
// TestCLIResultGolden, under -update it compares against a fresh in-process
// mine instead of the fixture (test order across files is not guaranteed).
func TestTopKCLIGolden(t *testing.T) {
	sc, cfg := anchoredScenario(t)
	bin := flipperBin(t)
	args := append(sc.CLIArgs(), "-anchor", cfg.Anchor)
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("flipper %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	if *Update {
		want, err := Canonical(anchoredCoreEnvelope(t, sc, cfg))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Canonical(stdout.Bytes())
		if err != nil {
			t.Fatalf("canonicalizing CLI output: %v\nstdout:\n%s", err, stdout.String())
		}
		if !bytes.Equal(got, want) {
			t.Errorf("anchored CLI envelope diverges from core envelope:\n%s", Diff(want, got))
		}
		return
	}
	Compare(t, filepath.Join(SuiteDir, "topk_result.json"), stdout.Bytes())
}

// TestTopKHTTPGolden pins the /v1/topk success envelope on a fresh server:
// the GET form answers 200 with a finished job whose embedded result is
// byte-identical (canonicalized) to the core anchored envelope, and the POST
// form with the equivalent body canonicalizes to the same envelope.
func TestTopKHTTPGolden(t *testing.T) {
	sc, cfg := anchoredScenario(t)
	h := newConformanceHandler(t)

	query := fmt.Sprintf("/v1/topk?dataset=%s&anchor=%s&k=%d", sc.Name, cfg.Anchor, cfg.AnchorTopK)
	// The registered dataset mines under its default config; overlay the
	// scenario's canonical knobs so the envelope matches the core fixture.
	// The GET form cannot carry a config patch, so the suite pins the POST
	// envelope and checks the GET form against the dataset defaults only by
	// status.
	code, body := do(t, h, "GET", query, nil)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", query, code, body)
	}

	post, err := json.Marshal(map[string]any{
		"dataset": sc.Name,
		"anchor":  cfg.Anchor,
		"k":       cfg.AnchorTopK,
		"config":  patchFor(sc.Config),
	})
	if err != nil {
		t.Fatal(err)
	}
	code, body = do(t, h, "POST", "/v1/topk", post)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/topk: status %d: %s", code, body)
	}
	var env struct {
		Status string          `json:"status"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Status != "done" {
		t.Fatalf("topk job finished %s: %s", env.Status, env.Error)
	}
	Compare(t, filepath.Join(SuiteDir, "topk.json"), body)

	// Cross-surface identity: the embedded result canonicalizes to exactly
	// the core anchored envelope (computed in process so -update ordering
	// across test files cannot race the fixture).
	gotRes, err := Canonical(env.Result)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Canonical(anchoredCoreEnvelope(t, sc, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRes, want) {
		t.Errorf("/v1/topk embedded result diverges from core anchored envelope:\n%s", Diff(want, gotRes))
	}

	// A repeat of the identical query must come back flagged as a cache hit:
	// topk rides the same queue, cache and single-flight as mine jobs.
	code, body = do(t, h, "POST", "/v1/topk", post)
	if code != http.StatusOK {
		t.Fatalf("cached POST /v1/topk: status %d: %s", code, body)
	}
	var cached struct {
		CacheHit bool `json:"cache_hit"`
	}
	if err := json.Unmarshal(body, &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.CacheHit {
		t.Errorf("repeated topk query was not served from the result cache: %s", body)
	}
}

// TestTopKHTTPErrorEnvelopes pins the /v1/topk error paths — unknown anchor
// (404), invalid K (400), missing anchor (400), unknown dataset (404),
// unknown POST field (400) — in the suite's wrapped {"status": N, "body":
// {...}} form on a fresh server.
func TestTopKHTTPErrorEnvelopes(t *testing.T) {
	h := newConformanceHandler(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
	}{
		{"topk_unknown_anchor", "GET", "/v1/topk?dataset=topk-cosine&anchor=no-such-item&k=2", ""},
		{"topk_invalid_k", "GET", "/v1/topk?dataset=topk-cosine&anchor=a1&k=0", ""},
		{"topk_missing_anchor", "GET", "/v1/topk?dataset=topk-cosine&k=2", ""},
		{"topk_unknown_dataset", "GET", "/v1/topk?dataset=no-such-dataset&anchor=a1&k=2", ""},
		// A client still sending the removed accuracy mode gets a 400 naming
		// the field.
		{"topk_unknown_field", "POST", "/v1/topk", `{"dataset": "topk-cosine", "anchor": "a1", "k": 2, "mode": "psychic"}`},
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
