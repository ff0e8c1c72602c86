package golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/flipper-mining/flipper/internal/core"
)

// TestMain regenerates every scenario's committed inputs before any test
// runs when -update is set, so input files, core/CLI envelopes and /v1
// envelopes are always rewritten from the same generation.
func TestMain(m *testing.M) {
	flag.Parse()
	if *Update {
		if err := os.RemoveAll(SuiteDir); err != nil {
			fmt.Fprintln(os.Stderr, "golden:", err)
			os.Exit(1)
		}
		for _, sc := range Scenarios() {
			if err := sc.WriteInputs(); err != nil {
				fmt.Fprintf(os.Stderr, "golden: regenerate %s: %v\n", sc.Name, err)
				os.Exit(1)
			}
		}
	}
	os.Exit(m.Run())
}

// TestScenarioMatrixSize pins the issue's floor: the committed conformance
// wall must hold at least ten scenarios.
func TestScenarioMatrixSize(t *testing.T) {
	if n := len(Scenarios()); n < 10 {
		t.Fatalf("scenario matrix has %d scenarios, want >= 10", n)
	}
}

// TestCoreResultGolden mines every committed scenario through the core
// engine (Mine → Result.JSON) under its canonical configuration and pins
// the full wire envelope — patterns, chains, supports, correlations and
// non-volatile stats counters — byte for byte.
func TestCoreResultGolden(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			tree, src, cfg := sc.Load(t)
			res, err := core.Mine(src, tree, cfg)
			if err != nil {
				t.Fatalf("Mine: %v", err)
			}
			raw, err := json.Marshal(res.JSON(tree))
			if err != nil {
				t.Fatal(err)
			}
			Compare(t, filepath.Join(sc.Dir(), "result.json"), raw)
		})
	}
}

// TestStrategyPruningMatrix re-mines every scenario under all four pruning
// levels and asserts the mined patterns are byte-identical to the canonical
// run's. Pattern sets must be invariant (the paper's losslessness claim for
// the pruning ladder); stats counters legitimately differ, so only the
// pattern portion of the envelope is compared here — the canonical run's
// full envelope is pinned by TestCoreResultGolden.
func TestStrategyPruningMatrix(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			tree, src, cfg := sc.Load(t)
			base, err := core.Mine(src, tree, cfg)
			if err != nil {
				t.Fatalf("canonical Mine: %v", err)
			}
			want := patternEnvelope(t, base.JSON(tree))
			for _, pr := range core.Levels() {
				c := cfg
				c.Pruning = pr
				res, err := core.Mine(src, tree, c)
				if err != nil {
					t.Fatalf("%s: Mine: %v", pr, err)
				}
				if got := patternEnvelope(t, res.JSON(tree)); got != want {
					t.Errorf("%s: mined patterns diverge from canonical run:\n%s",
						pr, Diff([]byte(want), []byte(got)))
				}
			}
		})
	}
}

// patternEnvelope canonicalizes just the pattern portion (pattern_count +
// patterns) of a result envelope.
func patternEnvelope(t *testing.T, rj core.ResultJSON) string {
	t.Helper()
	raw, err := json.Marshal(map[string]any{
		"pattern_count": rj.PatternCount,
		"patterns":      rj.Patterns,
	})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := Canonical(raw)
	if err != nil {
		t.Fatal(err)
	}
	return string(canon)
}

// TestCanonicalIsStable guards the harness itself: canonicalization is a
// fixed point (canon(canon(x)) == canon(x)) and scrubs volatile fields to
// typed sentinels.
func TestCanonicalIsStable(t *testing.T) {
	raw := []byte(`{"b":1,"a":{"elapsed":"17ms","elapsed_ns":17000000,"id":"job-000042","deep":[{"uptime":"3s","x":2}]}}`)
	once, err := Canonical(raw)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Canonical(once)
	if err != nil {
		t.Fatal(err)
	}
	if string(once) != string(twice) {
		t.Fatalf("canonicalization is not a fixed point:\n%s", Diff(once, twice))
	}
	var v struct {
		A struct {
			Elapsed   string `json:"elapsed"`
			ElapsedNS int    `json:"elapsed_ns"`
			ID        string `json:"id"`
			Deep      []struct {
				Uptime string `json:"uptime"`
			} `json:"deep"`
		} `json:"a"`
	}
	if err := json.Unmarshal(once, &v); err != nil {
		t.Fatal(err)
	}
	if v.A.Elapsed != "<volatile>" || v.A.ElapsedNS != 0 || v.A.ID != "<volatile>" || v.A.Deep[0].Uptime != "<volatile>" {
		t.Fatalf("volatile fields not scrubbed: %s", once)
	}
}
