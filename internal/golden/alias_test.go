package golden

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/flipper-mining/flipper/internal/cluster"
	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/service"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// strategyNames lists every name ParseCountStrategy accepts: scan's, and
// those of the retired backends.
var strategyNames = []string{"scan", "auto", "bitmap", "bits", "tidlist", "tid"}

// TestStrategyAliasesMineAsScan pins the strategy names on every surface:
// each accepted name yields an envelope byte-identical to scan's — patterns
// and every stat, volatile keys scrubbed — through core, the CLI's
// -strategy, /v1/jobs (mine and sweep), /v1/topk and a flipperd with two
// cluster workers, over an in-memory scenario and the -stream one, and every
// job echoes "scan". No other name parses.
func TestStrategyAliasesMineAsScan(t *testing.T) {
	for _, name := range []string{"", "bogus", "Scan", "bitmaps", "tidlists", "scan "} {
		if _, err := core.ParseCountStrategy(name); err == nil {
			t.Errorf("ParseCountStrategy(%q) accepted", name)
		}
	}
	h := newConformanceHandler(t)
	for _, sc := range Scenarios() {
		if sc.Name != "toy-paper" && sc.Name != "outofcore-stream" {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			tree, src, cfg := sc.Load(t)
			mine := func(strategy string) *core.Result {
				c := cfg
				var err error
				if c.Strategy, err = core.ParseCountStrategy(strategy); err != nil {
					t.Fatal(err)
				}
				res, err := core.Mine(src, tree, c)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			scan := mine("scan")
			if len(scan.Patterns) == 0 {
				t.Fatal("the scenario mines no pattern; the comparisons would be vacuous")
			}
			anchor := tree.Name(scan.Patterns[0].Chain[0].Items[0])
			patch := func(strategy string) map[string]any {
				raw, err := json.Marshal(patchFor(cfg))
				if err != nil {
					t.Fatal(err)
				}
				var p map[string]any
				if err := json.Unmarshal(raw, &p); err != nil {
					t.Fatal(err)
				}
				p["strategy"] = strategy
				return p
			}
			clustered, served := newClusterHandler(t, sc.Name, tree, src)
			// Each surface returns the canonical envelope it answers a
			// configuration spelled strategy with; want is scan's answer on
			// that surface, or nil to take it from the surface itself.
			for _, surface := range []struct {
				name string
				want []byte
				run  func(t *testing.T, strategy string) []byte
			}{
				{"core", envelope(t, scan, tree), func(t *testing.T, strategy string) []byte {
					return envelope(t, mine(strategy), tree)
				}},
				{"cli", envelope(t, scan, tree), func(t *testing.T, strategy string) []byte {
					args := slices.Clone(sc.CLIArgs())
					args[slices.Index(args, "-strategy")+1] = strategy
					out, err := exec.Command(flipperBin(t), args...).Output()
					if err != nil {
						t.Fatalf("flipper -strategy %s: %v", strategy, err)
					}
					return canonical(t, out)
				}},
				{"jobs", envelope(t, scan, tree), func(t *testing.T, strategy string) []byte {
					return jobResult(t, h, "/v1/jobs", map[string]any{"dataset": sc.Name, "config": patch(strategy)})
				}},
				{"sweep", nil, func(t *testing.T, strategy string) []byte {
					return jobResult(t, h, "/v1/jobs", map[string]any{
						"dataset": sc.Name, "kind": "sweep", "config": patch(strategy),
						"epsilons": []float64{0.25 * cfg.Gamma, 0.5 * cfg.Gamma, 0.75 * cfg.Gamma},
					})
				}},
				{"topk", nil, func(t *testing.T, strategy string) []byte {
					return jobResult(t, h, "/v1/topk", map[string]any{
						"dataset": sc.Name, "anchor": anchor, "k": 3, "config": patch(strategy),
					})
				}},
				{"cluster", envelope(t, scan, tree), func(t *testing.T, strategy string) []byte {
					before := served.Load()
					res := jobResult(t, clustered, "/v1/jobs", map[string]any{"dataset": sc.Name, "config": patch(strategy)})
					if served.Load() == before && strategy == "scan" {
						t.Fatal("no count request reached a worker; the mine was not distributed")
					}
					return res
				}},
			} {
				t.Run(surface.name, func(t *testing.T) {
					want := surface.want
					if want == nil {
						want = surface.run(t, "scan")
					}
					for _, strategy := range strategyNames {
						if got := surface.run(t, strategy); !bytes.Equal(got, want) {
							t.Errorf("%s diverged from scan:\n%s", strategy, Diff(want, got))
						}
					}
				})
			}
		})
	}
}

// envelope is a result's canonical wire envelope.
func envelope(t *testing.T, res *core.Result, tree *taxonomy.Tree) []byte {
	t.Helper()
	raw, err := json.Marshal(res.JSON(tree))
	if err != nil {
		t.Fatal(err)
	}
	return canonical(t, raw)
}

func canonical(t *testing.T, raw []byte) []byte {
	t.Helper()
	out, err := Canonical(raw)
	if err != nil {
		t.Fatalf("canonicalizing %s: %v", raw, err)
	}
	return out
}

// jobResult posts body to path, waits for the job and returns its canonical
// result, failing unless the job echoes strategy "scan".
func jobResult(t *testing.T, h http.Handler, path string, body map[string]any) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	code, resp := do(t, h, "POST", path, raw)
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if code != http.StatusOK && code != http.StatusAccepted || json.Unmarshal(resp, &job) != nil {
		t.Fatalf("POST %s %s: status %d: %s", path, raw, code, resp)
	}
	if job.Status != "done" {
		resp = waitDone(t, h, job.ID)
	}
	var env struct {
		Status string `json:"status"`
		Error  string `json:"error"`
		Config struct {
			Strategy string `json:"strategy"`
		} `json:"config"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(resp, &env); err != nil {
		t.Fatal(err)
	}
	if env.Status != "done" {
		t.Fatalf("POST %s %s: job %s: %s", path, raw, env.Status, env.Error)
	}
	if env.Config.Strategy != "scan" {
		t.Errorf("POST %s %s: the job echoes strategy %q, want \"scan\"", path, raw, env.Config.Strategy)
	}
	return canonical(t, env.Result)
}

// newClusterHandler serves src as dataset name through flipperd's /v1 API
// with a cluster coordinator that two workers, each an engine of its own
// over the same source, have joined through real heartbeats, and counts the
// count requests the workers answer; it fails the test unless the workers
// serve the dataset.
func newClusterHandler(t *testing.T, name string, tree *taxonomy.Tree, src txdb.Source) (http.Handler, *atomic.Int64) {
	t.Helper()
	reg := service.NewRegistry()
	if err := reg.Add(&service.Dataset{Name: name, Tree: tree, Src: src}); err != nil {
		t.Fatal(err)
	}
	d, _ := reg.Get(name)
	fp := cluster.NewFingerprint(name, src, tree)
	cat := cluster.NewCatalog()
	cat.Add(name, d.Engine(), tree, fp)
	co := cluster.New(cat, cluster.Options{})
	srv := service.NewServer(reg, service.Options{Workers: 1, Coordinator: co})
	mux := http.NewServeMux()
	mux.Handle("/cluster/", co.Handler())
	mux.Handle("/", srv.Handler())
	front := httptest.NewServer(mux)
	t.Cleanup(func() {
		front.Close()
		srv.Close()
	})
	var served atomic.Int64
	for i := 0; i < 2; i++ {
		wcat := cluster.NewCatalog()
		wcat.Add(name, core.NewEngine(src, tree), tree, fp)
		w := cluster.NewWorker(fmt.Sprintf("w%d", i), wcat)
		ws := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == cluster.PathCount {
				served.Add(1)
			}
			w.Handler().ServeHTTP(rw, r)
		}))
		t.Cleanup(ws.Close)
		if err := w.SendHeartbeat(context.Background(), front.URL, ws.URL, nil); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
	}
	if !co.Eligible(name) {
		t.Fatal("no cluster worker serves the dataset")
	}
	return mux, &served
}
