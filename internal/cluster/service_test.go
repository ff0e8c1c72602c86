package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/faultinject"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/service"
	"github.com/flipper-mining/flipper/internal/taxonomy"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// flipperd is an in-process flipperd front end: the /v1 API over its own
// registry and, when workers are given, the coordinator's /cluster routes
// with those workers joined through real heartbeats.
type flipperd struct {
	url     string
	co      *Coordinator
	workers []*httptest.Server
	served  atomic.Int64 // count requests the workers answered
}

// newFlipperd serves src as dataset "ds". Each worker gets its own engine
// over its own source; nil workers means a single-node flipperd.
func newFlipperd(t *testing.T, src txdb.Source, tree *taxonomy.Tree, workers ...txdb.Source) *flipperd {
	t.Helper()
	reg := service.NewRegistry()
	if err := reg.Add(&service.Dataset{Name: "ds", Tree: tree, Src: src}); err != nil {
		t.Fatal(err)
	}
	f := &flipperd{}
	var opts service.Options
	mux := http.NewServeMux()
	if len(workers) > 0 {
		d, _ := reg.Get("ds")
		cat := NewCatalog()
		cat.Add("ds", d.Engine(), tree, NewFingerprint("ds", src, tree))
		f.co = New(cat, Options{TraceWriter: traceWriter(t)})
		opts.Coordinator = f.co
		mux.Handle("/cluster/", f.co.Handler())
	}
	srv := service.NewServer(reg, opts)
	mux.Handle("/", srv.Handler())
	front := httptest.NewServer(mux)
	t.Cleanup(func() {
		front.Close()
		srv.Close()
	})
	f.url = front.URL
	for i, wsrc := range workers {
		cat := NewCatalog()
		cat.Add("ds", core.NewEngine(wsrc, tree), tree, NewFingerprint("ds", wsrc, tree))
		w := NewWorker(fmt.Sprintf("w%d", i), cat)
		ws := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathCount {
				f.served.Add(1)
			}
			w.Handler().ServeHTTP(rw, r)
		}))
		t.Cleanup(ws.Close)
		if err := w.SendHeartbeat(context.Background(), front.URL, ws.URL, nil); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		f.workers = append(f.workers, ws)
	}
	return f
}

// mine submits a mine job over POST /v1/jobs, polls it to completion and
// returns its result bytes with the volatile stats keys scrubbed.
func (f *flipperd) mine(t *testing.T, patch string) []byte {
	t.Helper()
	resp, err := http.Post(f.url+"/v1/jobs", "application/json",
		strings.NewReader(`{"dataset":"ds","config":`+patch+`}`))
	if err != nil {
		t.Fatal(err)
	}
	var job service.JobView
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("submit: %s: %v", resp.Status, err)
	}
	for deadline := time.Now().Add(10 * time.Second); job.Status != service.StatusDone; {
		if job.Status == service.StatusFailed || job.Status == service.StatusCancelled || time.Now().After(deadline) {
			t.Fatalf("job %s: status %s: %s", job.ID, job.Status, job.Error)
		}
		time.Sleep(2 * time.Millisecond)
		resp, err := http.Get(f.url + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	var res map[string]any
	if err := json.Unmarshal(job.Result, &res); err != nil {
		t.Fatal(err)
	}
	stats := res["stats"].(map[string]any)
	for _, k := range core.VolatileStatsKeys() {
		delete(stats, k)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServiceClusterByteIdentical pins distributed = local where clients
// see it: flipperd with a coordinator and two workers answers POST /v1/jobs
// with the same result bytes — patterns and stats, timing keys aside — as a
// flipperd without one.
func TestServiceClusterByteIdentical(t *testing.T) {
	db, tree := testDataset(rand.New(rand.NewSource(123))) // a seed whose data flips
	src := func() txdb.Source { return txdb.PartitionSource(db, 2) }
	local := newFlipperd(t, src(), tree)
	dist := newFlipperd(t, src(), tree, src(), src())
	if !dist.co.Eligible("ds") {
		t.Fatal("coordinator has no eligible worker")
	}
	patch := `{"gamma":0.3,"epsilon":0.1,"min_sup_abs":[2,1,1]}`
	want, got := local.mine(t, patch), dist.mine(t, patch)
	if !bytes.Contains(want, []byte(`"pattern_count"`)) || bytes.Contains(want, []byte(`"pattern_count":0`)) {
		t.Fatalf("no patterns; the comparison would be vacuous: %s", want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed result diverged.\nlocal:\n%s\ndistributed:\n%s", want, got)
	}
	if dist.served.Load() == 0 {
		t.Fatal("no count request reached a worker; the run was not distributed")
	}
}

// TestFingerprintMismatchMinesLocally covers the dataset skews the
// fingerprint's shard count, loading mode and digest catch: the coordinator
// holding the baskets as two shard files while the worker holds them as one,
// a worker holding different baskets of the same size, and a worker that
// loaded the same shard files in the other mode — streamed where the
// coordinator holds them in memory, or the reverse. Either way the worker is
// ineligible, so the coordinator mines locally without degrading, and a
// count request carrying the coordinator's fingerprint gets 409.
func TestFingerprintMismatchMinesLocally(t *testing.T) {
	db, tree := testDataset(rand.New(rand.NewSource(123)))
	edited := txdb.New(tree.Dict())
	for i := 0; i < db.Len(); i++ {
		edited.AddSet(db.Tx(max(i, 1))) // transaction 0 replaced by a copy of 1
	}
	streamed := streamedShards(t, db, 2)
	for _, tc := range []struct {
		name                      string
		coord, worker             txdb.Source
		coordShards, workerShards int
	}{
		{"layout", txdb.PartitionSource(db, 2), db, 2, 1},
		{"content", db, edited, 1, 1},
		{"streamed worker", txdb.PartitionSource(db, 2), streamed, 2, 2},
		{"streamed coordinator", streamed, txdb.PartitionSource(db, 2), 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coordFp, workerFp := NewFingerprint("ds", tc.coord, tree), NewFingerprint("ds", tc.worker, tree)
			if coordFp == workerFp || coordFp.Shards != tc.coordShards || workerFp.Shards != tc.workerShards {
				t.Fatalf("coordinator %s, worker %s: want distinct fingerprints of %d and %d shards",
					coordFp, workerFp, tc.coordShards, tc.workerShards)
			}
			f := newFlipperd(t, tc.coord, tree, tc.worker)
			if f.co.Eligible("ds") {
				t.Fatal("worker with a skewed dataset is eligible")
			}
			patch := `{"gamma":0.3,"epsilon":0.1,"min_sup_abs":[2,1,1]}`
			want := newFlipperd(t, tc.coord, tree).mine(t, patch)
			got := f.mine(t, patch)
			if !bytes.Equal(got, want) {
				t.Fatalf("result diverged from the single-node one.\nwant:\n%s\ngot:\n%s", want, got)
			}
			if f.served.Load() != 0 {
				t.Fatalf("%d count requests reached the skewed worker", f.served.Load())
			}
			body, err := json.Marshal(CountRequest{Fingerprint: coordFp, ShardUnit: core.ShardUnit{
				Level: tree.Height(), K: 1, Candidates: []itemset.Set{{tree.Leaves()[0]}},
			}})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(f.workers[0].URL+PathCount, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("count request with the coordinator's fingerprint: %s, want 409", resp.Status)
			}
		})
	}
}

// TestWorkerOfAnotherBuildMinesLocally covers build skew: a worker of an
// earlier count wire heartbeats fingerprints of its own protocol revision —
// 2, whose units still carried the mining configuration, or none at all
// before the packed wire — so the coordinator finds no dataset it serves
// and mines locally, not degraded, sending it nothing it would have to
// refuse. The same heartbeat under this build's revision keeps the worker
// eligible, so only the revision tells the builds apart. The other way
// round, a coordinator of a build before the packed wire decodes heartbeats
// strictly and refuses this build's, whose fingerprints carry the revision.
func TestWorkerOfAnotherBuildMinesLocally(t *testing.T) {
	db, tree := testDataset(rand.New(rand.NewSource(123)))
	src := func() txdb.Source { return txdb.PartitionSource(db, 2) }
	fp := NewFingerprint("ds", src(), tree)
	if fp.Protocol != ProtocolRevision {
		t.Fatalf("fingerprint carries protocol %d, want %d", fp.Protocol, ProtocolRevision)
	}
	patch := `{"gamma":0.3,"epsilon":0.1,"min_sup_abs":[2,1,1]}`
	want := newFlipperd(t, src(), tree).mine(t, patch)
	var current, old []byte // this build's heartbeat, and one of the build before the packed wire
	for _, tc := range []struct {
		revision int // 0: no protocol field
		eligible bool
	}{{ProtocolRevision, true}, {2, false}, {0, false}} {
		f := newFlipperd(t, src(), tree, src())
		var err error
		current, err = json.Marshal(Heartbeat{Worker: "w0", Addr: f.workers[0].URL, Datasets: []Fingerprint{fp}})
		if err != nil {
			t.Fatal(err)
		}
		// The heartbeat of a build of that revision, as its worker sends it.
		var hb map[string]any
		dec := json.NewDecoder(bytes.NewReader(current))
		dec.UseNumber() // a digest is a uint64, past a float64's precision
		if err := dec.Decode(&hb); err != nil {
			t.Fatal(err)
		}
		for _, d := range hb["datasets"].([]any) {
			if tc.revision == 0 {
				delete(d.(map[string]any), "protocol")
			} else {
				d.(map[string]any)["protocol"] = tc.revision
			}
		}
		if old, err = json.Marshal(hb); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(f.url+PathHeartbeat, "application/json", bytes.NewReader(old))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("revision %d heartbeat: %s", tc.revision, resp.Status)
		}
		if got := f.co.Eligible("ds"); got != tc.eligible {
			t.Fatalf("a worker of revision %d: eligible %t, want %t", tc.revision, got, tc.eligible)
		}
		if got := f.mine(t, patch); !bytes.Equal(got, want) {
			t.Fatalf("revision %d: result diverged from the single-node one.\nwant:\n%s\ngot:\n%s", tc.revision, want, got)
		}
		if n := f.served.Load(); (n > 0) != tc.eligible {
			t.Fatalf("%d count requests reached the worker of revision %d", n, tc.revision)
		}
	}

	// The strict heartbeat decoding of the build before the packed wire,
	// over its own fingerprint and this build's.
	var older struct {
		Worker   string `json:"worker"`
		Addr     string `json:"addr"`
		Datasets []struct {
			Dataset      string `json:"dataset"`
			Transactions int    `json:"transactions"`
			Height       int    `json:"height"`
			Nodes        int    `json:"nodes"`
			Shards       int    `json:"shards"`
			Stream       bool   `json:"stream"`
			Digest       uint64 `json:"digest"`
		} `json:"datasets"`
	}
	dec := json.NewDecoder(bytes.NewReader(old))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&older); err != nil {
		t.Fatalf("the older build refuses its own heartbeat: %v", err)
	}
	dec = json.NewDecoder(bytes.NewReader(current))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&older); err == nil {
		t.Fatal("the older build accepts a heartbeat of this build")
	}
}

// TestFingerprintScanErrorMatchesNothing: a source that fails to scan gets a
// fingerprint equal to no other — neither the readable source's nor another
// failed scan's of the same source.
func TestFingerprintScanErrorMatchesNothing(t *testing.T) {
	db, tree := testDataset(rand.New(rand.NewSource(5)))
	good := NewFingerprint("ds", db, tree)
	if again := NewFingerprint("ds", db, tree); again != good {
		t.Fatalf("fingerprint not deterministic: %s vs %s", good, again)
	}
	broken := &faultinject.Source{Inner: db, FailAt: db.Len()}
	a, b := NewFingerprint("ds", broken, tree), NewFingerprint("ds", broken, tree)
	if a == good || b == good || a == b {
		t.Fatalf("failed scans match: good %s, failed %s and %s", good, a, b)
	}
}
