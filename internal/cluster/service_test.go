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
// fingerprint's shard count and digest catch: the coordinator holding the
// baskets as two shard files while the worker holds them as one, and a
// worker holding different baskets of the same size. Such a worker is
// ineligible, so the coordinator mines locally without degrading, and a
// count request carrying the coordinator's fingerprint gets 409. The
// loading mode is no skew: a worker that streams the shard files the
// coordinator holds in memory, or the reverse, shares the coordinator's
// fingerprint and serves its units, and the result is the local one.
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
		skewed                    bool
	}{
		{"layout", txdb.PartitionSource(db, 2), db, 2, 1, true},
		{"content", db, edited, 1, 1, true},
		{"streamed worker", txdb.PartitionSource(db, 2), streamed, 2, 2, false},
		{"streamed coordinator", streamed, txdb.PartitionSource(db, 2), 2, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coordFp, workerFp := NewFingerprint("ds", tc.coord, tree), NewFingerprint("ds", tc.worker, tree)
			if (coordFp != workerFp) != tc.skewed || coordFp.Shards != tc.coordShards || workerFp.Shards != tc.workerShards {
				t.Fatalf("coordinator %s, worker %s: want fingerprints of %d and %d shards, distinct %t",
					coordFp, workerFp, tc.coordShards, tc.workerShards, tc.skewed)
			}
			f := newFlipperd(t, tc.coord, tree, tc.worker)
			if eligible := f.co.Eligible("ds"); eligible == tc.skewed {
				t.Fatalf("worker eligible %t, want %t", eligible, !tc.skewed)
			}
			patch := `{"gamma":0.3,"epsilon":0.1,"min_sup_abs":[2,1,1]}`
			want := newFlipperd(t, tc.coord, tree).mine(t, patch)
			got := f.mine(t, patch)
			if !bytes.Equal(got, want) {
				t.Fatalf("result diverged from the single-node one.\nwant:\n%s\ngot:\n%s", want, got)
			}
			if served := f.served.Load(); (served > 0) == tc.skewed {
				t.Fatalf("%d count requests reached the worker, want some: %t", served, !tc.skewed)
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
			wantStatus := http.StatusOK
			if tc.skewed {
				wantStatus = http.StatusConflict
			}
			if resp.StatusCode != wantStatus {
				t.Fatalf("count request with the coordinator's fingerprint: %s, want %d", resp.Status, wantStatus)
			}
		})
	}
}

// TestWorkerOfAnotherBuildMinesLocally covers build skew. A worker of an
// earlier count wire heartbeats fingerprints of its own protocol revision —
// 3, 2, whose units still carried the mining configuration, or none at all
// before the packed wire — and each of those builds' fingerprints carries
// the loading mode, `stream`, which this build's strict heartbeat decoding
// does not know: the coordinator answers 400 naming the field and never
// registers the worker, so it mines locally, not degraded, and sends it
// nothing it would have to refuse. This build's heartbeat makes the worker
// eligible, and one that differs from it only in the revision registers the
// worker for no dataset, so only the revision tells the builds apart. The
// other way round, a coordinator of a build before the packed wire decodes
// heartbeats strictly and refuses this build's, whose fingerprints carry
// the revision.
func TestWorkerOfAnotherBuildMinesLocally(t *testing.T) {
	db, tree := testDataset(rand.New(rand.NewSource(123)))
	src := func() txdb.Source { return txdb.PartitionSource(db, 2) }
	fp := NewFingerprint("ds", src(), tree)
	if fp.Protocol != ProtocolRevision {
		t.Fatalf("fingerprint carries protocol %d, want %d", fp.Protocol, ProtocolRevision)
	}
	// heartbeat is worker w0's heartbeat at addr as a build of the given
	// revision (0: before the field) sends it, with or without the loading
	// mode.
	heartbeat := func(addr string, revision int, stream bool) []byte {
		t.Helper()
		raw, err := json.Marshal(Heartbeat{Worker: "w0", Addr: addr, Datasets: []Fingerprint{fp}})
		if err != nil {
			t.Fatal(err)
		}
		var hb map[string]any
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber() // a digest is a uint64, past a float64's precision
		if err := dec.Decode(&hb); err != nil {
			t.Fatal(err)
		}
		for _, d := range hb["datasets"].([]any) {
			d := d.(map[string]any)
			if revision == 0 {
				delete(d, "protocol")
			} else {
				d["protocol"] = revision
			}
			if stream {
				d["stream"] = false
			}
		}
		if raw, err = json.Marshal(hb); err != nil {
			t.Fatal(err)
		}
		return raw
	}
	patch := `{"gamma":0.3,"epsilon":0.1,"min_sup_abs":[2,1,1]}`
	want := newFlipperd(t, src(), tree).mine(t, patch)
	for _, tc := range []struct {
		name     string
		revision int
		stream   bool // the fingerprints carry the loading mode, as every build's before revision 4
		status   int
		eligible bool
	}{
		{"this build", ProtocolRevision, false, http.StatusOK, true},
		{"revision 3", 3, true, http.StatusBadRequest, false},
		{"revision 2", 2, true, http.StatusBadRequest, false},
		{"before the packed wire", 0, true, http.StatusBadRequest, false},
		{"only the revision differs", 3, false, http.StatusOK, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFlipperd(t, src(), tree, src())
			f.co.Registry().Remove("w0") // it joined with this build's heartbeat
			old := heartbeat(f.workers[0].URL, tc.revision, tc.stream)
			resp, err := http.Post(f.url+PathHeartbeat, "application/json", bytes.NewReader(old))
			if err != nil {
				t.Fatal(err)
			}
			var answer map[string]string
			err = json.NewDecoder(resp.Body).Decode(&answer)
			resp.Body.Close()
			if err != nil || resp.StatusCode != tc.status {
				t.Fatalf("heartbeat: %s %v (%v), want %d", resp.Status, answer, err, tc.status)
			}
			if tc.stream && !strings.Contains(answer["error"], `unknown field "stream"`) {
				t.Fatalf("refused heartbeat does not name the field: %q", answer["error"])
			}
			if got := f.co.Eligible("ds"); got != tc.eligible {
				t.Fatalf("eligible %t, want %t", got, tc.eligible)
			}
			if got := f.mine(t, patch); !bytes.Equal(got, want) {
				t.Fatalf("result diverged from the single-node one.\nwant:\n%s\ngot:\n%s", want, got)
			}
			if n := f.served.Load(); (n > 0) != tc.eligible {
				t.Fatalf("%d count requests reached the worker", n)
			}
		})
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
	dec := json.NewDecoder(bytes.NewReader(heartbeat("http://w0", 0, true)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&older); err != nil {
		t.Fatalf("the older build refuses its own heartbeat: %v", err)
	}
	dec = json.NewDecoder(bytes.NewReader(heartbeat("http://w0", ProtocolRevision, false)))
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
