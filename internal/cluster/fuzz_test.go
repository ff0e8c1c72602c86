package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"github.com/flipper-mining/flipper/internal/core"
	"github.com/flipper-mining/flipper/internal/itemset"
	"github.com/flipper-mining/flipper/internal/txdb"
)

// FuzzWorkerCount feeds arbitrary bodies to a worker's count handler. It
// must never panic, and it answers 200 exactly when the body is a
// well-formed unit: a request that decodes strictly, packing included,
// carries the worker's fingerprint, and whose unit core.Engine.CountShard
// counts. A 200's tally equals CountShard's answer to the decoded unit on an
// engine of its own.
func FuzzWorkerCount(f *testing.F) {
	db, tree := testDataset(rand.New(rand.NewSource(66)))
	src := txdb.PartitionSource(db, 2)
	fp := NewFingerprint("ds", src, tree)
	worker, ref := core.NewEngine(src, tree), core.NewEngine(src, tree)
	cat := NewCatalog()
	cat.Add("ds", worker, tree, fp)
	handler := NewWorker("w", cat).Handler()
	ctx := context.Background()

	// Seeds: the first few candidates of k = 1..3 at every level, over each
	// shard. Counting them here builds both engines' dataset state.
	for h := 1; h <= tree.Height(); h++ {
		nodes := tree.NodesAtLevel(h)
		for k := 1; k <= 3 && k < len(nodes); k++ {
			var cands []itemset.Set
			for i := 0; i+k <= len(nodes) && len(cands) < 4; i++ {
				cands = append(cands, itemset.New(nodes[i:i+k]...))
			}
			for s := 0; s < fp.Shards; s++ {
				u := core.ShardUnit{Level: h, K: k, Shard: s, Candidates: cands}
				for _, eng := range []*core.Engine{worker, ref} {
					if _, err := eng.CountShard(ctx, u); err != nil {
						f.Fatal(err)
					}
				}
				body, err := json.Marshal(CountRequest{Fingerprint: fp, ShardUnit: u})
				if err != nil {
					f.Fatal(err)
				}
				f.Add(body)
			}
		}
	}
	f.Add([]byte(`{"candidates":"AQID"}`))
	f.Add([]byte(`{"k":2,"candidates":"!"}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathCount, bytes.NewReader(body)))

		var req CountRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		wellFormed := dec.Decode(&req) == nil && req.Fingerprint == fp
		var want core.ShardTally
		if wellFormed {
			var err error
			want, err = ref.CountShard(ctx, req.ShardUnit)
			wellFormed = err == nil
		}
		if (rec.Code == http.StatusOK) != wellFormed {
			t.Fatalf("well-formed %t, answered %d: %s", wellFormed, rec.Code, rec.Body.Bytes())
		}
		if !wellFormed {
			return
		}
		var got CountResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("answer %s: %v", rec.Body.Bytes(), err)
		}
		if !slices.Equal(got.Supports, want.Supports) {
			t.Fatalf("worker answered %+v, CountShard %+v", got.ShardTally, want)
		}
	})
}
