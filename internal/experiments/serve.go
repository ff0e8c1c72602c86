package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/flipper-mining/flipper/internal/datasets"
	"github.com/flipper-mining/flipper/internal/service"
)

// ServeCacheHit serves the census simulator (scale 1, seed 1), as the
// end-to-end benchmark's serve-hot workload does, through a flipperd
// service with its result cache on, and fills the cache with one mine at
// census's Table-4 thresholds. It returns hit, which submits that
// configuration again through the service's handler — one cache-hit
// POST /v1/jobs, answered 200 with the stored result — and stop, which
// drains the service. Shared by BenchmarkServeCacheHit and the flipbench
// -json record ServeCacheHit/census.
func ServeCacheHit() (hit func() error, stop func(), err error) {
	ds, err := datasets.Census(1, 1)
	if err != nil {
		return nil, nil, err
	}
	reg := service.NewRegistry()
	if err := reg.AddMemory("census", ds.DB, ds.Tree); err != nil {
		return nil, nil, err
	}
	body, err := json.Marshal(map[string]any{
		"dataset": "census",
		"config": map[string]any{
			"gamma": ds.Gamma, "epsilon": ds.Epsilon, "min_sup": ds.MinSup,
			"pruning": "full", "strategy": "scan",
		},
	})
	if err != nil {
		return nil, nil, err
	}
	srv := service.NewServer(reg, service.Options{})
	submit := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		return rec
	}
	// The first submission mines, and resubmissions coalesce onto it (202)
	// until its result is cached and they become hits (200).
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		rec := submit()
		if rec.Code == http.StatusOK {
			break
		}
		if rec.Code != http.StatusAccepted || time.Now().After(deadline) {
			srv.Close()
			return nil, nil, fmt.Errorf("serve census: no cache hit: %d %s", rec.Code, rec.Body)
		}
	}
	hit = func() error {
		if rec := submit(); rec.Code != http.StatusOK {
			return fmt.Errorf("serve census: a repeated submission answered %d, not a cache hit: %s", rec.Code, rec.Body)
		}
		return nil
	}
	return hit, srv.Close, nil
}
