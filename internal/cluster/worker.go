package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/flipper-mining/flipper/internal/core"
)

// Worker is the counting side of the protocol: it serves PathCount over a
// catalog of loaded datasets and pushes heartbeats to a coordinator. One
// worker process serves every dataset it loaded; the coordinator's registry
// matches requests to workers by dataset fingerprint.
type Worker struct {
	id  string
	cat *Catalog
	mux *http.ServeMux
}

// NewWorker builds a worker serving the catalog's datasets under the given
// ID (unique per worker process; the operator's -worker-id or a
// host:port-derived default).
func NewWorker(id string, cat *Catalog) *Worker {
	w := &Worker{id: id, cat: cat, mux: http.NewServeMux()}
	w.mux.HandleFunc("POST "+PathCount, w.handleCount)
	w.mux.HandleFunc("GET "+PathPing, w.handlePing)
	return w
}

// ID returns the worker's identifier.
func (w *Worker) ID() string { return w.id }

// Handler returns the worker's HTTP handler (PathCount, PathPing).
func (w *Worker) Handler() http.Handler { return w.mux }

// writeJSON/writeError mirror the service envelopes so cluster endpoints
// read like the rest of the API surface.
func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(rw http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(rw, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleCount answers one unit of a counting pass. Every cross-checkable
// property of the request is verified before counting — the packing of its
// candidates, dataset fingerprint (with the build's protocol revision), and
// (in core.Engine.CountShard) level, shard, k and candidate shape — because
// a mismatch here would not fail loudly downstream: it would merge wrong
// integers into a result that still looks perfectly healthy.
func (w *Worker) handleCount(rw http.ResponseWriter, r *http.Request) {
	var req CountRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(rw, http.StatusBadRequest, "bad count request: %v", err)
		return
	}
	ent, ok := w.cat.Get(req.Fingerprint.Dataset)
	if !ok {
		writeError(rw, http.StatusNotFound, "unknown dataset %q", req.Fingerprint.Dataset)
		return
	}
	if ent.Fp != req.Fingerprint {
		writeError(rw, http.StatusConflict, "dataset fingerprint mismatch: coordinator has %s, worker has %s",
			req.Fingerprint, ent.Fp)
		return
	}
	t, err := ent.Engine.CountShard(r.Context(), req.ShardUnit)
	switch {
	case r.Context().Err() != nil:
		// The coordinator cancelled (hedge loser or aborted job): no one
		// is listening for this response.
	case errors.Is(err, core.ErrBadUnit):
		writeError(rw, http.StatusBadRequest, "%v", err)
	case err != nil:
		writeError(rw, http.StatusInternalServerError, "count failed: %v", err)
	default:
		writeCompact(rw, CountResponse{Worker: w.id, ShardTally: t})
	}
}

// writeCompact answers 200 with v as compact JSON. Only the coordinator
// reads a count answer, so it gains nothing from indentation.
func writeCompact(rw http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(rw, http.StatusInternalServerError, "encode count answer: %v", err)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	_, _ = rw.Write(body) // a failed write is the coordinator's read error
}

func (w *Worker) handlePing(rw http.ResponseWriter, _ *http.Request) {
	writeJSON(rw, http.StatusOK, map[string]any{
		"worker":   w.id,
		"datasets": w.cat.Fingerprints(),
	})
}

// HeartbeatLoop pushes heartbeats to the coordinator at coordURL every
// interval until ctx is cancelled, advertising selfURL as the worker's base
// URL. The first push happens immediately, so a freshly joined worker is
// schedulable within one round trip rather than one interval. Push failures
// are silently dropped — the coordinator's suspect/dead machinery is the
// failure detector; the worker just keeps trying.
func (w *Worker) HeartbeatLoop(ctx context.Context, coordURL, selfURL string, interval time.Duration, client *http.Client) {
	if client == nil {
		client = http.DefaultClient
	}
	if interval <= 0 {
		interval = time.Second
	}
	w.SendHeartbeat(ctx, coordURL, selfURL, client)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.SendHeartbeat(ctx, coordURL, selfURL, client)
		}
	}
}

// SendHeartbeat pushes one heartbeat; errors are returned for callers that
// want to log them, but the loop ignores them by design.
func (w *Worker) SendHeartbeat(ctx context.Context, coordURL, selfURL string, client *http.Client) error {
	if client == nil {
		client = http.DefaultClient
	}
	body, err := json.Marshal(Heartbeat{
		Worker:   w.id,
		Addr:     selfURL,
		Datasets: w.cat.Fingerprints(),
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordURL+PathHeartbeat, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: heartbeat: coordinator returned %s", resp.Status)
	}
	return nil
}
