package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// GET/POST /v1/topk — the anchored top-K discovery endpoint. A topk query
// is a mine job whose configuration carries an anchor: it rides the same
// queue, so it coalesces with identical in-flight queries (single-flight),
// hits the LRU result cache under core.Config.CanonicalKey, and is
// cluster-eligible like any other mine. The handler waits synchronously up
// to the job's deadline and answers 200 with the finished job; a query
// that outlives its deadline answers 202 with a Location header so the
// client can poll /v1/jobs/{id} like any async submission.

// TopKRequest is the POST /v1/topk body; the GET form carries the same
// fields as query parameters (dataset, anchor, k) and ignores any other
// parameter.
type TopKRequest struct {
	// Dataset names a registered dataset (required).
	Dataset string `json:"dataset"`
	// Anchor names the taxonomy item every returned chain must pass
	// through (required).
	Anchor string `json:"anchor"`
	// K is how many patterns to return, ranked by descending flip gap
	// (required, ≥ 1).
	K int `json:"k"`
	// Config overlays the dataset's default configuration, like a job
	// submission (POST form only).
	Config *ConfigPatch `json:"config,omitempty"`
	// TimeoutMS bounds the query like SubmitRequest.TimeoutMS.
	TimeoutMS *int64 `json:"timeout_ms,omitempty"`
}

// parseTopKRequest decodes the GET query form or the POST JSON body.
func parseTopKRequest(r *http.Request) (TopKRequest, error) {
	var req TopKRequest
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		req.Dataset = q.Get("dataset")
		req.Anchor = q.Get("anchor")
		if v := q.Get("k"); v != "" {
			k, err := strconv.Atoi(v)
			if err != nil {
				return req, errors.New("k must be an integer")
			}
			req.K = k
		}
		return req, nil
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	return req, nil
}

// handleTopK serves anchored top-K queries. Responses: 200 with the
// finished job (patterns ranked by gap), 202 when the query is still
// running at its deadline, 400 on invalid parameters, 404 for unknown
// datasets or anchors, 503 when the queue is full.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	req, err := parseTopKRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad topk request: %v", err)
		return
	}
	d, ok := s.reg.Get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	if req.Anchor == "" {
		writeError(w, http.StatusBadRequest, "topk queries need an anchor")
		return
	}
	if req.K < 1 {
		writeError(w, http.StatusBadRequest, "topk queries need k ≥ 1, got %d", req.K)
		return
	}
	// Resolve the anchor up front so a typo is a 404 here, not a failed job
	// the client has to dig the error out of.
	if id, known := d.Tree.Dict().Lookup(req.Anchor); !known || !d.Tree.Contains(id) {
		writeError(w, http.StatusNotFound, "unknown anchor %q in dataset %q", req.Anchor, req.Dataset)
		return
	}
	cfg := req.Config.Apply(d.DefaultConfig())
	cfg.TopK = 0 // anchored ranking replaces the global top-K knob
	cfg.Anchor = req.Anchor
	cfg.AnchorTopK = req.K
	if err := cfg.Validate(d.Tree.Height(), d.Src.Len()); err != nil {
		writeError(w, http.StatusBadRequest, "invalid config: %v", err)
		return
	}
	timeout := s.opts.JobTimeout
	if req.TimeoutMS != nil {
		if *req.TimeoutMS < 0 {
			writeError(w, http.StatusBadRequest, "timeout_ms must be ≥ 0")
			return
		}
		if *req.TimeoutMS > 0 {
			timeout = time.Duration(*req.TimeoutMS) * time.Millisecond
		}
	}
	if timeout <= 0 || timeout > s.opts.MaxJobTimeout {
		timeout = s.opts.MaxJobTimeout
	}
	j, err := s.queue.SubmitTimeout(d, JobMine, cfg, nil, timeout)
	if errors.Is(err, ErrQueueFull) {
		w.Header().Set("Retry-After", s.queue.RetryAfterHint())
		writeError(w, http.StatusServiceUnavailable, "%v: retry after a short backoff, or raise -queue-depth", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.queue.Wait(j, timeout)
	v, _ := s.queue.Get(j.ID)
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	if v.Status != StatusDone && v.Status != StatusFailed {
		writeJSON(w, http.StatusAccepted, v)
		return
	}
	writeJSON(w, http.StatusOK, v)
}
