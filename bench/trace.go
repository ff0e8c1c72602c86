package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share OpID; ParentID names the span that caused this one (0 for the
// operation's root span). Times are Unix nanoseconds, so spans built from
// the service's own job timestamps line up with the client's.
type span struct {
	OpID     int64  `json:"op_id"`
	SpanID   int64  `json:"span_id"`
	ParentID int64  `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pass nil and pay one nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	counts map[counterKey]float64
	ids    atomic.Int64

	// curOp and curSpan name the operation in flight and the span that
	// calls from inside the server (cluster dispatches, worker handlers)
	// hang under. Only single-client workloads set them, so an in-flight
	// operation is unambiguous.
	curOp   atomic.Int64
	curSpan atomic.Int64
}

// newID reserves a span ID, so a span's children can name it before it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a reserved ID (0 reserves one) and
// returns the ID.
func (t *tracer) record(op, id, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{op, id, parent, name, start.UnixNano(), end.UnixNano()})
	t.mu.Unlock()
	return id
}

// counterKey names one count recorded at a boundary for one operation.
type counterKey struct {
	op   int64
	name string
}

// add adds v to the operation's named count.
func (t *tracer) add(op int64, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.counts == nil {
		t.counts = make(map[counterKey]float64)
	}
	t.counts[counterKey{op, name}] += v
	t.mu.Unlock()
}

// count returns the operation's named count.
func (t *tracer) count(op int64, name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[counterKey{op, name}]
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// union returns the total time covered by the spans, counting overlapping
// stretches once.
func union(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].StartNS < s[j].StartNS })
	var total int64
	lo, hi := s[0].StartNS, s[0].EndNS
	for _, x := range s[1:] {
		if x.StartNS > hi {
			total += hi - lo
			lo, hi = x.StartNS, x.EndNS
			continue
		}
		if x.EndNS > hi {
			hi = x.EndNS
		}
	}
	return time.Duration(total + hi - lo)
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) time.Duration {
	clipped := make([]span, 0, len(children))
	for _, c := range children {
		if c.StartNS < parent.StartNS {
			c.StartNS = parent.StartNS
		}
		if c.EndNS > parent.EndNS {
			c.EndNS = parent.EndNS
		}
		if c.EndNS > c.StartNS {
			clipped = append(clipped, c)
		}
	}
	return parent.dur() - union(clipped)
}
