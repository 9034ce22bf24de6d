package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. A span covering a single
// call has N 1 and Busy End-Start; an aggregate span stands for N calls
// made inside [Start, End] (an ABR decision per chunk is too fine-grained
// to keep one span each) and Busy is their summed time. A span's self time
// is its Busy minus its children's Busy.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`     // session, shard, request or frame the span belongs to
	Parent int    `json:"parent"` // index of the parent span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
	Busy   int64  `json:"busy_ns"`
}

// tracer keeps spans in memory until the run ends. Times are nanoseconds
// since the Unix epoch, so spans recorded in a child process line up.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// add records a single call and returns its index for children to name as
// their parent.
func (t *tracer) add(name string, id int64, parent int, start, end time.Time) int {
	return t.addAgg(name, id, parent, start, end, 1, end.Sub(start))
}

// addAgg records n calls made inside [start, end] that were busy for busy.
func (t *tracer) addAgg(name string, id int64, parent int, start, end time.Time, n int64, busy time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: start.UnixNano(), End: end.UnixNano(),
		N: n, Busy: int64(busy),
	})
	return len(t.spans) - 1
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// merge appends spans recorded elsewhere (a child process), re-rooting
// their parent indices.
func (t *tracer) merge(spans []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// link makes each root span of the given name a child of the span parents
// names for its ID: how a daemon's spans join the request that caused them.
func (t *tracer) link(name string, parents map[int64]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		if p, ok := parents[s.ID]; ok && s.Name == name && s.Parent < 0 {
			s.Parent = p
		}
	}
}

// layer summarizes every span of one name.
type layer struct {
	calls   int64
	busy    int64 // summed Busy, ns
	self    int64 // busy minus children's busy, ns
	singles []float64
}

// perCall returns the mean busy time per call in ns.
func (l layer) perCall() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.busy) / float64(l.calls)
}

// selfPer returns the self time in ns divided by n.
func (l layer) selfPer(n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(l.self) / float64(n)
}

// quantileNS returns the q-quantile of the single-call durations in ns.
func (l layer) quantileNS(q float64) float64 { return quantile(l.singles, q) }

// layers derives per-name totals and self times from the spans.
func (t *tracer) layers() map[string]*layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	childBusy := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childBusy[s.Parent] += s.Busy
		}
	}
	out := map[string]*layer{}
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layer{}
			out[s.Name] = l
		}
		l.calls += s.N
		l.busy += s.Busy
		l.self += s.Busy - childBusy[i]
		if s.N == 1 {
			l.singles = append(l.singles, float64(s.Busy))
		}
	}
	return out
}

// write stores the spans as JSON lines after one line holding the
// environment record.
func (t *tracer) write(path string, env envRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads spans a child process wrote with writeSpans.
func readSpans(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, err
	}
	return spans, nil
}

// writeSpans stores spans as one JSON array for the parent to merge.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
