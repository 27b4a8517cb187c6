package main

import (
	"sync"
	"time"
)

// recorder keeps the benchmark's own spans in memory. A nil recorder is
// valid and records nothing, which is how runs with tracing off skip it.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) at(t time.Time) float64 { return t.Sub(r.t0).Seconds() }

// add records a finished interval and returns its span ID (0 when r is
// nil).
func (r *recorder) add(name string, parent int, req string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: r.at(start), End: r.at(end)})
	return id
}

// open records a span whose end is set later by close; it lets a
// parent's ID be handed to children before the parent finishes.
func (r *recorder) open(name string, parent int, req string) int {
	now := time.Now()
	return r.add(name, parent, req, now, now)
}

func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	end := r.at(time.Now())
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// attr attaches a program-side timing to a span.
func (r *recorder) attr(id int, name string, seconds float64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	if s.Attr == nil {
		s.Attr = make(map[string]float64)
	}
	s.Attr[name] += seconds
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}
