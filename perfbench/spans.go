package main

import (
	"sort"
	"sync"
	"time"

	"ecofl/internal/obs"
)

// tracer records the benchmark's own spans around each public call it makes
// into a layer. Spans live in memory until the run ends; a span's self time
// is its duration minus the time its children cover. A nil *tracer records
// nothing, so the untimed and the traced run share one code path.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	parent     int // index into spans, -1 for a root
	tid        int // the driver that made the call
	start, end time.Duration
}

// spanID names an open span; the zero value (from a nil tracer) is inert.
type spanID struct {
	t  *tracer
	id int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (spanID{} for a root).
func (t *tracer) begin(parent spanID, tid int, name string) spanID {
	if t == nil {
		return spanID{}
	}
	now := time.Since(t.t0)
	p := -1
	if parent.t != nil {
		p = parent.id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: p, tid: tid, start: now, end: -1})
	return spanID{t: t, id: len(t.spans) - 1}
}

func (s spanID) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0)
	s.t.mu.Lock()
	s.t.spans[s.id].end = now
	s.t.mu.Unlock()
}

// selfTimes returns, per span name, the self time of every closed span in
// seconds: its duration minus the union of its children's intervals.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string][]float64)
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		self := s.end - s.start - covered(children[i])
		out[s.name] = append(out[s.name], self.Seconds())
	}
	return out
}

// covered is the total length of the union of the spans' intervals.
func covered(kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	curS, curE := kids[0].start, kids[0].end
	for _, k := range kids[1:] {
		if k.start > curE {
			total += curE - curS
			curS, curE = k.start, k.end
		} else if k.end > curE {
			curE = k.end
		}
	}
	return total + curE - curS
}

// writeChrome exports the spans as a Chrome trace (chrome://tracing)
// through the repository's obs recorder, one thread lane per driver.
func (t *tracer) writeChrome(path, process string) error {
	tr := obs.New(nil)
	tr.SetMaxEvents(0)
	tr.SetProcessName(1, process)
	t.mu.Lock()
	for _, s := range t.spans {
		if s.end >= 0 {
			tr.Span(1, s.tid, s.name, "perfbench", s.start.Seconds(), s.end.Seconds(), nil)
		}
	}
	t.mu.Unlock()
	return tr.WriteChromeTraceFile(path)
}
