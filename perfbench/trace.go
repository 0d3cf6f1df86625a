package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Start and End are offsets from the trace start.
// Key is the cell key, warm key or request ID the call worked on.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Key    string        `json:"key,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the module a span belongs to: its name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; they are written out once, at the end of
// the run. Span IDs start at 1, so parent 0 means a root span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int, key string) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (concurrent dispatches under one request), so their intervals are
// merged before they are subtracted, and each is clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	kids := map[int][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		covered := time.Duration(0)
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		curLo, curHi := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanStats summarizes the spans of one name: how many, their self times,
// and their durations, in recording order.
type spanStats struct {
	n     int
	self  []time.Duration
	total []time.Duration
}

func (st spanStats) selfSum() time.Duration {
	var s time.Duration
	for _, d := range st.self {
		s += d
	}
	return s
}

func (st spanStats) medianSelfMs() float64 {
	if st.n == 0 {
		return 0
	}
	return median(millis(st.self))
}

func (st spanStats) medianMs() float64 {
	if st.n == 0 {
		return 0
	}
	return median(millis(st.total))
}

// byName groups closed spans by name with their self times.
func byName(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	out := map[string]spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		st.n++
		st.self = append(st.self, self[s.ID])
		st.total = append(st.total, s.dur())
		out[s.Name] = st
	}
	return out
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}
