package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one rep share rep; parent links a span to the call that caused
// it (0 for a root).
type span struct {
	id, parent, rep int
	layer, detail   string
	start, end      time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(layer, detail string, parent, rep int) int {
	return t.add(layer, detail, parent, rep, time.Now(), time.Time{})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span with known bounds and returns its id.
func (t *tracer) add(layer, detail string, parent, rep int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, rep: rep, layer: layer, detail: detail, start: start, end: end})
	return id
}

// since records the span [start, now) and returns its duration.
func (t *tracer) since(layer string, parent, rep int, start time.Time) time.Duration {
	end := time.Now()
	t.add(layer, "", parent, rep, start, end)
	return end.Sub(start)
}

// selfTimes sums, per layer, the time spans inside reps spent outside their
// children: a span's duration minus the union of its children's intervals
// (children overlap when a sweep runs cells in parallel).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.rep <= 0 {
			continue
		}
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
		covered := time.Duration(0)
		var curStart, curEnd time.Time
		for i, k := range kids {
			if i == 0 || k.start.After(curEnd) {
				covered += curEnd.Sub(curStart)
				curStart, curEnd = k.start, k.end
			} else if k.end.After(curEnd) {
				curEnd = k.end
			}
		}
		covered += curEnd.Sub(curStart)
		self[s.layer] += s.end.Sub(s.start) - covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing
// or ui.perfetto.dev). Every depth of the span tree gets its own block of
// thread rows, and overlapping spans of one depth take separate rows, so
// each row holds properly nested complete events.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	depth := make([]int, len(t.spans)+1)
	order := make([]span, len(t.spans))
	for i, s := range t.spans {
		if s.parent != 0 {
			depth[s.id] = depth[s.parent] + 1 // parents are opened first
		}
		order[i] = s
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].start.Before(order[j].start) })
	laneEnds := make(map[int][]time.Time)
	events := make([]event, 0, len(order))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, s := range order {
		d := depth[s.id]
		lane := 0
		for lane < len(laneEnds[d]) && laneEnds[d][lane].After(s.start) {
			lane++
		}
		if lane == len(laneEnds[d]) {
			laneEnds[d] = append(laneEnds[d], s.end)
		} else {
			laneEnds[d][lane] = s.end
		}
		name := s.layer
		if s.detail != "" {
			name = s.detail
		}
		events = append(events, event{
			Name: name, Cat: s.layer, Ph: "X",
			Ts: us(s.start.Sub(t.origin)), Dur: us(s.end.Sub(s.start)),
			Pid: 1, Tid: 100*d + lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "rep": s.rep},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
