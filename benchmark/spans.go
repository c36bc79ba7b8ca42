package main

// Spans recorded by the benchmark's own code around the calls into each
// layer: name, start, end, parent span, op id. They are held in memory
// and written when the run ends as Chrome trace_event JSON — the format
// internal/trace exports, so Perfetto opens the file.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hsmcc/internal/trace"
)

// span is one timed interval. Parent indexes the tracer's span slice
// (-1 for an op's root). Modelled spans were not observed where they are
// drawn: they carry a separately measured duration (the lexer inside
// Parse) or times reported by another clock (the daemon's span tree).
type span struct {
	Name       string
	Op         int
	Parent     int
	Worker     int
	Start, End time.Duration // since the tracer's epoch; End < 0 while open
	Modelled   bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer is the span store shared by every worker of a traced run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a span with explicit times and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) close(id int, end time.Duration) {
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// track is one worker's cursor into the tracer: spans it begins nest
// under the innermost span it has open.
type track struct {
	t      *tracer
	worker int
	op     int
	stack  []int
	last   int // index of the span begun most recently
}

func (t *tracer) track(worker int) *track { return &track{t: t, worker: worker} }

// begin opens a span; calling the returned func closes it.
func (k *track) begin(name string) func() {
	parent := -1
	if len(k.stack) > 0 {
		parent = k.stack[len(k.stack)-1]
	}
	id := k.t.add(span{Name: name, Op: k.op, Parent: parent, Worker: k.worker, Start: k.t.now(), End: -1})
	k.stack = append(k.stack, id)
	k.last = id
	return func() {
		k.t.close(id, k.t.now())
		k.stack = k.stack[:len(k.stack)-1]
	}
}

// startOf is when span id began.
func (t *tracer) startOf(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Start
}

// modelled records the span [start, start+d) under the closed span
// parent, clipped to the parent's interval: a modelled child may not
// claim more than its parent measured. It returns the span's index.
func (k *track) modelled(name string, parent int, start, d time.Duration) int {
	k.t.mu.Lock()
	p := k.t.spans[parent]
	k.t.mu.Unlock()
	end := min(max(start+d, p.Start), p.End)
	start = min(max(start, p.Start), p.End)
	return k.t.add(span{Name: name, Op: k.op, Parent: parent, Worker: k.worker, Start: start, End: end, Modelled: true})
}

// total is the summed duration of the spans called name.
func (t *tracer) total(name string) (d time.Duration) {
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// selfTimes returns each span's self time: its duration minus the part
// its direct children cover, never negative. A span still open is an
// error: the
// numbers would describe an interval that never ended.
func selfTimes(spans []span) ([]time.Duration, error) {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			return nil, fmt.Errorf("span %d (%s, op %d) was never closed", i, s.Name, s.Op)
		}
		self[i] = s.dur()
	}
	for i, s := range spans {
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= len(spans) || s.Parent == i {
			return nil, fmt.Errorf("span %d (%s) has invalid parent %d", i, s.Name, s.Parent)
		}
		self[s.Parent] -= s.dur()
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self, nil
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) (map[string]float64, error) {
	self, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += ms(self[i])
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type spanArgs struct {
	ID       int  `json:"id"`
	Parent   int  `json:"parent"`
	Op       int  `json:"op"`
	Modelled bool `json:"modelled,omitempty"`
}

// writeChrome writes the spans as one Chrome trace_event document:
// complete ("X") events, one thread track per benchmark worker.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]trace.ChromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, trace.ChromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Worker,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: spanArgs{ID: i, Parent: s.Parent, Op: s.Op, Modelled: s.Modelled},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(struct {
		TraceEvents []trace.ChromeEvent `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
