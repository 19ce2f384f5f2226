package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// hostSpan is one interval of host time the benchmark spent inside a
// call into the program (or a probe): the traced run's own record, on
// the wall clock, next to the program's virtual-time spans.
type hostSpan struct {
	Name   string
	Tid    int // 0 = the driver goroutine, 1.. = client goroutines
	Start  time.Duration
	End    time.Duration
	Parent int // index of the enclosing span, -1 at top level
	Round  int
}

// spanRecorder keeps spans in memory until the run ends. A nil
// recorder records nothing, which is how end-to-end runs keep tracing
// off.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []hostSpan
	stack []int // open spans of the driver goroutine
	round int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

func (r *spanRecorder) setRound(n int) {
	if r != nil {
		r.mu.Lock()
		r.round = n
		r.mu.Unlock()
	}
}

// begin opens a span on the driver goroutine, nested in whatever span
// the driver has open; the returned func closes it.
func (r *spanRecorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, hostSpan{Name: name, Start: time.Since(r.t0), Parent: parent, Round: r.round})
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.spans[id].End = time.Since(r.t0)
		r.stack = r.stack[:len(r.stack)-1]
		r.mu.Unlock()
	}
}

// current reports the driver's innermost open span, the parent client
// goroutines hang their spans on.
func (r *spanRecorder) current() int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.stack); n > 0 {
		return r.stack[n-1]
	}
	return -1
}

// record adds a finished span measured on another goroutine.
func (r *spanRecorder) record(name string, tid, parent int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s := start.Sub(r.t0)
	r.spans = append(r.spans, hostSpan{Name: name, Tid: tid, Start: s, End: s + d, Parent: parent, Round: r.round})
	r.mu.Unlock()
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace JSON.
func (r *spanRecorder) writeChrome(path string) error {
	r.mu.Lock()
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: "benchmark", Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Tid,
			Args: map[string]int{"id": i, "parent": s.Parent, "round": s.Round},
		}
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
