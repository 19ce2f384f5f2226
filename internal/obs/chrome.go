package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// ChromeEvent is one entry of the Chrome trace-event format ("X"
// complete events for spans, "M" metadata events for track names).
// Timestamps are microseconds of virtual time; fractional values keep
// nanosecond precision.
type ChromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat,omitempty"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur,omitempty"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args ChromeArgs `json:"args,omitempty"`
}

// ChromeArgs are an event's "args". Reading accepts any JSON scalar as a
// value and keeps its text: a string as itself, a number, true, false or
// null as written — so a trace whose args are numbers, as the lifecycle
// benchmark's span file has, reads like one whose args are strings.
type ChromeArgs map[string]string

// UnmarshalJSON reads an args object whose values are JSON scalars.
func (a *ChromeArgs) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw == nil {
		*a = nil
		return nil
	}
	args := make(ChromeArgs, len(raw))
	for k, v := range raw {
		switch v[0] {
		case '"':
			var s string
			if err := json.Unmarshal(v, &s); err != nil {
				return err
			}
			args[k] = s
		case '{', '[':
			return fmt.Errorf("obs: arg %q is not a JSON scalar", k)
		default:
			args[k] = string(v)
		}
	}
	*a = args
	return nil
}

// ChromeTrace is the JSON-object form of a trace file, loadable by
// Perfetto and chrome://tracing.
type ChromeTrace struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
}

// ChromeTrace renders the recorded spans (after lane layout) as a
// Chrome trace-event object.
func (t *Tracer) ChromeTrace() *ChromeTrace {
	if t == nil {
		return &ChromeTrace{TraceEvents: []ChromeEvent{}}
	}
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	procs := make(map[int]string, len(t.procs))
	for k, v := range t.procs {
		procs[k] = v
	}
	threads := make(map[[2]int]string, len(t.threads))
	for k, v := range t.threads {
		threads[k] = v
	}
	t.mu.Unlock()

	laid := layout(spans)
	events := make([]ChromeEvent, 0, len(laid)+2*len(procs))

	// Metadata: name every pid and lane that appears.
	seenPid := map[int]bool{}
	seenLane := map[[2]int]bool{}
	for _, ls := range laid {
		seenPid[ls.Pid] = true
		seenLane[[2]int{ls.Pid, ls.lane}] = true
	}
	for pid := range procs {
		seenPid[pid] = true
	}
	pids := make([]int, 0, len(seenPid))
	for pid := range seenPid {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		name := procs[pid]
		if name == "" {
			name = fmt.Sprintf("pid %d", pid)
		}
		events = append(events, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]string{"name": name},
		})
		lanes := make([][2]int, 0, 4)
		for key := range seenLane {
			if key[0] == pid {
				lanes = append(lanes, key)
			}
		}
		for key := range threads {
			if key[0] == pid && !seenLane[key] {
				lanes = append(lanes, key)
			}
		}
		sort.Slice(lanes, func(a, b int) bool { return lanes[a][1] < lanes[b][1] })
		for _, key := range lanes {
			name := threads[key]
			if name == "" {
				name = trackLabel(key[1])
			}
			events = append(events, ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: key[1],
				Args: map[string]string{"name": name},
			})
		}
	}

	for _, ls := range laid {
		ev := ChromeEvent{
			Name: ls.Name,
			Cat:  ls.Cat,
			Ph:   "X",
			Ts:   float64(ls.Start) / 1e3,
			Dur:  float64(ls.End-ls.Start) / 1e3,
			Pid:  ls.Pid,
			Tid:  ls.lane,
		}
		if len(ls.Args) > 0 {
			ev.Args = make(map[string]string, len(ls.Args))
			for _, kv := range ls.Args {
				ev.Args[kv.Key] = kv.Val
			}
		}
		events = append(events, ev)
	}
	return &ChromeTrace{TraceEvents: events}
}

// WriteChrome writes the trace as indented Chrome trace-event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.ChromeTrace())
}

// WriteChromeFile writes the trace JSON to a file.
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadChrome parses a Chrome trace-event JSON document (the object
// form produced by WriteChrome, or a bare event array) back into
// events — the shared input path for cmd/sdmtrace and the trace tests.
func ReadChrome(r io.Reader) (*ChromeTrace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var tr ChromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		var events []ChromeEvent
		if err2 := json.Unmarshal(data, &events); err2 != nil {
			return nil, fmt.Errorf("obs: not a Chrome trace: %v", err)
		}
		tr.TraceEvents = events
	}
	return &tr, nil
}

// ValidateChrome checks the structural invariants of a trace: known
// phase kinds, non-negative timestamps and durations, named complete
// events. It returns the number of complete ("X") span events.
func ValidateChrome(tr *ChromeTrace) (spans int, err error) {
	for i := range tr.TraceEvents {
		ev := &tr.TraceEvents[i]
		switch ev.Ph {
		case "X":
			if ev.Name == "" {
				return spans, fmt.Errorf("obs: event %d: complete event with empty name", i)
			}
			if ev.Ts < 0 || ev.Dur < 0 {
				return spans, fmt.Errorf("obs: event %d (%s): negative ts/dur", i, ev.Name)
			}
			spans++
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				return spans, fmt.Errorf("obs: event %d: unknown metadata event %q", i, ev.Name)
			}
			if ev.Args["name"] == "" {
				return spans, fmt.Errorf("obs: event %d: metadata event without name arg", i)
			}
		default:
			return spans, fmt.Errorf("obs: event %d: unsupported phase %q", i, ev.Ph)
		}
	}
	return spans, nil
}
