package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SelfTime is the aggregate of one span name across a trace: total
// wall (virtual) duration, self time (duration minus same-lane child
// spans), and occurrence count.
type SelfTime struct {
	Name  string
	Cat   string
	Count int
	Total time.Duration
	Self  time.Duration
}

// ServerUse is one PFS server lane's utilization over the trace span.
type ServerUse struct {
	Pid, Tid int
	Name     string
	Busy     time.Duration
	Span     time.Duration // first span start to last span end, whole trace
	Requests int
	Bytes    int64 // summed from each span's "bytes" arg
}

// Busyness reports the busy fraction (0 when the trace is empty).
func (s ServerUse) Busyness() float64 {
	if s.Span <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(s.Span)
}

// Analysis is the digest of a trace: what sdmtrace prints and what the
// plaintext summary report embeds.
type Analysis struct {
	Spans     int
	Procs     map[int]string
	SelfTimes []SelfTime  // sorted by self time, descending
	Servers   []ServerUse // one per lane of the server pid, sorted by tid
	TraceSpan time.Duration
}

// Analyze digests parsed Chrome events. Lane nesting (guaranteed by
// the exporter's layout) makes self-time exact: a span's self time is
// its duration minus the time spans nested inside it on the same
// (pid, tid) lane cover of it — all of a nested span, the overlap of
// one that outlives it (a trace from another writer). Spans are nested
// in whole nanoseconds, the resolution they were recorded at: the
// exported microsecond floats are rounded back, since a start plus a
// duration in floats can land a hair past the start of the span that
// follows back to back.
func Analyze(tr *ChromeTrace) *Analysis {
	a := &Analysis{Procs: make(map[int]string)}
	type lane struct{ pid, tid int }
	type span struct {
		ev         *ChromeEvent
		start, end int64 // ns
	}
	byLane := make(map[lane][]span)
	laneNames := make(map[lane]string)
	var lo, hi int64
	first := true
	for i := range tr.TraceEvents {
		ev := &tr.TraceEvents[i]
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				a.Procs[ev.Pid] = ev.Args["name"]
			case "thread_name":
				laneNames[lane{ev.Pid, ev.Tid}] = ev.Args["name"]
			}
		case "X":
			a.Spans++
			k := lane{ev.Pid, ev.Tid}
			start := usToNs(ev.Ts)
			sp := span{ev: ev, start: start, end: start + usToNs(ev.Dur)}
			byLane[k] = append(byLane[k], sp)
			if first || sp.start < lo {
				lo = sp.start
			}
			if first || sp.end > hi {
				hi = sp.end
			}
			first = false
		}
	}
	if !first {
		a.TraceSpan = time.Duration(hi - lo)
	}

	agg := make(map[string]*SelfTime)
	for _, spans := range byLane {
		// Sort by (start asc, end desc): parents precede children.
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		// Stack of enclosing spans; each child's overlap with its
		// parent comes off the parent's self time.
		type open struct {
			span
			child int64
		}
		var stack []open
		flush := func(o open) {
			key := o.ev.Cat + "\x00" + o.ev.Name
			st, ok := agg[key]
			if !ok {
				st = &SelfTime{Name: o.ev.Name, Cat: o.ev.Cat}
				agg[key] = st
			}
			st.Count++
			st.Total += time.Duration(o.end - o.start)
			st.Self += time.Duration(o.end - o.start - o.child)
		}
		for _, sp := range spans {
			for len(stack) > 0 {
				top := stack[len(stack)-1]
				if top.end > sp.start {
					break
				}
				flush(top)
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				parent := &stack[len(stack)-1]
				parent.child += min(sp.end, parent.end) - sp.start
			}
			stack = append(stack, open{span: sp})
		}
		for len(stack) > 0 {
			flush(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
	}
	for _, st := range agg {
		a.SelfTimes = append(a.SelfTimes, *st)
	}
	sort.Slice(a.SelfTimes, func(i, j int) bool {
		if a.SelfTimes[i].Self != a.SelfTimes[j].Self {
			return a.SelfTimes[i].Self > a.SelfTimes[j].Self
		}
		return a.SelfTimes[i].Name < a.SelfTimes[j].Name
	})

	// Server utilization: every lane of the server pid.
	for k, spans := range byLane {
		if k.pid != PidServers {
			continue
		}
		u := ServerUse{Pid: k.pid, Tid: k.tid, Name: laneNames[lane{k.pid, k.tid}], Span: a.TraceSpan}
		for _, sp := range spans {
			u.Busy += time.Duration(sp.end - sp.start)
			u.Requests++
			n, _ := strconv.ParseInt(sp.ev.Args["bytes"], 10, 64)
			u.Bytes += n
		}
		a.Servers = append(a.Servers, u)
	}
	sort.Slice(a.Servers, func(i, j int) bool { return a.Servers[i].Tid < a.Servers[j].Tid })
	return a
}

// usToNs rounds exported microseconds back to the nanoseconds they
// were recorded in.
func usToNs(us float64) int64 {
	return int64(math.Round(us * 1e3))
}

// WriteReport prints the analysis: top-N span self-time and per-server
// requests, bytes and busy/idle fractions — how evenly the traced run
// spread its bytes, and how much of the array's time it left unused.
func (a *Analysis) WriteReport(w io.Writer, topN int) error {
	if _, err := fmt.Fprintf(w, "trace: %d spans over %v of virtual time\n", a.Spans, a.TraceSpan); err != nil {
		return err
	}
	if topN <= 0 || topN > len(a.SelfTimes) {
		topN = len(a.SelfTimes)
	}
	if topN > 0 {
		fmt.Fprintf(w, "\ntop %d span names by self time:\n", topN)
		fmt.Fprintf(w, "  %-28s %8s %14s %14s\n", "name", "count", "total", "self")
		for _, st := range a.SelfTimes[:topN] {
			name := st.Name
			if st.Cat != "" {
				name = st.Cat + "/" + st.Name
			}
			fmt.Fprintf(w, "  %-28s %8d %14v %14v\n", clip(name, 28), st.Count, st.Total, st.Self)
		}
	}
	if len(a.Servers) > 0 {
		var busy, span time.Duration
		fmt.Fprintf(w, "\nPFS servers (busy/idle over the trace span):\n")
		for _, s := range a.Servers {
			name := s.Name
			if name == "" {
				name = fmt.Sprintf("server %d", s.Tid)
			}
			fmt.Fprintf(w, "  %-12s %6d reqs %12d B  busy %12v  (%5.1f%% busy, %5.1f%% idle)\n",
				name, s.Requests, s.Bytes, s.Busy, 100*s.Busyness(), 100*(1-s.Busyness()))
			busy += s.Busy
			span += s.Span
		}
		if span > 0 {
			fmt.Fprintf(w, "  %-12s busy fraction %.1f%% — idle %.1f%% is what a deeper StepPipelineDepth (writes and read-ahead) could still overlap\n",
				"aggregate:", 100*float64(busy)/float64(span), 100*(1-float64(busy)/float64(span)))
		}
	}
	return nil
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// StepSummary aggregates spans per step annotation ("step" arg) — the
// per-step lines of the plaintext report.
func StepSummary(tr *ChromeTrace) string {
	type stepAgg struct {
		spans int
		dur   time.Duration
	}
	steps := map[string]*stepAgg{}
	for i := range tr.TraceEvents {
		ev := &tr.TraceEvents[i]
		if ev.Ph != "X" {
			continue
		}
		st, ok := ev.Args["step"]
		if !ok {
			continue
		}
		agg := steps[st]
		if agg == nil {
			agg = &stepAgg{}
			steps[st] = agg
		}
		agg.spans++
		agg.dur += time.Duration(usToNs(ev.Dur))
	}
	if len(steps) == 0 {
		return ""
	}
	keys := make([]string, 0, len(steps))
	for k := range steps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i] < keys[j]
	})
	var b strings.Builder
	b.WriteString("per-step spans:\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "  step %-6s %6d spans  %14v total span time\n", k, steps[k].spans, steps[k].dur)
	}
	return b.String()
}
