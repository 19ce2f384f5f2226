package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sdm/internal/sim"
)

// A nil tracer and nil registry must be usable everywhere — the no-op
// default when observability is off.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.NameProcess(1, "x")
	tr.NameThread(1, 0, "x")
	tr.Emit(1, "c", "n", 0, 10)
	tr.EmitOn(1, 2, "c", "n", 0, 10)
	if tr.SpanCount() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded something")
	}
	ct := tr.ChromeTrace()
	if len(ct.TraceEvents) != 0 {
		t.Fatal("nil tracer exported events")
	}

	var r *Registry
	r.Counter("a").Add(3)
	r.Gauge("b").Set(4)
	r.Histogram("c").Observe(5)
	r.RegisterSource("s", func(put func(string, int64)) { put("k", 1) })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot non-nil")
	}
}

// Layout must place partially overlapping siblings on separate lanes
// and keep true nesting on one lane, so every exported lane is a
// proper nesting (the invariant Analyze's self-time relies on).
func TestLayoutNesting(t *testing.T) {
	tr := NewTracer()
	tr.Emit(1, "c", "parent", 0, 100)
	tr.Emit(1, "c", "child", 10, 40)    // nests inside parent: same lane
	tr.Emit(1, "c", "overlap", 50, 150) // partial overlap: new lane
	tr.Emit(1, "c", "later", 200, 210)  // after everything: back on lane 0

	ct := tr.ChromeTrace()
	lanes := map[string]int{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" {
			lanes[ev.Name] = ev.Tid
		}
	}
	if lanes["parent"] != 0 || lanes["child"] != 0 || lanes["later"] != 0 {
		t.Fatalf("nesting spans not on lane 0: %v", lanes)
	}
	if lanes["overlap"] == 0 {
		t.Fatalf("partially overlapping span shares lane 0: %v", lanes)
	}
	assertProperNesting(t, ct)
}

// assertProperNesting checks that within every (pid, tid) lane, any two
// spans either nest or are disjoint.
func assertProperNesting(t *testing.T, ct *ChromeTrace) {
	t.Helper()
	type lane struct{ pid, tid int }
	byLane := map[lane][]ChromeEvent{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" {
			byLane[lane{ev.Pid, ev.Tid}] = append(byLane[lane{ev.Pid, ev.Tid}], ev)
		}
	}
	for k, evs := range byLane {
		for i := range evs {
			for j := i + 1; j < len(evs); j++ {
				a, b := evs[i], evs[j]
				aEnd, bEnd := a.Ts+a.Dur, b.Ts+b.Dur
				disjoint := aEnd <= b.Ts || bEnd <= a.Ts
				nested := (a.Ts <= b.Ts && bEnd <= aEnd) || (b.Ts <= a.Ts && aEnd <= bEnd)
				if !disjoint && !nested {
					t.Fatalf("lane %v: %q [%v,%v) and %q [%v,%v) partially overlap",
						k, a.Name, a.Ts, aEnd, b.Name, b.Ts, bEnd)
				}
			}
		}
	}
}

func TestExplicitLanesPassThrough(t *testing.T) {
	tr := NewTracer()
	tr.NameProcess(PidServers, "pfs servers")
	tr.NameThread(PidServers, 3, "server 3")
	tr.EmitOn(PidServers, 3, "pfs", "serve", 5, 15)
	// An end before the start clamps rather than producing a negative span.
	tr.EmitOn(PidServers, 3, "pfs", "clamped", 50, 40)
	if sp := tr.Spans()[1]; sp.Start != 50 || sp.End != 50 {
		t.Fatalf("clamped span = [%d,%d], want [50,50]", sp.Start, sp.End)
	}
	ct := tr.ChromeTrace()
	var found bool
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" && ev.Name == "serve" {
			found = true
			if ev.Pid != PidServers || ev.Tid != 3 {
				t.Fatalf("explicit lane moved: pid=%d tid=%d", ev.Pid, ev.Tid)
			}
		}
	}
	if !found {
		t.Fatal("explicit-lane span missing from export")
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.NameProcess(PidRank(0), "rank 0")
	tr.Emit(PidRank(0), "core", "step", 0, 1000, KV{Key: "step", Val: "1"})
	tr.Emit(PidRank(0), "core", "flush:write", 100, 600, KV{Key: "file", Val: "f"})
	tr.EmitOn(PidServers, 0, "pfs", "serve", 200, 400)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := ValidateChrome(got)
	if err != nil {
		t.Fatal(err)
	}
	if spans != 3 {
		t.Fatalf("round-trip spans = %d, want 3", spans)
	}
	// Bare-array form must parse too.
	got2, err := ReadChrome(strings.NewReader(`[{"name":"a","ph":"X","ts":0,"dur":1,"pid":1,"tid":0}]`))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateChrome(got2); err != nil || n != 1 {
		t.Fatalf("bare array: spans=%d err=%v", n, err)
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := []struct {
		name string
		ev   ChromeEvent
	}{
		{"unknown phase", ChromeEvent{Name: "x", Ph: "B", Pid: 1}},
		{"nameless complete", ChromeEvent{Ph: "X", Pid: 1}},
		{"negative ts", ChromeEvent{Name: "x", Ph: "X", Ts: -1, Pid: 1}},
		{"unknown metadata", ChromeEvent{Name: "bogus", Ph: "M", Pid: 1}},
		{"nameless metadata", ChromeEvent{Name: "process_name", Ph: "M", Pid: 1}},
	}
	for _, tc := range cases {
		tr := &ChromeTrace{TraceEvents: []ChromeEvent{tc.ev}}
		if _, err := ValidateChrome(tr); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

// Self time is duration minus same-lane children: a 100µs parent with a
// 40µs child has 60µs self.
func TestAnalyzeSelfTime(t *testing.T) {
	tr := NewTracer()
	tr.Emit(1, "c", "parent", 0, 100_000) // ns → 100µs
	tr.Emit(1, "c", "child", 10_000, 50_000)
	a := Analyze(tr.ChromeTrace())
	self := map[string]SelfTime{}
	for _, st := range a.SelfTimes {
		self[st.Name] = st
	}
	if got := self["parent"].Self; got.Microseconds() != 60 {
		t.Fatalf("parent self = %v, want 60µs", got)
	}
	if got := self["child"].Self; got.Microseconds() != 40 {
		t.Fatalf("child self = %v, want 40µs", got)
	}
	if got := self["parent"].Total; got.Microseconds() != 100 {
		t.Fatalf("parent total = %v, want 100µs", got)
	}
}

// Two back-to-back serve windows from a Figure 6 trace: in microsecond
// floats the first ends at 136515.184 + 7101.371 = 143616.55500000002,
// past the second's start. In nanoseconds they touch, so neither nests
// in the other and each span's self time is its whole duration.
func TestAnalyzeBackToBackInNanoseconds(t *testing.T) {
	ts, dur, next := 136515.184, 7101.371, 143616.555
	if ts+dur <= next {
		t.Fatal("the float sum no longer overshoots; the case tests nothing")
	}
	tr := &ChromeTrace{TraceEvents: []ChromeEvent{
		{Name: "serve", Cat: "pfs", Ph: "X", Ts: ts, Dur: dur, Pid: PidServers, Tid: 3},
		{Name: "serve", Cat: "pfs", Ph: "X", Ts: next, Dur: dur, Pid: PidServers, Tid: 3},
	}}
	a := Analyze(tr)
	if len(a.SelfTimes) != 1 {
		t.Fatalf("self times %+v, want one name", a.SelfTimes)
	}
	st := a.SelfTimes[0]
	if want := 2 * 7101371 * time.Nanosecond; st.Total != want || st.Self != want {
		t.Fatalf("serve total %v, self %v, want both %v", st.Total, st.Self, want)
	}
	if got := a.Servers[0].Busy; got != 2*7101371*time.Nanosecond {
		t.Fatalf("server busy %v, want %v", got, 2*7101371*time.Nanosecond)
	}
}

// A span that starts inside another on its lane but ends after it —
// which this package's export never lays out on one lane, but a trace
// from another writer can hold — is charged to the span it starts in
// only for their overlap.
func TestAnalyzeChargesOverlapOnly(t *testing.T) {
	ct := &ChromeTrace{TraceEvents: []ChromeEvent{
		{Name: "phase1", Ph: "X", Ts: 0, Dur: 100, Pid: 1},
		{Name: "phase2", Ph: "X", Ts: 60, Dur: 90, Pid: 1},
	}}
	self := map[string]time.Duration{}
	for _, st := range Analyze(ct).SelfTimes {
		self[st.Name] = st.Self
	}
	if self["phase1"] != 60*time.Microsecond || self["phase2"] != 90*time.Microsecond {
		t.Fatalf("self times %v, want phase1 60µs and phase2 90µs", self)
	}
}

func TestAnalyzeServerUse(t *testing.T) {
	tr := NewTracer()
	tr.NameThread(PidServers, 0, "server 0")
	tr.Emit(1, "core", "step", 0, 100_000) // defines the trace span
	tr.EmitOn(PidServers, 0, "pfs", "serve", 0, 25_000, KV{Key: "bytes", Val: "4096"})
	tr.EmitOn(PidServers, 0, "pfs", "serve", 50_000, 75_000, KV{Key: "bytes", Val: "100"})
	a := Analyze(tr.ChromeTrace())
	if len(a.Servers) != 1 {
		t.Fatalf("servers = %d, want 1", len(a.Servers))
	}
	s := a.Servers[0]
	if s.Requests != 2 || s.Bytes != 4196 {
		t.Fatalf("requests = %d, bytes = %d, want 2 and 4196", s.Requests, s.Bytes)
	}
	if got := s.Busyness(); got < 0.49 || got > 0.51 {
		t.Fatalf("busyness = %v, want 0.5", got)
	}
	var buf bytes.Buffer
	if err := a.WriteReport(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "idle") || !strings.Contains(buf.String(), " 4196 B ") {
		t.Fatalf("report missing idle fractions or bytes:\n%s", buf.String())
	}
}

func TestStepSummary(t *testing.T) {
	tr := NewTracer()
	tr.Emit(1, "core", "step", 0, 10_000, KV{Key: "step", Val: "1"})
	tr.Emit(1, "core", "flush:write", 0, 5_000, KV{Key: "step", Val: "1"})
	tr.Emit(1, "core", "step", 10_000, 30_000, KV{Key: "step", Val: "2"})
	s := StepSummary(tr.ChromeTrace())
	if !strings.Contains(s, "step 1") || !strings.Contains(s, "step 2") {
		t.Fatalf("step summary missing steps:\n%s", s)
	}
	if StepSummary(NewTracer().ChromeTrace()) != "" {
		t.Fatal("empty trace produced a step summary")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(2)
	c.Add(3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("x") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("y")
	g.Set(7)
	g.Set(4)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d", g.Value())
	}

	h := r.Histogram("z")
	for i := 0; i < 100; i++ {
		h.Observe(sim.Duration(1000)) // all in one bucket
	}
	if h.Count() != 100 || h.Sum() != 100_000 {
		t.Fatalf("hist count=%d sum=%d", h.Count(), h.Sum())
	}
	// 1000 ns sits in bucket 10 (512 <= 1000 < 1024); the quantile
	// reports the bucket's upper bound.
	if q := h.Quantile(0.5); q != 1024 {
		t.Fatalf("p50 = %d, want 1024", q)
	}
	if q := h.Quantile(0.99); q != 1024 {
		t.Fatalf("p99 = %d, want 1024", q)
	}
	h.Observe(-5) // clamps to 0, bucket 0
	if q := (&Histogram{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty hist p50 = %d", q)
	}
}

func TestRegistrySnapshotAndSources(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.steps").Add(4)
	r.Gauge("depth").Set(2)
	r.Histogram("svc").Observe(1000)
	r.RegisterSource("pfs", func(put func(string, int64)) { put("opens", 9) })

	snap := r.Snapshot()
	want := map[string]int64{
		"core.steps": 4,
		"depth":      2,
		"svc.count":  1,
		"pfs.opens":  9,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %d, want %d", k, snap[k], v)
		}
	}

	// Re-registering a source name replaces it — re-wiring after
	// AttachStorage must not double-report.
	r.RegisterSource("pfs", func(put func(string, int64)) { put("opens", 11) })
	snap = r.Snapshot()
	if snap["pfs.opens"] != 11 {
		t.Fatalf("replaced source reports %d, want 11", snap["pfs.opens"])
	}

	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !sortedLines(lines) {
		t.Fatalf("dump not sorted:\n%s", buf.String())
	}
}

func sortedLines(lines []string) bool {
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			return false
		}
	}
	return true
}
