// Package obs is the observability layer for the simulated I/O stack:
// a span tracer pinned to the virtual clock (sim.Time timestamps, never
// host time) and a metrics registry the subsystem stats register into.
//
// Everything in this package is nil-safe: a nil *Tracer or nil
// *Registry is the no-op default, so instrumented hot paths cost one
// nil check when observability is off and — because the tracer only
// *observes* clock values, never advances them — enabling it cannot
// perturb a single virtual timestamp. That property is pinned by a
// differential test at the repo root.
//
// Track model (Chrome trace-event terms):
//
//   - pid PidRank(r) = one simulated MPI rank. Lane (tid) 0 is the
//     rank's main timeline; forked sub-timelines (per-file flushes of a
//     split-collective step, aggregator phase-2 runs) overlap in
//     virtual time and are laid out onto extra lanes at export time.
//   - pid PidServers = the PFS I/O servers, one lane per server,
//     carrying each server's busy windows (service spans from
//     sim.Resource.Acquire).
//   - pid PidCatalog = the metadata catalog, spans around each charged
//     catalog call (RecordWrites batches, lookups).
//
// Lane assignment for auto-lane spans happens once, at export: spans
// on a pid are sorted by (start asc, end desc, emit order) and greedily
// placed on the first lane where they either nest inside the currently
// open span or start after it ends — so overlapping siblings (the
// interesting case: a depth-4 pipeline's in-flight flushes) land on
// separate lanes and render side by side in Perfetto.
package obs

import (
	"fmt"
	"sort"
	"sync"

	"sdm/internal/sim"
)

// Reserved pids for the non-rank tracks. Rank pids are 1+rank, so keep
// these out of any plausible rank range.
const (
	PidServers = 1 << 20
	PidCatalog = 1<<20 + 1
	PidStore   = 1<<20 + 2
	// PidSDMD is the network daemon's request track. Unlike the
	// simulation tracks, sdmd spans carry host time (nanoseconds since
	// the server started) — the daemon serves real clients, not
	// simulated ranks — but share the Chrome export machinery.
	PidSDMD = 1<<20 + 3
)

// PidRank maps an MPI rank to its trace process id.
func PidRank(rank int) int { return rank + 1 }

// AutoLane marks a span for export-time lane assignment.
const AutoLane = -1

// KV is one key/value annotation on a span (Chrome "args").
type KV struct {
	Key string
	Val string
}

// Span is one closed interval of virtual time on a track.
type Span struct {
	Pid   int
	Tid   int // AutoLane, or an explicit lane (PFS server index)
	Cat   string
	Name  string
	Start sim.Time
	End   sim.Time
	Args  []KV
}

// Dur reports the span's virtual duration.
func (s *Span) Dur() sim.Duration { return s.End.Sub(s.Start) }

// Tracer records spans against virtual timestamps. Safe for concurrent
// use: ranks take turns, but sdmd's request handlers emit their
// host-time spans from goroutines of their own. A nil Tracer is the
// no-op default.
type Tracer struct {
	mu      sync.Mutex
	spans   []Span
	procs   map[int]string
	threads map[[2]int]string
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{
		procs:   make(map[int]string),
		threads: make(map[[2]int]string),
	}
}

// NameProcess labels a pid in the exported trace.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procs[pid] = name
	t.mu.Unlock()
}

// NameThread labels an explicit lane in the exported trace.
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[[2]int{pid, tid}] = name
	t.mu.Unlock()
}

// Emit records a closed span with export-time lane assignment.
func (t *Tracer) Emit(pid int, cat, name string, start, end sim.Time, args ...KV) {
	t.EmitOn(pid, AutoLane, cat, name, start, end, args...)
}

// EmitOn records a closed span on an explicit lane (used where the
// lane is meaningful, e.g. one lane per PFS server).
func (t *Tracer) EmitOn(pid, tid int, cat, name string, start, end sim.Time, args ...KV) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Pid: pid, Tid: tid, Cat: cat, Name: name, Start: start, End: end, Args: args})
	t.mu.Unlock()
}

// SpanCount reports the number of recorded spans.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the recorded spans, in emission order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// laidSpan is a span with its final lane, after layout.
type laidSpan struct {
	Span
	lane int
}

// layout assigns lanes to AutoLane spans per pid. Spans keeping an
// explicit Tid are passed through. Within a pid, auto spans are placed
// greedily on the first lane where they nest inside the lane's open
// span or start at/after its end, so partial overlaps never share a
// lane; the result is a proper nesting on every lane.
func layout(spans []Span) []laidSpan {
	type idxSpan struct {
		i int
		s *Span
	}
	byPid := make(map[int][]idxSpan)
	out := make([]laidSpan, 0, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Tid != AutoLane {
			out = append(out, laidSpan{Span: *s, lane: s.Tid})
			continue
		}
		byPid[s.Pid] = append(byPid[s.Pid], idxSpan{i, s})
	}
	pids := make([]int, 0, len(byPid))
	for pid := range byPid {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		group := byPid[pid]
		sort.SliceStable(group, func(a, b int) bool {
			sa, sb := group[a].s, group[b].s
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			if sa.End != sb.End {
				return sa.End > sb.End // longer (enclosing) first
			}
			return group[a].i < group[b].i
		})
		// Each lane keeps a stack of open spans; a span fits a lane if,
		// after popping spans that ended at/before its start, the stack
		// is empty or the top encloses it.
		var lanes [][]sim.Time // stack of open-span end times per lane
		for _, is := range group {
			s := is.s
			placed := -1
			for li := range lanes {
				st := lanes[li]
				for len(st) > 0 && st[len(st)-1] <= s.Start {
					st = st[:len(st)-1]
				}
				if len(st) == 0 || st[len(st)-1] >= s.End {
					lanes[li] = append(st, s.End)
					placed = li
					break
				}
				lanes[li] = st
			}
			if placed < 0 {
				lanes = append(lanes, []sim.Time{s.End})
				placed = len(lanes) - 1
			}
			out = append(out, laidSpan{Span: *s, lane: placed})
		}
	}
	return out
}

// trackLabel returns the default lane label used when no explicit
// thread name was registered.
func trackLabel(lane int) string {
	if lane == 0 {
		return "main"
	}
	return fmt.Sprintf("lane %d", lane)
}
