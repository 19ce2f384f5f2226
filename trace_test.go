package sdm_test

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"sdm"
	"sdm/internal/obs"
	"sdm/internal/workloads"
)

func traceFUN3D(t *testing.T) *workloads.FUN3D {
	t.Helper()
	f, err := workloads.NewFUN3D(workloads.FUN3DConfig{NX: 8, NY: 8, NZ: 8})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runPipeline runs the Figure-6 pipelined write workload, optionally
// traced, and returns the cluster plus its tracer (nil when untraced).
func runPipeline(t *testing.T, f *workloads.FUN3D, procs, steps, depth int, traced bool) (*sdm.Cluster, *sdm.Tracer, float64) {
	t.Helper()
	cl := sdm.NewCluster(sdm.Origin2000Config(procs))
	var tr *sdm.Tracer
	if traced {
		tr = sdm.NewTracer()
		cl.SetTracer(tr)
		cl.SetMetrics(sdm.NewRegistry())
	}
	if err := f.Stage(cl); err != nil {
		t.Fatal(err)
	}
	st, err := f.PipelineWriteBandwidth(cl, steps, depth)
	if err != nil {
		t.Fatal(err)
	}
	return cl, tr, st.WriteMBps
}

// Tracing only observes virtual clocks, never advances them: a traced
// run must be bit-identical to an untraced one — bandwidth, per-rank
// clocks, pfs stats, db query counts, and file bytes — at every
// pipeline depth.
func TestTracingBitIdentical(t *testing.T) {
	f := traceFUN3D(t)
	const procs, steps = 8, 3
	for _, depth := range []int{1, 2, 4} {
		t.Run("depth"+strconv.Itoa(depth), func(t *testing.T) {
			offCl, _, offMBps := runPipeline(t, f, procs, steps, depth, false)
			onCl, tr, onMBps := runPipeline(t, f, procs, steps, depth, true)
			if tr.SpanCount() == 0 {
				t.Fatal("traced run recorded no spans")
			}
			if offMBps != onMBps {
				t.Fatalf("tracing perturbed bandwidth: off %.9f, on %.9f MB/s", offMBps, onMBps)
			}
			for r := 0; r < procs; r++ {
				if a, b := offCl.World.Comm(r).Now(), onCl.World.Comm(r).Now(); a != b {
					t.Fatalf("rank %d virtual clock differs: off %v, on %v", r, a, b)
				}
			}
			if a, b := offCl.FS.Stats(), onCl.FS.Stats(); a != b {
				t.Fatalf("pfs stats differ:\noff %+v\non  %+v", a, b)
			}
			if a, b := offCl.DB.QueryCount(), onCl.DB.QueryCount(); a != b {
				t.Fatalf("db query counts differ: off %d, on %d", a, b)
			}
			offFiles, onFiles := offCl.ListFiles(), onCl.ListFiles()
			if len(offFiles) != len(onFiles) {
				t.Fatalf("file counts differ: %d vs %d", len(offFiles), len(onFiles))
			}
			for i, name := range offFiles {
				if onFiles[i] != name {
					t.Fatalf("file sets differ at %d: %q vs %q", i, name, onFiles[i])
				}
				a, err := offCl.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				b, err := onCl.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Fatalf("file %q bytes differ with tracing on", name)
				}
			}
		})
	}
}

// The import epoch's spans (import:epoch, one import:read per array)
// observe the forked sub-timelines without touching them: Figure 5's
// ring and history runs must be bit-identical traced and untraced.
func TestTracingBitIdenticalImport(t *testing.T) {
	f := traceFUN3D(t)
	const procs = 8
	// run does the ring distribution (registering its history) on one
	// cluster and replays the history as a new job on a second one.
	run := func(traced bool) ([2]*sdm.Cluster, *sdm.Tracer, [2]*workloads.PartitionStats) {
		var tr *sdm.Tracer
		newCluster := func() *sdm.Cluster {
			cl := sdm.NewCluster(sdm.Origin2000Config(procs))
			if traced {
				cl.SetTracer(tr)
				cl.SetMetrics(sdm.NewRegistry())
			}
			return cl
		}
		if traced {
			tr = sdm.NewTracer()
		}
		ringCl, histCl := newCluster(), newCluster()
		if err := f.Stage(ringCl); err != nil {
			t.Fatal(err)
		}
		var st [2]*workloads.PartitionStats
		var err error
		if st[0], err = f.ImportAndPartition(ringCl, workloads.ModeSDM, true); err != nil {
			t.Fatal(err)
		}
		histCl.AttachStorage(ringCl)
		if st[1], err = f.ImportAndPartition(histCl, workloads.ModeSDM, false); err != nil {
			t.Fatal(err)
		}
		if st[0].FromHistory || !st[1].FromHistory {
			t.Fatalf("history flags = %v, %v; want ring then replay", st[0].FromHistory, st[1].FromHistory)
		}
		return [2]*sdm.Cluster{ringCl, histCl}, tr, st
	}
	offCls, _, off := run(false)
	onCls, tr, on := run(true)
	epochs := 0
	for _, s := range tr.Spans() {
		if s.Cat == "core" && s.Name == "import:epoch" {
			epochs++
		}
	}
	// Per rank: the edge epoch and the data epoch of the ring run, the
	// data epoch of the history run.
	if epochs != 3*procs {
		t.Fatalf("traced run recorded %d import:epoch spans, want %d", epochs, 3*procs)
	}
	for i := range off {
		if *off[i] != *on[i] {
			t.Fatalf("tracing perturbed import run %d:\noff %+v\non  %+v", i, *off[i], *on[i])
		}
	}
	for job, offCl := range offCls {
		for r := 0; r < procs; r++ {
			if a, b := offCl.World.Comm(r).Now(), onCls[job].World.Comm(r).Now(); a != b {
				t.Fatalf("job %d rank %d virtual clock differs: off %v, on %v", job, r, a, b)
			}
		}
	}
	offCl, onCl := offCls[1], onCls[1]
	if a, b := offCl.FS.Stats(), onCl.FS.Stats(); a != b {
		t.Fatalf("pfs stats differ:\noff %+v\non  %+v", a, b)
	}
	if a, b := offCl.DB.QueryCount(), onCl.DB.QueryCount(); a != b {
		t.Fatalf("db query counts differ: off %d, on %d", a, b)
	}
}

// Span-structure invariants over a real traced run: every Begin was
// matched by End, no negative spans, flush spans carry their step and
// stay inside that step's span on the same rank, and a deep pipeline
// actually produces overlapping in-flight flushes.
func TestSpanInvariants(t *testing.T) {
	f := traceFUN3D(t)
	const procs, steps = 8, 4
	for _, depth := range []int{1, 2, 4} {
		t.Run("depth"+strconv.Itoa(depth), func(t *testing.T) {
			_, tr, _ := runPipeline(t, f, procs, steps, depth, true)
			spans := tr.Spans()
			if len(spans) == 0 {
				t.Fatal("no spans recorded")
			}

			// Step span bounds per (pid, step annotation): a timestep is
			// closed twice, once by its write step and once by the
			// read-back's.
			type key struct {
				pid  int
				step string
			}
			stepBounds := map[key][][2]int64{}
			arg := func(s *obs.Span, k string) (string, bool) {
				for _, kv := range s.Args {
					if kv.Key == k {
						return kv.Val, true
					}
				}
				return "", false
			}
			for i := range spans {
				s := &spans[i]
				if s.End < s.Start {
					t.Fatalf("span %s/%s has negative duration [%d,%d]", s.Cat, s.Name, s.Start, s.End)
				}
				if s.Cat == "core" && s.Name == "step" {
					st, _ := arg(s, "step")
					stepBounds[key{s.Pid, st}] = append(stepBounds[key{s.Pid, st}], [2]int64{int64(s.Start), int64(s.End)})
				}
			}

			flushes, overlapping := 0, false
			var prevEnd map[int]int64
			prevEnd = map[int]int64{}
			for i := range spans {
				s := &spans[i]
				if s.Cat != "core" || s.Name != "flush:write" {
					continue
				}
				flushes++
				if _, ok := arg(s, "file"); !ok {
					t.Fatalf("flush span without file annotation: %+v", s)
				}
				st, ok := arg(s, "step")
				if !ok {
					t.Fatalf("flush span without step annotation: %+v", s)
				}
				bounds, ok := stepBounds[key{s.Pid, st}]
				if !ok {
					t.Fatalf("flush annotated with step %s but no step span on pid %d", st, s.Pid)
				}
				inside := false
				for _, b := range bounds {
					inside = inside || int64(s.Start) >= b[0] && int64(s.End) <= b[1]
				}
				if !inside {
					t.Fatalf("flush [%d,%d] escapes step %s spans %v on pid %d",
						s.Start, s.End, st, bounds, s.Pid)
				}
				if end, ok := prevEnd[s.Pid]; ok && int64(s.Start) < end {
					overlapping = true
				}
				if int64(s.End) > prevEnd[s.Pid] {
					prevEnd[s.Pid] = int64(s.End)
				}
			}
			if flushes == 0 {
				t.Fatal("no flush:write spans recorded")
			}
			if depth >= 4 && !overlapping {
				t.Fatal("depth-4 pipeline shows no overlapping flush spans")
			}
		})
	}
}

// End-to-end Chrome export: a depth-4 trace written to disk parses,
// validates against the schema, shows rank and server tracks, and
// every exported lane is a proper nesting (Perfetto renders it
// without inference).
func TestChromeExportEndToEnd(t *testing.T) {
	f := traceFUN3D(t)
	const procs, steps = 8, 3
	_, tr, _ := runPipeline(t, f, procs, steps, 4, true)

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteChromeFile(path); err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	ct, err := obs.ReadChrome(fh)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ValidateChrome(ct)
	if err != nil {
		t.Fatal(err)
	}
	if spans != tr.SpanCount() {
		t.Fatalf("exported %d spans, tracer holds %d", spans, tr.SpanCount())
	}

	// Track names: every rank plus the server/catalog pids.
	a := obs.Analyze(ct)
	for r := 0; r < procs; r++ {
		if a.Procs[obs.PidRank(r)] == "" {
			t.Fatalf("rank %d has no process_name metadata", r)
		}
	}
	if a.Procs[obs.PidServers] == "" || a.Procs[obs.PidCatalog] == "" {
		t.Fatalf("server/catalog tracks unnamed: %v", a.Procs)
	}
	if len(a.Servers) == 0 {
		t.Fatal("no PFS server lanes in the export")
	}
	for _, s := range a.Servers {
		if b := s.Busyness(); b < 0 || b > 1 {
			t.Fatalf("server %d busyness %v out of range", s.Tid, b)
		}
	}

	// A deep pipeline must fan per-file flushes onto extra fork lanes
	// of at least one rank, and every lane must nest properly.
	extraLane := false
	type lane struct{ pid, tid int }
	byLane := map[lane][]obs.ChromeEvent{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		byLane[lane{ev.Pid, ev.Tid}] = append(byLane[lane{ev.Pid, ev.Tid}], ev)
		if ev.Pid >= obs.PidRank(0) && ev.Pid <= obs.PidRank(procs-1) && ev.Tid > 0 {
			extraLane = true
		}
	}
	if !extraLane {
		t.Fatal("no forked lanes on any rank — overlap lost in layout")
	}
	// Compare at nanosecond resolution: Ts/Dur are microsecond floats,
	// so ns-exact adjacent windows can differ by an ulp after x.Ts+x.Dur.
	ns := func(us float64) int64 { return int64(math.Round(us * 1e3)) }
	for k, evs := range byLane {
		for i := range evs {
			for j := i + 1; j < len(evs); j++ {
				x, y := evs[i], evs[j]
				xs, xe := ns(x.Ts), ns(x.Ts+x.Dur)
				ys, ye := ns(y.Ts), ns(y.Ts+y.Dur)
				disjoint := xe <= ys || ye <= xs
				nested := (xs <= ys && ye <= xe) || (ys <= xs && xe <= ye)
				if !disjoint && !nested {
					t.Fatalf("lane %v: %q [%d,%d] and %q [%d,%d] partially overlap",
						k, x.Name, xs, xe, y.Name, ys, ye)
				}
			}
		}
	}
}

// The metrics registry picks up every subsystem once wired through the
// cluster, and keeps working after AttachStorage re-wires the sources.
func TestClusterMetricsRegistry(t *testing.T) {
	f := traceFUN3D(t)
	cl := sdm.NewCluster(sdm.Origin2000Config(4))
	reg := sdm.NewRegistry()
	cl.SetMetrics(reg)
	if err := f.Stage(cl); err != nil {
		t.Fatal(err)
	}
	if _, err := f.PipelineWriteBandwidth(cl, 2, 2); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, key := range []string{
		"core.steps", "core.flushed-files", "core.staged-bytes",
		"pfs.write-requests", "pfs.bytes-written",
		"metadb.queries", "catalog.calls",
	} {
		if snap[key] <= 0 {
			t.Errorf("metric %q = %d, want > 0", key, snap[key])
		}
	}
	// The snapshot source must agree with the subsystem accessor.
	if got, want := snap["pfs.bytes-written"], cl.FS.Stats().BytesWritten; got != want {
		t.Fatalf("pfs.bytes-written = %d, accessor says %d", got, want)
	}
	if got, want := snap["metadb.queries"], cl.DB.QueryCount(); got != want {
		t.Fatalf("metadb.queries = %d, accessor says %d", got, want)
	}
}

// Self times over a real Figure 6 trace: every case traced, the
// Level-3 one analyzed. Back-to-back spans must not nest through the
// exported floats' rounding, and a span that outlives the one it
// starts in must not be charged to it in full: no self time is
// negative, and none exceeds its total.
func TestAnalyzeFigure6SelfTimes(t *testing.T) {
	var fig *workloads.Figure
	for i := range workloads.Figures {
		if workloads.Figures[i].Name == "fig6" {
			fig = &workloads.Figures[i]
		}
	}
	var tr *sdm.Tracer
	sc := workloads.Scale{NX: 16, Procs: 16, Steps: 4}
	if _, err := fig.Run(sc, func(cfg sdm.ClusterConfig) *sdm.Cluster {
		cl := sdm.NewCluster(cfg)
		tr = sdm.NewTracer()
		cl.SetTracer(tr)
		return cl
	}); err != nil {
		t.Fatal(err)
	}
	a := obs.Analyze(tr.ChromeTrace())
	if len(a.SelfTimes) == 0 {
		t.Fatal("no spans")
	}
	for _, st := range a.SelfTimes {
		if st.Self < 0 || st.Self > st.Total {
			t.Errorf("%s/%s: self time %v of total %v", st.Cat, st.Name, st.Self, st.Total)
		}
	}
}
