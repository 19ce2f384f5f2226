package workloads

import (
	"reflect"
	"testing"

	"sdm"
)

// smallFUN3D builds a fast workload for shape tests.
func smallFUN3D(t *testing.T) *FUN3D {
	t.Helper()
	f, err := NewFUN3D(FUN3DConfig{NX: 8, NY: 8, NZ: 8})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func newCluster(procs int) *sdm.Cluster {
	return sdm.NewCluster(sdm.Origin2000Config(procs))
}

func TestFig5ShapeOriginalVsSDMVsHistory(t *testing.T) {
	// 16x16x16, not smallFUN3D's 8x8x8: since the import epoch overlaps
	// the edge1+edge2 reads the history run skips, the history's fixed
	// costs (database lookup, file open) only pay for themselves in the
	// total from about 12x12x12 up (8x8x8: 0.0171 s against the ring's
	// 0.0166 s; here 0.0397 s against 0.0417 s).
	f, err := NewFUN3D(FUN3DConfig{NX: 16, NY: 16, NZ: 16})
	if err != nil {
		t.Fatal(err)
	}
	cl := newCluster(8)
	if err := f.Stage(cl); err != nil {
		t.Fatal(err)
	}

	orig, err := f.ImportAndPartition(cl, ModeOriginal, false)
	if err != nil {
		t.Fatal(err)
	}
	noHist, err := f.ImportAndPartition(cl, ModeSDM, true)
	if err != nil {
		t.Fatal(err)
	}
	if noHist.FromHistory {
		t.Fatal("first SDM run unexpectedly found a history")
	}
	withHist, err := f.ImportAndPartition(cl, ModeSDM, true)
	if err != nil {
		t.Fatal(err)
	}
	if !withHist.FromHistory {
		t.Fatal("second SDM run did not use the registered history")
	}

	// Figure 5's ordering: original import is slowest (serial read +
	// broadcast); SDM's parallel import is faster; the history run
	// avoids importing the edges entirely.
	if orig.ImportSec <= noHist.ImportSec {
		t.Errorf("original import %.4fs not slower than SDM %.4fs", orig.ImportSec, noHist.ImportSec)
	}
	if orig.TotalSec <= noHist.TotalSec {
		t.Errorf("original total %.4fs not slower than SDM %.4fs", orig.TotalSec, noHist.TotalSec)
	}
	if withHist.ImportSec >= noHist.ImportSec {
		t.Errorf("history import %.4fs not below no-history import %.4fs",
			withHist.ImportSec, noHist.ImportSec)
	}
	if withHist.TotalSec >= noHist.TotalSec {
		t.Errorf("history total %.4fs not below no-history total %.4fs",
			withHist.TotalSec, noHist.TotalSec)
	}
}

func TestFig5HistoryBeatsRingAtScale(t *testing.T) {
	// The history file's fixed costs (database lookup, file open) are
	// only amortized on meshes of realistic size — the regime the paper
	// measured. At ~100k edges the ring's scan and communication exceed
	// the history read, and the total falls with it.
	if testing.Short() {
		t.Skip("scaled mesh; skipped with -short")
	}
	f, err := NewFUN3D(FUN3DConfig{NX: 24, NY: 24, NZ: 24, EdgeArrays: 1, NodeArrays: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl := newCluster(8)
	if err := f.Stage(cl); err != nil {
		t.Fatal(err)
	}
	noHist, err := f.ImportAndPartition(cl, ModeSDM, true)
	if err != nil {
		t.Fatal(err)
	}
	withHist, err := f.ImportAndPartition(cl, ModeSDM, true)
	if err != nil {
		t.Fatal(err)
	}
	if !withHist.FromHistory {
		t.Fatal("history not used")
	}
	if withHist.DistributeSec >= noHist.DistributeSec {
		t.Errorf("history distribution %.4fs not below ring %.4fs",
			withHist.DistributeSec, noHist.DistributeSec)
	}
	if withHist.TotalSec >= noHist.TotalSec {
		t.Errorf("history total %.4fs not below no-history total %.4fs",
			withHist.TotalSec, noHist.TotalSec)
	}
	// The original's two-pass scan also loses to the single-pass ring
	// at this scale.
	orig, err := f.ImportAndPartition(cl, ModeOriginal, false)
	if err != nil {
		t.Fatal(err)
	}
	if orig.DistributeSec <= noHist.DistributeSec {
		t.Errorf("original two-pass distribution %.4fs not above SDM ring %.4fs",
			orig.DistributeSec, noHist.DistributeSec)
	}
}

// The import epoch forks and rebases the rank clocks; the schedule it
// produces must not depend on goroutine interleaving. Every fresh job
// over the same staged mesh and history reports the same virtual times
// (CI repeats this with -count=20).
func TestImportEpochDeterministic(t *testing.T) {
	f := smallFUN3D(t)
	base := newCluster(8)
	if err := f.Stage(base); err != nil {
		t.Fatal(err)
	}
	ring, err := f.ImportAndPartition(base, ModeSDM, true)
	if err != nil {
		t.Fatal(err)
	}
	var first *PartitionStats
	for i := 0; i < 4; i++ {
		cl := newCluster(8)
		cl.AttachStorage(base)
		st, err := f.ImportAndPartition(cl, ModeSDM, false)
		if err != nil {
			t.Fatal(err)
		}
		if !st.FromHistory {
			t.Fatal("history not replayed")
		}
		if st.LocalEdges != ring.LocalEdges || st.LocalNodes != ring.LocalNodes {
			t.Fatalf("replay gave rank 0 %d edges/%d nodes, ring gave %d/%d",
				st.LocalEdges, st.LocalNodes, ring.LocalEdges, ring.LocalNodes)
		}
		if first == nil {
			first = st
		} else if *st != *first {
			t.Fatalf("run %d differs from run 0:\n%+v\n%+v", i, *st, *first)
		}
	}
}

func TestFig6ShapeLevels(t *testing.T) {
	f := smallFUN3D(t)
	var results []*Fig6Stats
	for _, level := range []sdm.FileOrganization{sdm.Level1, sdm.Level2, sdm.Level3} {
		cl := newCluster(8)
		if err := f.Stage(cl); err != nil {
			t.Fatal(err)
		}
		st, err := f.WriteReadBandwidth(cl, level, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.WriteMBps <= 0 || st.ReadMBps <= 0 {
			t.Fatalf("level %v: degenerate bandwidths %+v", level, st)
		}
		results = append(results, st)
	}
	l1, l2, l3 := results[0], results[1], results[2]
	// File counts: level1 = 5 datasets x 2 steps = 10, level2 = 5,
	// level3 = 2 groups.
	if l1.Files != 10 || l2.Files != 5 || l3.Files != 2 {
		t.Fatalf("file counts %d/%d/%d, want 10/5/2", l1.Files, l2.Files, l3.Files)
	}
	// Open and view counts must not increase with the level.
	if l3.FileOpens > l2.FileOpens || l2.FileOpens > l1.FileOpens {
		t.Fatalf("opens not decreasing: %d/%d/%d", l1.FileOpens, l2.FileOpens, l3.FileOpens)
	}
	if l3.FileViews > l2.FileViews || l2.FileViews > l1.FileViews {
		t.Fatalf("views not decreasing: %d/%d/%d", l1.FileViews, l2.FileViews, l3.FileViews)
	}
	// Bandwidth ordering (allowing equality jitter): level3 >= level1
	// within 2%, the paper's "not significant but present" gap.
	if l3.WriteMBps < l1.WriteMBps*0.98 {
		t.Fatalf("level3 write %.1f MB/s below level1 %.1f MB/s", l3.WriteMBps, l1.WriteMBps)
	}
}

// TestFiguresPaperScaleShape carries the assertions the toy-scale tests
// around it cannot: at PaperScale — sdmbench's defaults, the scale of the
// BENCH files — every figure and ablation of the table shows the shape
// the paper claims of it. For Figure 6 that is level 3 at or above level
// 2 at or above level 1, writing and reading: with every file striped so
// that one step covers the servers once, what separates the levels is
// how often opens are paid.
func TestFiguresPaperScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper scale; skipped with -short")
	}
	in := &Inputs{Scale: PaperScale}
	for i := range Figures {
		fig := &Figures[i]
		t.Run(fig.Name, func(t *testing.T) {
			rows, err := fig.Run(in, sdm.NewCluster)
			if err != nil {
				t.Fatal(err)
			}
			if err := fig.Shape(rows); err != nil {
				t.Errorf("%s: %v\nclaim: %s", fig.Name, err, fig.Claim)
			}
		})
	}
}

// TestSharedInputsChangeNoRow: every figure run on one shared Inputs,
// as cmd/sdmbench runs them, gives exactly the rows it gives on inputs
// of its own.
func TestSharedInputsChangeNoRow(t *testing.T) {
	sc := Scale{NX: 8, Procs: 8, Steps: 2, RTNX: 6, RTSteps: 2, PipeSteps: 2}
	shared := &Inputs{Scale: sc}
	for i := range Figures {
		fig := &Figures[i]
		got, err := fig.Run(shared, sdm.NewCluster)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fig.Run(&Inputs{Scale: sc}, sdm.NewCluster)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows on shared inputs differ from rows on fresh ones:\n%v\n%v", fig.Name, got, want)
		}
	}
}

// TestShapesFailWhenBroken feeds each figure's Shape rows that hold its
// claim and rows that break it: a Shape that cannot fail checks nothing.
func TestShapesFailWhenBroken(t *testing.T) {
	row := func(name string, kv ...any) Row {
		m := map[string]float64{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1].(float64)
		}
		return Row{Case: name, Metrics: m}
	}
	fig5 := func(name string, imp, distri float64) Row {
		return row(name, "sim-import-s/op", imp, "sim-distri-s/op", distri, "sim-total-s/op", imp+distri)
	}
	rw := func(name string, w, r float64) Row { return row(name, writeMBps, w, readMBps, r) }
	fig7 := func(o32, o64, a32, a64, b32, b64 float64) []Row {
		return []Row{row("original-32", writeMBps, o32), row("original-64", writeMBps, o64),
			row("level1-32", writeMBps, a32), row("level1-64", writeMBps, a64),
			row("level2/3-32", writeMBps, b32), row("level2/3-64", writeMBps, b64)}
	}
	sweep := func(bw ...float64) (rows []Row) {
		for i, servers := range []string{"servers-1", "servers-2", "servers-5", "servers-10", "servers-20"} {
			rows = append(rows, row(servers, writeMBps, bw[i]))
		}
		return rows
	}
	openCost := func(name string, cheap, expensive float64) Row {
		return row(name, writeMBps+"-cheap", cheap, writeMBps+"-expensive", expensive)
	}
	for _, tc := range []struct {
		fig, breaks  string
		good, broken []Row
	}{
		{"fig5", "history slower than ring",
			[]Row{fig5("original", 0.5, 0.12), fig5("sdm-nohistory", 0.06, 0.07), fig5("sdm-history", 0.04, 0.02)},
			[]Row{fig5("original", 0.5, 0.12), fig5("sdm-nohistory", 0.06, 0.07), fig5("sdm-history", 0.04, 0.11)}},
		{"fig6", "level 1 above level 3",
			[]Row{rw("level1", 145, 128), rw("level2", 159, 149), rw("level3", 195, 180)},
			[]Row{rw("level1", 196, 128), rw("level2", 159, 149), rw("level3", 195, 180)}},
		{"fig7", "64 ranks faster than 32", fig7(9, 5, 85, 83, 107, 103), fig7(9, 5, 85, 83, 103, 107)},
		{"fig7", "SDM no better than original", fig7(9, 5, 85, 83, 107, 103), fig7(60, 50, 85, 83, 107, 103)},
		{"pipeline", "depth 2 within 15% of depth 1",
			[]Row{rw("depth-1", 147, 128), rw("depth-2", 210, 186), rw("depth-4", 212, 192)},
			[]Row{rw("depth-1", 147, 128), rw("depth-2", 160, 186), rw("depth-4", 212, 192)}},
		{"ablation-two-phase", "independent above collective",
			[]Row{rw("two-phase collective", 183, 180), rw("independent", 0.5, 0.7)},
			[]Row{rw("two-phase collective", 183, 180), rw("independent", 190, 0.7)}},
		{"ablation-stripe-width", "saturated before 20 servers", sweep(31, 55, 119, 183, 249), sweep(31, 55, 119, 183, 180)},
		{"ablation-striping", "default unit above metadata-sized",
			[]Row{rw("default-unit", 88, 80), rw("metadata-sized", 196, 181)},
			[]Row{rw("default-unit", 88, 190), rw("metadata-sized", 196, 181)}},
		{"ablation-open-cost", "expensive opens do not widen level 3's lead",
			[]Row{openCost("level1", 145, 5.6), openCost("level3", 196, 22.5)},
			[]Row{openCost("level1", 145, 15), openCost("level3", 196, 22.5)}},
		{"fig6", "a case missing", []Row{rw("level1", 145, 128), rw("level2", 159, 149), rw("level3", 195, 180)},
			[]Row{rw("level1", 145, 128), rw("level3", 195, 180)}},
	} {
		var fig *Figure
		for i := range Figures {
			if Figures[i].Name == tc.fig {
				fig = &Figures[i]
			}
		}
		if fig == nil {
			t.Fatalf("no figure %q", tc.fig)
		}
		if err := fig.Shape(tc.good); err != nil {
			t.Errorf("%s: rows that hold the claim rejected: %v", tc.fig, err)
		}
		if err := fig.Shape(tc.broken); err == nil {
			t.Errorf("%s: %s, and Shape accepted it", tc.fig, tc.breaks)
		}
	}
}

// TestFig6PipelinedDepth1BitIdenticalToSync is the workload-level
// differential pin: across fig6's levels 1–3, the pipelined loop at
// depth 1 (implicit joins, DrainSteps tail) must be bit-identical to
// fully synchronous EndStep closes — per-rank virtual clocks, pfs
// stats, file bytes, and database query counts.
func TestFig6PipelinedDepth1BitIdenticalToSync(t *testing.T) {
	f := smallFUN3D(t)
	const procs, steps = 8, 3
	for _, level := range []sdm.FileOrganization{sdm.Level1, sdm.Level2, sdm.Level3} {
		t.Run(level.String(), func(t *testing.T) {
			run := func(syncEnd bool) (*sdm.Cluster, *Fig6Stats) {
				cl := newCluster(procs)
				if err := f.Stage(cl); err != nil {
					t.Fatal(err)
				}
				st, err := f.checkpoints(cl, checkpointRun{level: level, steps: steps, depth: 1, syncEnd: syncEnd})
				if err != nil {
					t.Fatal(err)
				}
				return cl, st
			}
			refCl, refSt := run(true)
			pipCl, pipSt := run(false)
			if refSt.WriteMBps != pipSt.WriteMBps || refSt.ReadMBps != pipSt.ReadMBps {
				t.Fatalf("bandwidths differ: sync %.6f/%.6f, pipelined %.6f/%.6f MB/s",
					refSt.WriteMBps, refSt.ReadMBps, pipSt.WriteMBps, pipSt.ReadMBps)
			}
			for r := 0; r < procs; r++ {
				if a, b := refCl.World.Comm(r).Now(), pipCl.World.Comm(r).Now(); a != b {
					t.Fatalf("rank %d virtual clock differs: sync %v, pipelined %v", r, a, b)
				}
			}
			if a, b := refCl.FS.Stats(), pipCl.FS.Stats(); a != b {
				t.Fatalf("pfs stats differ:\nsync      %+v\npipelined %+v", a, b)
			}
			if a, b := refCl.DB.QueryCount(), pipCl.DB.QueryCount(); a != b {
				t.Fatalf("db query counts differ: sync %d, pipelined %d", a, b)
			}
			refFiles, pipFiles := refCl.ListFiles(), pipCl.ListFiles()
			if len(refFiles) != len(pipFiles) {
				t.Fatalf("file counts differ: %d vs %d", len(refFiles), len(pipFiles))
			}
			for i, name := range refFiles {
				if pipFiles[i] != name {
					t.Fatalf("file sets differ at %d: %q vs %q", i, name, pipFiles[i])
				}
				a, err := refCl.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				b, err := pipCl.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Fatalf("file %q bytes differ", name)
				}
			}
		})
	}
}

// TestPipelineDepthBeatsDepth1 pins the bench claim at workload scale:
// on the file-per-timestep layout, depth 2 and 4 must raise simulated
// write bandwidth over depth 1 by a clear margin (the BENCH_5
// acceptance bar is 15%).
func TestPipelineDepthBeatsDepth1(t *testing.T) {
	f := smallFUN3D(t)
	const procs, steps = 8, 6
	bw := func(depth int) float64 {
		cl := newCluster(procs)
		if err := f.Stage(cl); err != nil {
			t.Fatal(err)
		}
		st, err := f.PipelineWriteBandwidth(cl, steps, depth)
		if err != nil {
			t.Fatal(err)
		}
		if st.Depth != depth || st.Level != sdm.Level1 {
			t.Fatalf("pipeline run misconfigured: %+v", st)
		}
		return st.WriteMBps
	}
	d1, d2, d4 := bw(1), bw(2), bw(4)
	if d2 < d1*1.15 {
		t.Fatalf("depth 2 write %.1f MB/s not >= 15%% over depth 1 %.1f MB/s", d2, d1)
	}
	if d4 < d2 {
		t.Fatalf("depth 4 write %.1f MB/s below depth 2 %.1f MB/s", d4, d2)
	}
}

func TestFig7ShapeRT(t *testing.T) {
	r, err := NewRT(RTConfig{NX: 12, NY: 12, NZ: 12, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode RTMode, procs int) *RTStats {
		cl := newCluster(procs)
		st, err := r.WriteBandwidth(cl, mode)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	orig := run(RTOriginal, 8)
	l1 := run(RTLevel1, 8)
	l23 := run(RTLevel23, 8)

	// SDM's parallel collective writes must beat the original's
	// strictly serialized writes by a wide margin.
	if l23.MBps < orig.MBps*2 {
		t.Fatalf("SDM %.1f MB/s not clearly above original %.1f MB/s", l23.MBps, orig.MBps)
	}
	// Level 1 and level 2/3 are close for RT (two files either way per
	// step vs per run; open costs are low on this profile).
	ratio := l1.MBps / l23.MBps
	if ratio < 0.5 || ratio > 1.5 {
		t.Fatalf("level1 %.1f vs level2/3 %.1f MB/s implausibly far apart", l1.MBps, l23.MBps)
	}
}

func TestFig7ProcessScalingDegrades(t *testing.T) {
	// The paper's second observation in Figure 7: with the data size
	// fixed, going from 32 to 64 processes shrinks per-process buffers
	// and bandwidth falls. At test scale we compare 8 vs 32 ranks on a
	// mesh large enough that the per-process collective overheads are
	// not hidden behind the step pipeline's overlapped metadata batch.
	// 8 ranks, not 4: on a 20³ mesh the curve peaks near 8 (below that
	// the per-rank staging copy dominates), and since only a file's
	// aggregator set opens it, 32 ranks no longer pay 32 opens before
	// rank 0's metadata batch — 4 vs 32 is a tie (27.1 vs 27.2 MB/s)
	// while 8 vs 32 keeps a 7 % margin (29.1 vs 27.2).
	r, err := NewRT(RTConfig{NX: 20, NY: 20, NZ: 20, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	few, err := r.WriteBandwidth(newCluster(8), RTLevel23)
	if err != nil {
		t.Fatal(err)
	}
	many, err := r.WriteBandwidth(newCluster(32), RTLevel23)
	if err != nil {
		t.Fatal(err)
	}
	if many.MBps >= few.MBps {
		t.Fatalf("bandwidth did not degrade with more processes: %d procs %.1f MB/s vs %d procs %.1f MB/s",
			few.Procs, few.MBps, many.Procs, many.MBps)
	}
}

func TestPartitionStatsSanity(t *testing.T) {
	f := smallFUN3D(t)
	cl := newCluster(4)
	if err := f.Stage(cl); err != nil {
		t.Fatal(err)
	}
	st, err := f.ImportAndPartition(cl, ModeSDM, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.LocalEdges == 0 || st.LocalNodes == 0 {
		t.Fatalf("empty partition: %+v", st)
	}
	if st.CommBytesDelta == 0 {
		t.Fatal("ring distribution generated no traffic")
	}
	if st.ImportSec <= 0 || st.DistributeSec <= 0 {
		t.Fatalf("phases not timed: %+v", st)
	}
}

func TestBlockMapArray(t *testing.T) {
	m0 := blockMapArray(10, 3, 0)
	m1 := blockMapArray(10, 3, 1)
	m2 := blockMapArray(10, 3, 2)
	if len(m0) != 4 || len(m1) != 3 || len(m2) != 3 {
		t.Fatalf("lengths %d/%d/%d", len(m0), len(m1), len(m2))
	}
	if m0[0] != 0 || m1[0] != 4 || m2[0] != 7 || m2[2] != 9 {
		t.Fatalf("maps %v %v %v", m0, m1, m2)
	}
}
