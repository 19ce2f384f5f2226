package core

import (
	"fmt"
	"testing"

	"sdm/internal/mpi"
	"sdm/internal/mpiio"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// Tests of metadata-directed read-ahead: a sequential reader's get-only
// steps adopt reads issued ahead from the placement index, delivering
// the bytes of the ordinary path for the same file-system work in less
// virtual time; mispredictions are charged and never deliver stale
// bytes.

const raStride = 10 // checkpoints sit at timesteps 0, 10, 20, ...

// raValue is the value of global element gidx of dataset ds at ts;
// rev distinguishes a rewrite of the same slab.
func raValue(ds string, ts int64, gidx int32, rev int) float64 {
	return float64(gidx) + float64(ts)*1e-3 + float64(len(ds))*1e-6 + float64(ds[0])*1e3 + float64(rev)*1e6
}

// raApp is one rank's handles on the fixture's two groups: "a" holds p
// and q behind one view, "b" the four-times-larger f.
type raApp struct {
	t       *testing.T
	s       *SDM
	ga, gb  *Group
	ds      []*Dataset[float64] // p, q, f
	maps    [][]int32           // the view of each dataset
	manager bool                // steps queue into both groups, or into group a alone
}

func (a *raApp) nsets() int {
	if a.manager {
		return 3
	}
	return 2
}

func (a *raApp) begin(ts int64) {
	if err := a.s.BeginStep(ts); err != nil {
		panic(err)
	}
}

func (a *raApp) end() error { return a.s.EndStep() }

// put writes one checkpoint of the first n datasets synchronously.
func (a *raApp) put(ts int64, n, rev int) error {
	a.begin(ts)
	for j := 0; j < n; j++ {
		vals := make([]float64, len(a.maps[j]))
		for i, g := range a.maps[j] {
			vals[i] = raValue(a.ds[j].name, ts, g, rev)
		}
		if err := a.ds[j].Put(vals); err != nil {
			panic(err)
		}
	}
	return a.end()
}

// get reads one checkpoint through a synchronous get-only step and
// checks every element against revision rev.
func (a *raApp) get(ts int64, rev int) { a.getN(ts, a.nsets(), rev) }

// getN is get over the first n datasets.
func (a *raApp) getN(ts int64, n, rev int) {
	a.begin(ts)
	out := make([][]float64, n)
	for j := range out {
		out[j] = make([]float64, len(a.maps[j]))
		if err := a.ds[j].Get(out[j]); err != nil {
			panic(err)
		}
	}
	if err := a.end(); err != nil {
		panic(err)
	}
	for j := range out {
		for i, g := range a.maps[j] {
			if want := raValue(a.ds[j].name, ts, g, rev); out[j][i] != want {
				a.t.Errorf("rank %d %s@%d element %d = %v, want %v",
					a.s.env.Comm.Rank(), a.ds[j].name, ts, g, out[j][i], want)
				return
			}
		}
	}
}

// aheadTokens lists the outstanding undelivered read-aheads.
func aheadTokens(s *SDM) []*StepToken {
	var out []*StepToken
	for _, t := range s.tokens {
		if t.reading() {
			out = append(out, t)
		}
	}
	return out
}

// raRun writes `steps` checkpoints on a costed machine, synchronizes,
// and runs body per rank; after (optional) runs once Finalize returned.
func raRun(t *testing.T, n, steps int, opts Options, manager bool, body func(a *raApp), after func(a *raApp)) *testEnv {
	t.Helper()
	return raRunTraced(t, nil, n, steps, opts, manager, body, after)
}

// raRunTraced is raRun with the managers, the file system and MPI-IO
// traced by tr (nil: untraced).
func raRunTraced(t *testing.T, tr *obs.Tracer, n, steps int, opts Options, manager bool, body func(a *raApp), after func(a *raApp)) *testEnv {
	t.Helper()
	te := newCostedEnv(n)
	if tr != nil {
		te.trace = tr
		te.fs.SetTracer(tr)
	}
	err := te.world.Run(func(c *mpi.Comm) {
		s, err := Initialize(te.env(c), "ra", opts)
		if err != nil {
			panic(err)
		}
		a := &raApp{t: t, s: s, manager: manager}
		const nA, nB = 4096, 4 * 4096
		attrs := MakeDatalist("p", "q")
		attrs[0].GlobalSize, attrs[1].GlobalSize = nA, nA
		if a.ga, err = s.SetAttributes(attrs); err != nil {
			panic(err)
		}
		battrs := MakeDatalist("f")
		battrs[0].GlobalSize = nB
		if a.gb, err = s.SetAttributes(battrs); err != nil {
			panic(err)
		}
		ma := roundRobinMap(c.Rank(), c.Size(), nA)
		mb := roundRobinMap(c.Rank(), c.Size(), nB)
		if _, err := a.ga.DataView([]string{"p", "q"}, ma); err != nil {
			panic(err)
		}
		if _, err := a.gb.DataView([]string{"f"}, mb); err != nil {
			panic(err)
		}
		a.maps = [][]int32{ma, ma, mb}
		for j, g := range []*Group{a.ga, a.ga, a.gb} {
			d, err := DatasetOf[float64](g, []string{"p", "q", "f"}[j])
			if err != nil {
				panic(err)
			}
			a.ds = append(a.ds, d)
		}
		for k := 0; k < steps; k++ {
			if err := a.put(int64(k*raStride), a.nsets(), 0); err != nil {
				panic(err)
			}
		}
		c.Barrier()
		body(a)
		if err := s.Finalize(); err != nil {
			panic(err)
		}
		if after != nil {
			after(a)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return te
}

// readStats is what the read-side differential compares: opens, views,
// read requests and bytes must match; the write side is the same loop.
func readStats(st pfs.Stats) [4]int64 {
	return [4]int64{st.Opens, st.Views, st.ReadRequests, st.BytesRead}
}

// (a) A depth-4 get-only loop delivers the bytes of the depth-1 loop
// for the same opens, views, read requests and bytes, and finishes
// strictly earlier — steps over one group and over both, every file
// organization.
func TestReadAheadDifferential(t *testing.T) {
	const n, steps = 4, 8
	for _, level := range []FileOrganization{Level1, Level2, Level3} {
		for _, manager := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/manager=%v", level, manager), func(t *testing.T) {
				run := func(depth int) (*testEnv, sim.Time) {
					var readStart sim.Time
					te := raRun(t, n, steps, Options{Organization: level, StepPipelineDepth: depth}, manager, func(a *raApp) {
						if a.s.env.Comm.Rank() == 0 {
							readStart = a.s.env.Comm.Clock().Now()
						}
						for k := 0; k < steps; k++ {
							a.get(int64(k*raStride), 0)
							if got := len(a.s.tokens); got > depth {
								t.Errorf("step %d: %d tokens outstanding exceeds depth %d", k, got, depth)
							}
						}
						if depth > 1 && len(aheadTokens(a.s)) != 0 {
							t.Errorf("read-aheads left past the run's last timestep: %d", len(aheadTokens(a.s)))
						}
					}, nil)
					return te, readStart
				}
				d1, start1 := run(1)
				d4, start4 := run(4)
				if start1 != start4 {
					t.Fatalf("write phases differ: reads start at %v (depth 1) and %v (depth 4)", start1, start4)
				}
				if a, b := readStats(d1.fs.Stats()), readStats(d4.fs.Stats()); a != b {
					t.Fatalf("opens/views/read requests/bytes differ: depth 1 %v, depth 4 %v", a, b)
				}
				filesEqual(t, "depth 4 vs depth 1", snapshotFiles(t, d1.fs), snapshotFiles(t, d4.fs))
				if t1, t4 := d1.world.MaxTime(), d4.world.MaxTime(); t4 >= t1 {
					t.Fatalf("depth-4 read loop finishes at %v, not before depth 1's %v", t4, t1)
				}
				if a, b := d1.cat.DB().QueryCount(), d4.cat.DB().QueryCount(); a != b {
					t.Fatalf("db query counts differ: depth 1 %d, depth 4 %d", a, b)
				}
			})
		}
	}
}

// (b) A reader that stops following the index pays for what was issued
// ahead of it: the skipped reads are joined (their completion charged)
// when the reader jumps, whatever is still unconsumed is joined at
// Finalize, every byte delivered is right, and no arena or open file is
// leaked.
func TestReadAheadMisprediction(t *testing.T) {
	const n, steps, depth = 4, 8, 4
	var wasted, tail [n]sim.Time
	// A reader that starts mid-run, as a restart reading the last steps
	// does, arms at its second sequential step.
	raRun(t, n, steps, Options{Organization: Level1, StepPipelineDepth: depth}, true, func(a *raApp) {
		a.get(3*raStride, 0)
		if got := len(aheadTokens(a.s)); got != 0 {
			t.Errorf("mid-run reader holds %d read-aheads after one step; arming needs two sequential steps", got)
		}
		a.get(4*raStride, 0)
		if got := len(aheadTokens(a.s)); got != depth-1 {
			t.Errorf("mid-run reader holds %d read-aheads after its successor, want %d", got, depth-1)
		}
	}, nil)
	te := raRun(t, n, steps, Options{Organization: Level1, StepPipelineDepth: depth}, true, func(a *raApp) {
		s, r := a.s, a.s.env.Comm.Rank()
		a.get(0, 0)
		if got := len(aheadTokens(s)); got != depth-1 {
			t.Errorf("the run's first timestep arms at once: %d read-aheads, want %d", got, depth-1)
		}
		a.get(raStride, 0)
		ahead := aheadTokens(s)
		if len(ahead) != depth-1 { // the step's own token counted against the depth
			t.Fatalf("armed reader holds %d read-aheads, want %d", len(ahead), depth-1)
		}
		held := map[*byte]bool{}
		for _, tok := range ahead {
			wasted[r] = sim.MaxTime(wasted[r], tok.done)
			for _, buf := range tok.fl.arenas {
				held[&buf[:1][0]] = true
			}
		}
		a.get(6*raStride, 0) // unrelated: nothing issued is for this step
		if now := s.env.Comm.Clock().Now(); now < wasted[r] {
			t.Errorf("rank %d at %v after the jump, before the discarded reads completed at %v", r, now, wasted[r])
		}
		if len(aheadTokens(s)) != 0 {
			t.Errorf("a jump must not re-arm: %d read-aheads outstanding", len(aheadTokens(s)))
		}
		for _, buf := range s.arenaPool {
			delete(held, &buf[:1][0])
		}
		if len(held) != 0 {
			t.Errorf("%d discarded read-ahead arenas did not return to the pool", len(held))
		}
		a.get(7*raStride, 0) // sequential again: would arm, but the run ends here
		a.get(2*raStride, 0)
		a.get(3*raStride, 0) // armed: issues 40, 50, 60 — never consumed
		for _, tok := range aheadTokens(s) {
			tail[r] = sim.MaxTime(tail[r], tok.done)
		}
		if tail[r] == 0 {
			t.Errorf("no read-ahead outstanding before Finalize")
		}
	}, func(a *raApp) {
		s, r := a.s, a.s.env.Comm.Rank()
		if len(s.tokens) != 0 {
			t.Errorf("after Finalize: %d tokens", len(s.tokens))
		}
		if now := s.env.Comm.Clock().Now(); now < tail[r] {
			t.Errorf("rank %d finalized at %v, before its unconsumed read-aheads completed at %v", r, now, tail[r])
		}
		// One arena per group per token, the step's own included.
		if got := len(s.arenaPool); got == 0 || got > 2*(depth+1) {
			t.Errorf("arena pool holds %d buffers after Finalize, want 1..%d", got, 2*(depth+1))
		}
		for _, g := range []*Group{a.ga, a.gb} {
			if len(g.files) != 0 {
				t.Errorf("%d files still open after Finalize", len(g.files))
			}
		}
		// Nothing is left in flight: a new flush of p's first file issues
		// without joining anything.
		vals := make([]float64, len(a.maps[0]))
		if err := flushJoinsNothing(s, a.ds[0], 0, vals); err != nil {
			t.Errorf("rank %d: flush after Finalize: %v", r, err)
		}
	})
	// The same sequence without read-ahead reads strictly fewer bytes:
	// the mispredicted reads really went to the file system.
	ref := raRun(t, n, steps, Options{Organization: Level1}, true, func(a *raApp) {
		for _, k := range []int64{0, 1, 6, 7, 2, 3} {
			a.get(k*raStride, 0)
		}
	}, nil)
	if got, want := te.fs.Stats().BytesRead, ref.fs.Stats().BytesRead; got <= want {
		t.Fatalf("mispredicting run read %d bytes, the depth-1 run %d: wasted reads vanished", got, want)
	}
}

// A sequential pass from the run's first checkpoint arms at that first
// step: the window is in flight after get(0), and the pass delivers the
// depth-1 run's bytes for the same read requests and bytes read — the
// work is overlapped, not added — with every rank done no later.
func TestReadAheadFromFirstTimestep(t *testing.T) {
	const n, steps, depth = 4, 8, 4
	for _, level := range []FileOrganization{Level1, Level3} {
		t.Run(level.String(), func(t *testing.T) {
			run := func(depth int) *testEnv {
				return raRun(t, n, steps, Options{Organization: level, StepPipelineDepth: depth}, true, func(a *raApp) {
					a.get(0, 0)
					if got := len(aheadTokens(a.s)); got != depth-1 {
						t.Errorf("depth %d: %d read-aheads after the first timestep, want %d", depth, got, depth-1)
					}
					for k := 1; k < steps; k++ {
						a.get(int64(k*raStride), 0)
					}
				}, nil)
			}
			d1, d4 := run(1), run(depth)
			filesEqual(t, "depth 4 vs depth 1", snapshotFiles(t, d1.fs), snapshotFiles(t, d4.fs))
			s1, s4 := d1.fs.Stats(), d4.fs.Stats()
			if s1.ReadRequests != s4.ReadRequests || s1.BytesRead != s4.BytesRead {
				t.Fatalf("read requests/bytes differ: depth 1 %d/%d, depth %d %d/%d",
					s1.ReadRequests, s1.BytesRead, depth, s4.ReadRequests, s4.BytesRead)
			}
			for r, c1 := range clocks(d1, n) {
				if c4 := clocks(d4, n)[r]; c4 > c1 {
					t.Errorf("rank %d ends at %v at depth %d, after depth 1's %v", r, c4, depth, c1)
				}
			}
		})
	}
}

// (c) A Put to something a read-ahead has read joins and discards it
// first, so the Get returns the new bytes: the rewritten (dataset,
// timestep) file under level 1, the group file a rewritten slab is
// appended to under level 3.
func TestReadAheadInvalidation(t *testing.T) {
	const n, steps, depth = 4, 8, 4
	for _, level := range []FileOrganization{Level1, Level3} {
		t.Run(level.String(), func(t *testing.T) {
			raRun(t, n, steps, Options{Organization: level, StepPipelineDepth: depth}, false, func(a *raApp) {
				a.get(0, 0)
				a.get(raStride, 0)
				if len(aheadTokens(a.s)) == 0 {
					t.Fatal("reader not armed")
				}
				var stale sim.Time
				for _, tok := range aheadTokens(a.s) {
					if tok.timestep == 2*raStride {
						stale = tok.done
					}
				}
				if err := a.put(2*raStride, 2, 1); err != nil {
					panic(err)
				}
				if now := a.s.env.Comm.Clock().Now(); now < stale {
					t.Errorf("the Put returned at %v, before the read-ahead it invalidated completed at %v", now, stale)
				}
				for _, tok := range aheadTokens(a.s) {
					if tok.timestep == 2*raStride {
						t.Errorf("read-ahead of the rewritten step survived the Put")
					}
				}
				a.get(2*raStride, 1)
				a.get(3*raStride, 0)
				a.get(4*raStride, 0)
			}, nil)
		})
	}
}

// A view replaced between issue and Get makes the issued bytes useless
// (wrong elements): the step takes the ordinary path.
func TestReadAheadViewChangeFallsBack(t *testing.T) {
	const n, steps = 4, 6
	raRun(t, n, steps, Options{Organization: Level2, StepPipelineDepth: 4}, false, func(a *raApp) {
		a.get(0, 0)
		a.get(raStride, 0)
		if len(aheadTokens(a.s)) == 0 {
			t.Fatal("reader not armed")
		}
		// The same elements in reverse order: a different view object
		// and a different permutation.
		rev := make([]int32, len(a.maps[0]))
		for i, g := range a.maps[0] {
			rev[len(rev)-1-i] = g
		}
		if _, err := a.ga.DataView([]string{"p", "q"}, rev); err != nil {
			panic(err)
		}
		a.maps[0], a.maps[1] = rev, rev
		a.get(2*raStride, 0)
		a.get(3*raStride, 0)
	}, nil)
}

// (e) Read-aheads are spans of their own on the rank's track,
// overlapping one another (so the export gives them forked lanes) with
// their per-file reads nested inside; tracing moves no clock.
func TestReadAheadSpans(t *testing.T) {
	const n, steps, depth = 4, 8, 4
	run := func(tr *obs.Tracer) *testEnv {
		return raRunTraced(t, tr, n, steps, Options{Organization: Level1, StepPipelineDepth: depth}, true, func(a *raApp) {
			for k := 0; k < steps; k++ {
				a.get(int64(k*raStride), 0)
			}
		}, nil)
	}
	tr := obs.NewTracer()
	off, on := run(nil), run(tr)
	for r, c := range clocks(off, n) {
		if c != clocks(on, n)[r] {
			t.Fatalf("rank %d clock differs: untraced %v, traced %v", r, c, clocks(on, n)[r])
		}
	}
	var ahead, reads []obs.Span
	for _, s := range tr.Spans() {
		if s.Pid != obs.PidRank(0) || s.Cat != "core" {
			continue
		}
		switch s.Name {
		case "readahead":
			ahead = append(ahead, s)
		case "flush:read":
			reads = append(reads, s)
		}
	}
	if want := steps - 1; len(ahead) != want {
		t.Fatalf("rank 0 recorded %d readahead spans, want %d (every step after the first, which arms)", len(ahead), want)
	}
	overlap := false
	for i := range ahead {
		for j := i + 1; j < len(ahead); j++ {
			if ahead[i].Start < ahead[j].End && ahead[j].Start < ahead[i].End {
				overlap = true
			}
		}
		nested := 0
		for _, rd := range reads {
			if rd.Start >= ahead[i].Start && rd.End <= ahead[i].End {
				nested++
			}
		}
		if nested < 3 { // p, q and f each have a file per timestep
			t.Fatalf("readahead span %d holds %d flush:read spans, want its 3 files", i, nested)
		}
	}
	if !overlap {
		t.Fatal("no two readahead spans overlap: the window is not in flight together")
	}
	lanes := map[int]bool{}
	for _, ev := range tr.ChromeTrace().TraceEvents {
		if ev.Ph == "X" && ev.Pid == obs.PidRank(0) && ev.Name == "readahead" {
			lanes[ev.Tid] = true
		}
	}
	if len(lanes) < 2 {
		t.Fatalf("readahead spans share %d lane(s) in the Chrome export, want forked lanes", len(lanes))
	}
}

// (f) Same program, same machine: identical per-rank clocks, pfs
// counters and query counts, run after run — the read-ahead decisions
// come from the call sequence and the index, never from host timing.
func TestReadAheadDeterministic(t *testing.T) {
	const n, steps = 4, 8
	run := func() *testEnv {
		return raRun(t, n, steps, Options{Organization: Level1, StepPipelineDepth: 4}, true, func(a *raApp) {
			for _, k := range []int64{0, 1, 2, 3, 6, 7, 4, 5, 6} {
				a.get(k*raStride, 0)
			}
		}, nil)
	}
	ref := run()
	for i := 0; i < 3; i++ {
		got := run()
		for r, c := range clocks(ref, n) {
			if c != clocks(got, n)[r] {
				t.Fatalf("run %d: rank %d clock %v, first run %v", i, r, clocks(got, n)[r], c)
			}
		}
		if a, b := ref.fs.Stats(), got.fs.Stats(); a != b {
			t.Fatalf("run %d: pfs stats differ:\n%+v\n%+v", i, a, b)
		}
		if a, b := ref.cat.DB().QueryCount(), got.cat.DB().QueryCount(); a != b {
			t.Fatalf("run %d: db query counts differ: %d vs %d", i, a, b)
		}
	}
}

// groupOrderGetStep is the reference the read order is measured against:
// the open get-only step closed the way EndStep closed it before a get
// flush ordered its groups, each group's collective issued in group
// order, every decode after the join. Only for a synchronous step with
// nothing in flight.
func groupOrderGetStep(s *SDM) error { return waitallGetStep(s, false) }

// waitallGetStep closes the open get-only step the way EndStep closed it
// before each file decoded as its collective completed: the groups'
// collectives issued in read order (largest first) when readOrder is
// set, in group order otherwise, then the join, then every decode
// (MPI_Waitall). Only for a synchronous step with nothing in flight.
func waitallGetStep(s *SDM, readOrder bool) error {
	defer s.cancelStep()
	ts := s.step.timestep
	parts := s.collectGets(s.step.groups)
	ord := make([]int, len(parts))
	for i := range ord {
		ord[i] = i
	}
	if readOrder {
		ord = s.readOrder(parts)
	}
	clock := s.env.Comm.Clock()
	join := clock.Now()
	cur := mpiio.NewCursor(s.env.Comm, s.env.FS)
	for _, i := range ord {
		j, err := parts[i].g.issueGets(ts, parts[i].dis, &cur)
		join = sim.MaxTime(join, j)
		if err != nil {
			return err
		}
	}
	clock.AdvanceTo(join)
	for i := range parts {
		g := parts[i].g
		for _, op := range g.ep.placed {
			g.ep.gets[op.idx].vals.decode(op.v, op.data)
			s.env.Comm.ComputeItems(int64(len(op.data)), memCopyRate)
		}
	}
	return nil
}

// TestReadLargestGroupFirst: a get step over two groups issues the larger
// group's collective first on every rank — group b's f, four times group
// a's p and q together, though b registered second — and every rank
// ends it no later than the same step issued in group order, with the
// same bytes delivered.
func TestReadLargestGroupFirst(t *testing.T) {
	const n, steps = 4, 2
	const ts = raStride
	for _, level := range []FileOrganization{Level2, Level3} {
		t.Run(level.String(), func(t *testing.T) {
			var ends [2][n]sim.Time
			for k, reference := range []bool{false, true} {
				tr := obs.NewTracer()
				raRunTraced(t, tr, n, steps, Options{Organization: level}, true, func(a *raApp) {
					a.begin(ts)
					out := make([][]float64, a.nsets())
					for j := range out {
						out[j] = make([]float64, len(a.maps[j]))
						if err := a.ds[j].Get(out[j]); err != nil {
							panic(err)
						}
					}
					var err error
					if reference {
						err = groupOrderGetStep(a.s)
					} else {
						err = a.end()
					}
					if err != nil {
						panic(err)
					}
					c := a.s.env.Comm
					ends[k][c.Rank()] = c.Now()
					for j := range out {
						for i, g := range a.maps[j] {
							if want := raValue(a.ds[j].name, ts, g, 0); out[j][i] != want {
								t.Errorf("rank %d %s@%d element %d = %v, want %v", c.Rank(), a.ds[j].name, ts, g, out[j][i], want)
								return
							}
						}
					}
				}, nil)
				if reference {
					continue
				}
				fb := raFile(level, "f")
				for r := 0; r < n; r++ {
					var first string
					for _, sp := range tr.Spans() {
						if sp.Pid == obs.PidRank(r) && sp.Cat == "core" && sp.Name == "flush:read" {
							first = spanArg(sp, "file")
							break
						}
					}
					if first != fb {
						t.Errorf("rank %d reads %q first, want group b's %q", r, first, fb)
					}
				}
			}
			for r := 0; r < n; r++ {
				if ends[0][r] > ends[1][r] {
					t.Errorf("rank %d: largest first ends at %v, after group order's %v", r, ends[0][r], ends[1][r])
				}
			}
		})
	}
}

// raFile is the file raRun's dataset ds lives in at level: its own
// under Level 2, group b's under Level 3 (f is group b's only dataset).
func raFile(level FileOrganization, ds string) string {
	if level == Level3 {
		return "ra_r1_g1.dat"
	}
	return "ra_r1_" + ds + ".dat"
}

// spanArg returns the value of the span's key argument.
func spanArg(sp obs.Span, key string) string {
	for _, kv := range sp.Args {
		if kv.Key == key {
			return kv.Val
		}
	}
	return ""
}
