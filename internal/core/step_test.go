package core

import (
	"fmt"
	"strings"
	"testing"

	"sdm/internal/mpi"
	"sdm/internal/obs"
	"sdm/internal/sim"
)

// TestAsyncEndStepBitIdenticalToSync pins the split-collective
// contract: EndStepAsync followed immediately by Wait must be
// bit-identical — file bytes, per-rank virtual clocks, pfs stats, and
// database query counts — to the synchronous EndStep.
func TestAsyncEndStepBitIdenticalToSync(t *testing.T) {
	for _, sc := range []diffScript{
		{nRanks: 4, level: Level3, sizes: []int64{96, 96, 96, 96, 96}, steps: 2, readBack: true},
		{nRanks: 3, level: Level2, sizes: []int64{64, 64}, steps: 2, readBack: true},
		{nRanks: 2, level: Level1, sizes: []int64{48}, steps: 3, readBack: true},
		{nRanks: 2, level: Level3, sizes: []int64{40, 80}, steps: 2, readBack: true}, // mixed group
	} {
		t.Run(fmt.Sprintf("level%d-ds%d", sc.level, len(sc.sizes)), func(t *testing.T) {
			ref := runScript(t, sc, modeBatched)
			got := runScript(t, sc, modeAsync)
			filesEqual(t, "async vs sync", snapshotFiles(t, ref.fs), snapshotFiles(t, got.fs))
			if rs, gs := ref.fs.Stats(), got.fs.Stats(); rs != gs {
				t.Fatalf("pfs stats differ:\nsync  %+v\nasync %+v", rs, gs)
			}
			rc, gc := clocks(ref, sc.nRanks), clocks(got, sc.nRanks)
			for r := range rc {
				if rc[r] != gc[r] {
					t.Fatalf("rank %d virtual clock differs: sync %v, async %v", r, rc[r], gc[r])
				}
			}
			if rq, gq := ref.cat.DB().QueryCount(), got.cat.DB().QueryCount(); rq != gq {
				t.Fatalf("db query counts differ: sync %d, async %d", rq, gq)
			}
		})
	}
}

// stepWorkload writes `steps` timesteps of one dataset with `compute`
// of virtual computation per step, either synchronously or with the
// flush issued async before the compute and waited after — the paper's
// overlap pattern. Returns the environment.
func stepWorkload(t *testing.T, n, steps int, compute sim.Duration, async bool) *testEnv {
	t.Helper()
	te := newCostedEnv(n)
	te.run(t, Options{Organization: Level3}, func(s *SDM) {
		_, d, m := epochGroup(t, te, s, 4096)
		vals := make([]float64, len(m))
		for i, gi := range m {
			vals[i] = float64(gi)
		}
		var tok *StepToken
		for ts := 0; ts < steps; ts++ {
			if tok != nil {
				if err := tok.Wait(); err != nil {
					panic(err)
				}
			}
			if err := s.BeginStep(int64(ts)); err != nil {
				panic(err)
			}
			if err := d.Put(vals); err != nil {
				panic(err)
			}
			if async {
				var err error
				if tok, err = s.EndStepAsync(); err != nil {
					panic(err)
				}
				s.env.Comm.Compute(compute) // next step's work overlaps the flush
			} else {
				if err := s.EndStep(); err != nil {
					panic(err)
				}
				s.env.Comm.Compute(compute)
			}
		}
		if tok != nil {
			if err := tok.Wait(); err != nil {
				panic(err)
			}
		}
	})
	return te
}

// TestAsyncOverlapReducesTime is the fig-6 claim in miniature: with
// computation between steps, issuing the flush asynchronously and
// waiting a step later must cut virtual makespan versus the
// synchronous path, while writing identical bytes.
func TestAsyncOverlapReducesTime(t *testing.T) {
	const steps, compute = 3, 40 * 1_000_000 // 40ms of per-step compute
	sync := stepWorkload(t, 4, steps, compute, false)
	async := stepWorkload(t, 4, steps, compute, true)
	filesEqual(t, "async vs sync bytes", snapshotFiles(t, sync.fs), snapshotFiles(t, async.fs))
	st, at := sync.world.MaxTime(), async.world.MaxTime()
	if at >= st {
		t.Fatalf("async makespan %v, sync %v; want overlap to reduce it", at, st)
	}
}

// managerWorkload writes (and reads back) two groups with different
// global sizes for several steps, either through one step over both
// groups or one one-call step per dataset.
func managerWorkload(t *testing.T, n, steps int, manager bool) *testEnv {
	t.Helper()
	te := newCostedEnv(n)
	te.run(t, Options{Organization: Level3}, func(s *SDM) {
		mk := func(name string, size int64) (*Group, *Dataset[float64], []float64) {
			attrs := MakeDatalist(name)
			attrs[0].GlobalSize = size
			g, err := s.SetAttributes(attrs)
			if err != nil {
				panic(err)
			}
			m := roundRobinMap(s.env.Comm.Rank(), s.env.Comm.Size(), int(size))
			if _, err := g.DataView([]string{name}, m); err != nil {
				panic(err)
			}
			d, err := DatasetOf[float64](g, name)
			if err != nil {
				panic(err)
			}
			vals := make([]float64, len(m))
			for i, gi := range m {
				vals[i] = float64(gi) + 0.5
			}
			return g, d, vals
		}
		ga, da, va := mk("alpha", 96)
		gb, db, vb := mk("beta", 480)

		for ts := 0; ts < steps; ts++ {
			if manager {
				if err := s.BeginStep(int64(ts)); err != nil {
					panic(err)
				}
				if err := da.Put(va); err != nil {
					panic(err)
				}
				if err := db.Put(vb); err != nil {
					panic(err)
				}
				if err := s.EndStep(); err != nil {
					panic(err)
				}
			} else {
				if err := da.PutAt(int64(ts), va); err != nil {
					panic(err)
				}
				if err := db.PutAt(int64(ts), vb); err != nil {
					panic(err)
				}
			}
		}
		ra := make([]float64, len(va))
		rb := make([]float64, len(vb))
		for ts := 0; ts < steps; ts++ {
			if manager {
				if err := s.BeginStep(int64(ts)); err != nil {
					panic(err)
				}
				if err := da.Get(ra); err != nil {
					panic(err)
				}
				if err := db.Get(rb); err != nil {
					panic(err)
				}
				if err := s.EndStep(); err != nil {
					panic(err)
				}
			} else {
				if err := da.GetAt(int64(ts), ra); err != nil {
					panic(err)
				}
				if err := db.GetAt(int64(ts), rb); err != nil {
					panic(err)
				}
			}
		}
		for i := range ra {
			if ra[i] != va[i] {
				panic(fmt.Sprintf("alpha readback elem %d = %g want %g", i, ra[i], va[i]))
			}
		}
		for i := range rb {
			if rb[i] != vb[i] {
				panic(fmt.Sprintf("beta readback elem %d = %g want %g", i, rb[i], vb[i]))
			}
		}
		_, _ = ga, gb
	})
	return te
}

// TestManagerCrossGroupStep pins the cross-group rendezvous: merging
// two groups' epochs into one Manager step must write identical bytes
// while issuing fewer database statements (one RecordWrites batch per
// step instead of one per group) and finishing in less virtual time
// (the groups' file collectives overlap).
func TestManagerCrossGroupStep(t *testing.T) {
	const steps = 2
	ref := managerWorkload(t, 4, steps, false)
	mgr := managerWorkload(t, 4, steps, true)
	filesEqual(t, "manager vs per-group", snapshotFiles(t, ref.fs), snapshotFiles(t, mgr.fs))
	if rq, mq := ref.cat.DB().QueryCount(), mgr.cat.DB().QueryCount(); mq >= rq {
		t.Fatalf("manager step issued %d db statements, per-group %d; want fewer", mq, rq)
	}
	rt, mt := ref.world.MaxTime(), mgr.world.MaxTime()
	if mt >= rt {
		t.Fatalf("manager step virtual time %v, per-group %v; want lower", mt, rt)
	}
}

// handleStep is one step of TestGroupStepIsManagerStep's script: the
// datasets it writes and the datasets it reads back, at one timestep,
// and whether every outstanding flush is joined after it.
type handleStep struct {
	ts         int64
	puts, gets []int
	drain      bool
}

// handleScript writes, mixes, skips a step, reads sequentially (which
// arms read-ahead at depth > 1; the drain before leaves no write in
// flight for it to decline on), jumps back (which discards it), and
// rewrites. Its last three steps hold one operation each.
var handleScript = []handleStep{
	{ts: 0, puts: []int{0, 1}},
	{ts: 1, puts: []int{0, 1}},
	{ts: 2, puts: []int{0, 1}, gets: []int{0}}, // reads what it just wrote
	{ts: 3, drain: true},                       // queues nothing
	{ts: 0, gets: []int{0, 1}},
	{ts: 1, gets: []int{0, 1}},
	{ts: 2, gets: []int{0, 1}},
	{ts: 0, gets: []int{1}},
	{ts: 3, puts: []int{1}},
	{ts: 3, gets: []int{1}},
}

// runHandleScript runs handleScript over one mixed-size group and checks
// every element it reads. Every step closes through EndStepAsync, its
// token left to the pipeline and drained at the end, when async is set,
// and through EndStep otherwise; with oneCall set (sync only) the
// one-op steps go through the datasets' PutAt/GetAt instead. It also
// reports how many read-aheads rank 0 issued.
func runHandleScript(t *testing.T, level FileOrganization, depth int, oneCall, async bool) (*testEnv, int) {
	t.Helper()
	const n = 3
	te := newCostedEnv(n)
	tr := obs.NewTracer()
	te.trace = tr
	te.run(t, Options{Organization: level, StepPipelineDepth: depth}, func(s *SDM) {
		attrs := []Attr{{Name: "u", Type: Double, GlobalSize: 96}, {Name: "w", Type: Double, GlobalSize: 160}}
		g, err := s.SetAttributes(attrs)
		if err != nil {
			panic(err)
		}
		var ds [2]*Dataset[float64]
		var maps [2][]int32
		for i, a := range attrs {
			maps[i] = roundRobinMap(s.env.Comm.Rank(), n, int(a.GlobalSize))
			if _, err := g.DataView([]string{a.Name}, maps[i]); err != nil {
				panic(err)
			}
			if ds[i], err = DatasetOf[float64](g, a.Name); err != nil {
				panic(err)
			}
		}
		type check struct {
			ts, ds int
			out    []float64
		}
		var checks []check
		values := func(d int, ts int64) []float64 {
			vals := make([]float64, len(maps[d]))
			for i, gi := range maps[d] {
				vals[i] = scriptValue(d, int(ts), int(gi))
			}
			return vals
		}
		out := func(d int, ts int64) []float64 {
			c := check{int(ts), d, make([]float64, len(maps[d]))}
			checks = append(checks, c)
			return c.out
		}
		for _, st := range handleScript {
			oneOp := len(st.puts)+len(st.gets) == 1
			var err error
			switch {
			case oneCall && oneOp && len(st.puts) == 1:
				err = ds[st.puts[0]].PutAt(st.ts, values(st.puts[0], st.ts))
			case oneCall && oneOp:
				err = ds[st.gets[0]].GetAt(st.ts, out(st.gets[0], st.ts))
			default:
				if err := s.BeginStep(st.ts); err != nil {
					panic(err)
				}
				for _, d := range st.puts {
					if err := ds[d].Put(values(d, st.ts)); err != nil {
						panic(err)
					}
				}
				for _, d := range st.gets {
					if err := ds[d].Get(out(d, st.ts)); err != nil {
						panic(err)
					}
				}
				if async {
					_, err = s.EndStepAsync()
				} else {
					err = s.EndStep()
				}
			}
			if err != nil {
				panic(err)
			}
			if st.drain {
				if err := s.DrainSteps(); err != nil {
					panic(err)
				}
			}
		}
		if err := s.DrainSteps(); err != nil {
			panic(err)
		}
		for _, c := range checks {
			for i, gi := range maps[c.ds] {
				if want := scriptValue(c.ds, c.ts, int(gi)); c.out[i] != want {
					panic(fmt.Sprintf("d%d@%d element %d = %g, want %g", c.ds, c.ts, gi, c.out[i], want))
				}
			}
		}
	})
	ahead := 0
	for _, sp := range tr.Spans() {
		if sp.Pid == obs.PidRank(0) && sp.Name == "readahead" {
			ahead++
		}
	}
	return te, ahead
}

// TestGroupStepIsManagerStep runs the handle script through the Manager
// at every level, depths 1 and 4, sync and async (where a get-only step
// reads a file whose put is still in flight), and checks every element
// it reads back. In the sync runs it also pins that a one-call
// PutAt/GetAt is the Manager's step: the script with its one-op steps
// issued that way costs the same — per-rank clocks, pfs stats, file
// bytes and query counts — as with BeginStep/EndStep.
func TestGroupStepIsManagerStep(t *testing.T) {
	for _, level := range []FileOrganization{Level1, Level2, Level3} {
		for _, depth := range []int{1, 4} {
			for _, async := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/depth%d/async=%v", level, depth, async), func(t *testing.T) {
					mgr, ahead := runHandleScript(t, level, depth, false, async)
					if depth > 1 && ahead == 0 {
						t.Fatal("the script issued no read-ahead")
					}
					if async {
						return
					}
					one, _ := runHandleScript(t, level, depth, true, false)
					filesEqual(t, "one-call vs step", snapshotFiles(t, one.fs), snapshotFiles(t, mgr.fs))
					if a, b := one.fs.Stats(), mgr.fs.Stats(); a != b {
						t.Fatalf("pfs stats differ:\none-call %+v\nstep     %+v", a, b)
					}
					for r, c := range clocks(one, 3) {
						if m := clocks(mgr, 3)[r]; c != m {
							t.Fatalf("rank %d clock: one-call %v, step %v", r, c, m)
						}
					}
					if a, b := one.cat.DB().QueryCount(), mgr.cat.DB().QueryCount(); a != b {
						t.Fatalf("db query counts differ: one-call %d, step %d", a, b)
					}
				})
			}
		}
	}
}

// TestStepMisuse drives every misuse path of the async step API: each
// must fail loudly without corrupting the engine.
func TestStepMisuse(t *testing.T) {
	te := newTestEnv(2)
	te.run(t, Options{Organization: Level3}, func(s *SDM) {
		_, d, m := epochGroup(t, te, s, 32)
		vals := make([]float64, len(m))

		// Wait called twice.
		if err := s.BeginStep(0); err != nil {
			panic(err)
		}
		if err := d.Put(vals); err != nil {
			panic(err)
		}
		tok, err := s.EndStepAsync()
		if err != nil {
			panic(err)
		}
		if err := tok.Wait(); err != nil {
			panic(err)
		}
		if err := tok.Wait(); err == nil {
			t.Error("second Wait on a token accepted")
		}

		// BeginStep while a token is outstanding: allowed since per-file
		// dependency tracking (the next step queues into a fresh arena);
		// the conflicting flush implicitly waits on the token.
		if err := s.BeginStep(1); err != nil {
			panic(err)
		}
		if err := d.Put(vals); err != nil {
			panic(err)
		}
		tok, err = s.EndStepAsync()
		if err != nil {
			panic(err)
		}
		if err := s.BeginStep(2); err != nil {
			t.Errorf("BeginStep with an outstanding token rejected: %v", err)
		}
		if err := d.Put(vals); err != nil {
			panic(err)
		}
		tok2, err := s.EndStepAsync()
		if err != nil {
			panic(err)
		}
		if !tok.waited {
			t.Error("conflicting flush did not implicitly wait the outstanding token")
		}
		if err := tok.Wait(); err == nil {
			t.Error("Wait after an implicit join accepted")
		}
		if err := tok2.Wait(); err != nil {
			panic(err)
		}

		// EndStepAsync and EndStep without an open step.
		if _, err := s.EndStepAsync(); err == nil {
			t.Error("EndStepAsync without BeginStep accepted")
		}
		if err := s.EndStep(); err == nil {
			t.Error("EndStep without BeginStep accepted")
		}
	})
}

// TestGroupRegisteredMidStep: a group registered while a step is open is
// not part of it — a Put on it fails and says why — and takes part in
// the next step.
func TestGroupRegisteredMidStep(t *testing.T) {
	te := newTestEnv(2)
	te.run(t, Options{Organization: Level3}, func(s *SDM) {
		_, d, m := epochGroup(t, te, s, 32)
		vals := make([]float64, len(m))
		for i, gi := range m {
			vals[i] = float64(gi) + 0.5
		}
		if err := s.BeginStep(5); err != nil {
			panic(err)
		}
		if err := d.Put(vals); err != nil {
			panic(err)
		}
		attrs := MakeDatalist("late")
		attrs[0].GlobalSize = 32
		g, err := s.SetAttributes(attrs)
		if err != nil {
			panic(err)
		}
		if _, err := g.DataView([]string{"late"}, m); err != nil {
			panic(err)
		}
		late, err := DatasetOf[float64](g, "late")
		if err != nil {
			panic(err)
		}
		if err := late.Put(vals); err == nil {
			t.Error("Put on a group registered after BeginStep accepted")
		} else if !strings.Contains(err.Error(), "registered after BeginStep(5)") {
			t.Errorf("mid-step group error does not explain itself: %v", err)
		}
		if err := s.EndStep(); err != nil {
			panic(err)
		}
		if err := s.BeginStep(6); err != nil {
			panic(err)
		}
		if err := late.Put(vals); err != nil {
			t.Errorf("Put on the late group in the next step: %v", err)
		}
		if err := s.EndStep(); err != nil {
			panic(err)
		}
		got := make([]float64, len(m))
		if err := late.GetAt(6, got); err != nil {
			panic(err)
		}
		for i := range got {
			if got[i] != vals[i] {
				t.Errorf("late@6 element %d = %g, want %g", m[i], got[i], vals[i])
				break
			}
		}
	})
	recs, err := te.cat.WritesForRun(nil, 1)
	if err != nil || len(recs) != 2 {
		t.Fatalf("execution table has %d records (%v), want p@5 and late@6", len(recs), err)
	}
}

// TestFinalizeCancelsOpenStep: Finalize with a step still open drops
// what the step queued — releasing the caller's slices — reports the
// step on every rank, and still reaches its barrier.
func TestFinalizeCancelsOpenStep(t *testing.T) {
	const n = 2
	te := newTestEnv(n)
	var errs [n]error
	var groups [n]*Group
	err := te.world.Run(func(c *mpi.Comm) {
		s, err := Initialize(Env{Comm: c, FS: te.fs, Catalog: te.cat}, "testapp", Options{})
		if err != nil {
			panic(err)
		}
		g, d, m := epochGroup(t, te, s, 32)
		if err := s.BeginStep(7); err != nil {
			panic(err)
		}
		if err := d.Put(make([]float64, len(m))); err != nil {
			panic(err)
		}
		errs[c.Rank()] = s.Finalize()
		groups[c.Rank()] = g
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "step 7") {
			t.Errorf("rank %d: Finalize with step 7 open returned %v", r, err)
		}
	}
	for r, g := range groups {
		if g.s.step.open {
			t.Errorf("rank %d: step still open after Finalize", r)
		}
		for _, p := range g.ep.puts[:cap(g.ep.puts)] {
			if p.vals.f64 != nil || p.vals.i32 != nil || p.vals.i64 != nil {
				t.Errorf("rank %d: the cancelled step still holds its Put's slice", r)
			}
		}
	}
	if files := te.fs.List(); len(files) != 0 {
		t.Errorf("cancelled step wrote %v", files)
	}
}

// TestManagerStepSameFileTwoGroupsRejected: a cross-group step whose
// groups write the same file must fail loudly at EndStep.
func TestManagerStepSameFileTwoGroupsRejected(t *testing.T) {
	te := newTestEnv(2)
	te.run(t, Options{Organization: Level2}, func(s *SDM) {
		var ds [2]*Dataset[float64]
		var vals [2][]float64
		for k := 0; k < 2; k++ {
			attrs := MakeDatalist("dup")
			attrs[0].GlobalSize = 32
			g, err := s.SetAttributes(attrs)
			if err != nil {
				panic(err)
			}
			m := roundRobinMap(s.env.Comm.Rank(), s.env.Comm.Size(), 32)
			if _, err := g.DataView([]string{"dup"}, m); err != nil {
				panic(err)
			}
			if ds[k], err = DatasetOf[float64](g, "dup"); err != nil {
				panic(err)
			}
			vals[k] = make([]float64, len(m))
		}
		if err := s.BeginStep(0); err != nil {
			panic(err)
		}
		if err := ds[0].Put(vals[0]); err != nil {
			panic(err)
		}
		if err := ds[1].Put(vals[1]); err != nil {
			panic(err)
		}
		if err := s.EndStep(); err == nil {
			t.Error("cross-group step writing one file from two groups accepted")
		} else if !strings.Contains(err.Error(), "two groups") {
			t.Errorf("cross-group conflict error does not explain itself: %v", err)
		}
		// The failed step cancelled cleanly: a fresh one-call step works.
		if err := ds[0].PutAt(1, vals[0]); err != nil {
			panic(err)
		}
	})
}

// TestFinalizeDrainsTokens: an application that forgets Wait still
// charges the flush at Finalize, and the bytes are durable.
func TestFinalizeDrainsTokens(t *testing.T) {
	te := newCostedEnv(2)
	var issued, finalized sim.Time
	te.run(t, Options{Organization: Level3}, func(s *SDM) {
		_, d, m := epochGroup(t, te, s, 256)
		vals := make([]float64, len(m))
		for i := range vals {
			vals[i] = float64(i)
		}
		if err := s.BeginStep(0); err != nil {
			panic(err)
		}
		if err := d.Put(vals); err != nil {
			panic(err)
		}
		if _, err := s.EndStepAsync(); err != nil {
			panic(err)
		}
		if s.env.Comm.Rank() == 0 {
			issued = s.env.Comm.Now()
		}
	})
	finalized = te.world.Comm(0).Now()
	if finalized <= issued {
		t.Fatalf("Finalize did not charge the unwaited flush: issued at %v, finalized at %v", issued, finalized)
	}
	if n := len(te.fs.List()); n != 1 {
		t.Fatalf("unwaited async flush left %d files, want 1", n)
	}
}
