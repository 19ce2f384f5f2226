package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"sdm/internal/catalog"
	"sdm/internal/mpi"
	"sdm/internal/mpiio"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// Tests of metadata-sized aggregator sets: Group.open fills
// Hints.CBNodes from the group's attributes when the caller left it
// zero, so only the ranks that will touch a file's stripes open it. The
// dense schedule (Hints{CBNodes: P}, through the same code) is the
// differential reference: same bytes, same requests, fewer opens, and
// never a later finish.

// aggFixture is what one run of the fixture application leaves behind.
type aggFixture struct {
	te *testEnv
	// writeEnd, readEnd and end are per-rank clocks after the last write
	// step, after the last read-back step, and after Finalize.
	writeEnd, readEnd, end []sim.Time
	// fileOpens is what the run should have paid in opens: per file, the
	// aggregator-set size times the number of times the level opens it.
	fileOpens int64
}

// latest is the max-rank time of a per-rank clock list.
func latest(ts []sim.Time) sim.Time {
	var m sim.Time
	for _, t := range ts {
		m = sim.MaxTime(m, t)
	}
	return m
}

// aggRun writes `steps` checkpoints of two groups — "a" with four
// uniform 32 KiB datasets, "b" with one 128 KiB dataset — reads them
// back verified, and finalizes. Group steps drive group a alone;
// Manager steps drive both.
func aggRun(t *testing.T, n, steps int, opts Options, manager bool) *aggFixture {
	t.Helper()
	fx := &aggFixture{
		te:       newCostedEnv(n),
		writeEnd: make([]sim.Time, n),
		readEnd:  make([]sim.Time, n),
	}
	names := []string{"p", "q", "r", "s", "f"}
	err := fx.te.world.Run(func(c *mpi.Comm) {
		s, err := Initialize(Env{Comm: c, FS: fx.te.fs, Catalog: fx.te.cat}, "agg", opts)
		if err != nil {
			panic(err)
		}
		const nA, nB = 4096, 4 * 4096
		attrs := MakeDatalist(names[:4]...)
		for i := range attrs {
			attrs[i].GlobalSize = nA
		}
		ga, err := s.SetAttributes(attrs)
		if err != nil {
			panic(err)
		}
		battrs := MakeDatalist(names[4])
		battrs[0].GlobalSize = nB
		gb, err := s.SetAttributes(battrs)
		if err != nil {
			panic(err)
		}
		ma := roundRobinMap(c.Rank(), c.Size(), nA)
		mb := roundRobinMap(c.Rank(), c.Size(), nB)
		if _, err := ga.DataView(names[:4], ma); err != nil {
			panic(err)
		}
		if _, err := gb.DataView(names[4:], mb); err != nil {
			panic(err)
		}
		a := &raApp{t: t, s: s, ga: ga, gb: gb, manager: manager}
		nsets := 4
		if manager {
			nsets = 5
		}
		for j := 0; j < nsets; j++ {
			g, m := ga, ma
			if j == 4 {
				g, m = gb, mb
			}
			d, err := DatasetOf[float64](g, names[j])
			if err != nil {
				panic(err)
			}
			a.ds = append(a.ds, d)
			a.maps = append(a.maps, m)
		}
		for k := 0; k < steps; k++ {
			if err := a.put(int64(k), nsets, 0); err != nil {
				panic(err)
			}
		}
		fx.writeEnd[c.Rank()] = c.Now()
		for k := 0; k < steps; k++ {
			a.getN(int64(k), nsets, 0)
		}
		fx.readEnd[c.Rank()] = c.Now()
		if c.Rank() == 0 {
			perFile := int64(1)
			if opts.Organization == Level1 {
				perFile = 2 // closed after the write, reopened for the read-back
			}
			for _, g := range s.groups {
				set := int64(opts.Hints.CBNodes)
				if set == 0 {
					set = int64(g.cbNodes)
				}
				fx.fileOpens += set * perFile * int64(len(g.FileNames()))
			}
		}
		if err := s.Finalize(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.end = clocks(fx.te, n)
	return fx
}

// sameFiles fails the test unless both file systems hold the same files
// with the same bytes.
func sameFiles(t *testing.T, a, b *pfs.System) {
	t.Helper()
	la, lb := a.List(), b.List()
	if fmt.Sprint(la) != fmt.Sprint(lb) {
		t.Fatalf("file lists differ:\n%v\n%v", la, lb)
	}
	for _, name := range la {
		da, err := a.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("file %q differs", name)
		}
	}
}

// (a) Default (metadata-sized) against dense sets, every level, group
// and Manager steps.
func TestAggregatorSetDifferential(t *testing.T) {
	const n, steps = 4, 3
	for _, level := range []FileOrganization{Level1, Level2, Level3} {
		for _, manager := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/manager=%v", level, manager), func(t *testing.T) {
				sized := aggRun(t, n, steps, Options{Organization: level}, manager)
				dense := aggRun(t, n, steps, Options{Organization: level, Hints: mpiio.Hints{CBNodes: n}}, manager)
				sameFiles(t, sized.te.fs, dense.te.fs)
				ss, ds := sized.te.fs.Stats(), dense.te.fs.Stats()
				if ss.WriteReqs != ds.WriteReqs || ss.BytesWritten != ds.BytesWritten ||
					ss.ReadRequests != ds.ReadRequests || ss.BytesRead != ds.BytesRead || ss.Views != ds.Views {
					t.Fatalf("requests differ:\nsized %+v\ndense %+v", ss, ds)
				}
				for _, fx := range []*aggFixture{sized, dense} {
					st := fx.te.fs.Stats()
					if st.Opens != fx.fileOpens || st.Closes != st.Opens {
						t.Fatalf("%d opens, %d closes, want the sum of the set sizes %d for both", st.Opens, st.Closes, fx.fileOpens)
					}
				}
				if ss.Opens >= ds.Opens {
					t.Fatalf("sized sets paid %d opens, dense %d", ss.Opens, ds.Opens)
				}
				for _, ph := range []struct {
					name         string
					sized, dense []sim.Time
				}{
					{"write phase", sized.writeEnd, dense.writeEnd},
					{"read phase", sized.readEnd, dense.readEnd},
					{"finalize", sized.end, dense.end},
				} {
					if latest(ph.sized) > latest(ph.dense) {
						t.Errorf("%s finishes at %v, later than the dense schedule's %v", ph.name, latest(ph.sized), latest(ph.dense))
					}
				}
				// A level-1 step of four (or five) datasets opens as many
				// files: the dense schedule pays every open on every rank's
				// main timeline, the sized one a rank's own share.
				if level == Level1 && latest(sized.writeEnd) >= latest(dense.writeEnd) {
					t.Errorf("level-1 write phase finishes at %v, not earlier than dense %v", latest(sized.writeEnd), latest(dense.writeEnd))
				}
			})
		}
	}
}

// (d) A caller's CBNodes is respected as given: core fills the hint only
// when it was left zero.
func TestAggregatorSetCallerHintRespected(t *testing.T) {
	const n, steps = 4, 2
	fx := aggRun(t, n, steps, Options{Organization: Level1, Hints: mpiio.Hints{CBNodes: 3}}, false)
	// Four files per step, each opened for the write and for the read.
	if want := int64(3 * 2 * 4 * steps); fx.fileOpens != want {
		t.Fatalf("fixture expects %d opens, want %d", fx.fileOpens, want)
	}
	if st := fx.te.fs.Stats(); st.Opens != fx.fileOpens || st.Closes != st.Opens {
		t.Fatalf("%d opens, %d closes, want %d", st.Opens, st.Closes, fx.fileOpens)
	}
}

// The sizing rule itself, per level, on the default 512 KiB stripe.
func TestAggregatorSetSizing(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		level  FileOrganization
		elems  []int64 // global sizes of the group's float64 datasets
		expect int
	}{
		{Level1, []int64{4913}, 1},                   // 39 304 B: one stripe, file starts at 0
		{Level1, []int64{100_000, 10}, 2},            // the largest dataset decides
		{Level2, []int64{4913}, 2},                   // a slab anywhere in the file straddles two
		{Level2, []int64{65536}, 2},                  // exactly one stripe of data, unaligned
		{Level3, []int64{65536, 65536, 65536}, 4},    // the whole group's step
		{Level3, []int64{1 << 20, 1 << 20}, n},       // 16 MiB of step: capped at P
		{Level1, []int64{1 << 20}, n},                // 8 MiB slab over 8 ranks: dense
		{Level3, []int64{4913, 4913, 4913, 4913}, 2}, // small group: one stripe + 1
	} {
		te := newCostedEnv(n)
		te.run(t, Options{Organization: tc.level}, func(s *SDM) {
			attrs := make([]Attr, len(tc.elems))
			for i, e := range tc.elems {
				attrs[i] = Attr{Name: fmt.Sprintf("d%d", i), Type: Double, GlobalSize: e}
			}
			g, err := s.SetAttributes(attrs)
			if err != nil {
				panic(err)
			}
			if g.cbNodes != tc.expect && s.env.Comm.Rank() == 0 {
				t.Errorf("%v %v: set of %d, want %d", tc.level, tc.elems, g.cbNodes, tc.expect)
			}
		})
	}
}

// (b) Open has no rendezvous, so a missing import or history file must
// fail on every rank by itself — with the dense set (every rank asks
// the file system) and with a small one (the others check existence) —
// and no rank may be left waiting in a collective. A hang here fails
// under the test timeout.
func TestDeferredOpenMissingFilesFailEverywhere(t *testing.T) {
	const n = 4
	for _, cb := range []int{0, 1} {
		opts := Options{Hints: mpiio.Hints{CBNodes: cb}}
		var mu sync.Mutex
		var importErrs, histErrs int
		te := newTestEnv(n)
		te.run(t, opts, func(s *SDM) {
			_, err := s.MakeImportlist("nowhere.msh", []ImportSpec{{Name: "x", Type: Double, Length: 8}})
			if errors.Is(err, pfs.ErrNotExist) {
				mu.Lock()
				importErrs++
				mu.Unlock()
			} else {
				t.Errorf("rank %d: MakeImportlist of a missing file: %v", s.env.Comm.Rank(), err)
			}
			hist := &catalog.IndexHistory{FileName: "nowhere.hist", EdgeSizes: make([]int64, n)}
			_, err = s.loadIndexHistory(hist, nil)
			if errors.Is(err, pfs.ErrNotExist) {
				mu.Lock()
				histErrs++
				mu.Unlock()
			} else {
				t.Errorf("rank %d: loading a missing history file: %v", s.env.Comm.Rank(), err)
			}
		})
		if importErrs != n || histErrs != n {
			t.Fatalf("CBNodes=%d: %d import errors, %d history errors, want %d each", cb, importErrs, histErrs, n)
		}
	}
}

// (e) Same inputs, same per-rank clocks: which rank opens a file is a
// function of its name, never of host scheduling.
func TestDeferredOpenDeterministic(t *testing.T) {
	const n, steps = 4, 4
	run := func() *aggFixture {
		return aggRun(t, n, steps, Options{Organization: Level1, StepPipelineDepth: 4}, true)
	}
	ref := run()
	for i := 0; i < 3; i++ {
		got := run()
		for _, ph := range [][2][]sim.Time{{ref.writeEnd, got.writeEnd}, {ref.readEnd, got.readEnd}, {ref.end, got.end}} {
			for r := range ph[0] {
				if ph[0][r] != ph[1][r] {
					t.Fatalf("run %d: rank %d clock %v, first run %v", i, r, ph[1][r], ph[0][r])
				}
			}
		}
		if a, b := ref.te.fs.Stats(), got.te.fs.Stats(); a != b {
			t.Fatalf("run %d: pfs stats differ:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestAnnotationDeterministic: only rank 0 knows an annotation's
// length, so the broadcast must charge the size the root declared —
// whichever rank reaches the rendezvous last.
func TestAnnotationDeterministic(t *testing.T) {
	const n = 8
	val := bytes.Repeat([]byte{7}, 4096)
	run := func() []sim.Time {
		te := newCostedEnv(n)
		te.run(t, Options{}, func(s *SDM) {
			if err := s.Annotate(s.RunID(), "prov", "blob", val); err != nil {
				panic(err)
			}
			for i := 0; i < 4; i++ {
				got, err := s.Annotation(s.RunID(), "prov", "blob")
				if err != nil || !bytes.Equal(got, val) {
					panic(fmt.Sprintf("annotation round trip: %d bytes, %v", len(got), err))
				}
			}
		})
		return clocks(te, n)
	}
	ref := run()
	for i := 0; i < 5; i++ {
		for r, c := range run() {
			if c != ref[r] {
				t.Fatalf("run %d: rank %d clock %v, first run %v", i, r, c, ref[r])
			}
		}
	}
}
