package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"

	"sdm/internal/catalog"
	"sdm/internal/mpi"
	"sdm/internal/mpiio"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// Tests of metadata-sized layouts: Group.open fills Hints.StripingUnit
// and Hints.CBNodes from the group's attributes when the caller left
// them zero, so one step's extent covers every I/O server once and only
// the ranks that will touch a file's stripes open it. The old schedule
// (the file system's default unit under the dense set,
// Hints{StripingUnit: Config.StripeSize, CBNodes: P}, through the same
// code) is the differential reference: same bytes, opens equal to the
// set sizes, and never a later finish.

// aggFixture is what one run of the fixture application leaves behind.
type aggFixture struct {
	te *testEnv
	// stepEnds holds every rank's clock after each write step and then
	// after each read-back step; end holds them after Finalize.
	stepEnds [][]sim.Time
	end      []sim.Time
	tr       *obs.Tracer // the file system's spans
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

// aggSmall and aggLarge are aggRun's dataset sizes in elements: 32 KiB
// datasets fit one 64 KiB stripe, 256 KiB ones (1 MiB for the large
// dataset and for a level-3 step) take several stripes of any unit.
const (
	aggSmall = 4096
	aggLarge = 32768
)

// aggRun writes `steps` checkpoints of two groups — "a" with four
// uniform datasets of nA float64 elements, "b" with one of 4×nA — reads
// them back verified, and finalizes. Group steps drive group a alone;
// Manager steps drive both.
func aggRun(t *testing.T, n, steps, nA int, opts Options, manager bool) *aggFixture {
	t.Helper()
	nB := 4 * nA
	fx := &aggFixture{
		te:       newCostedEnv(n),
		stepEnds: make([][]sim.Time, 2*steps),
		tr:       obs.NewTracer(),
	}
	for i := range fx.stepEnds {
		fx.stepEnds[i] = make([]sim.Time, n)
	}
	fx.te.fs.SetTracer(fx.tr)
	names := []string{"p", "q", "r", "s", "f"}
	err := fx.te.world.Run(func(c *mpi.Comm) {
		s, err := Initialize(Env{Comm: c, FS: fx.te.fs, Catalog: fx.te.cat}, "agg", opts)
		if err != nil {
			panic(err)
		}
		attrs := MakeDatalist(names[:4]...)
		for i := range attrs {
			attrs[i].GlobalSize = int64(nA)
		}
		ga, err := s.SetAttributes(attrs)
		if err != nil {
			panic(err)
		}
		battrs := MakeDatalist(names[4])
		battrs[0].GlobalSize = int64(nB)
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
			fx.stepEnds[k][c.Rank()] = c.Now()
		}
		for k := 0; k < steps; k++ {
			a.getN(int64(k), nsets, 0)
			fx.stepEnds[steps+k][c.Rank()] = c.Now()
		}
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
				files := map[string]bool{}
				for _, rec := range g.index.recs {
					files[rec.FileName] = true
				}
				fx.fileOpens += set * perFile * int64(len(files))
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

// oldSchedule is the differential reference: the file system's default
// stripe unit under the dense aggregator set.
func oldSchedule(n int) mpiio.Hints {
	return mpiio.Hints{StripingUnit: pfs.DefaultConfig().StripeSize, CBNodes: n}
}

// (b) Default (metadata-sized unit and set) against the old schedule,
// every level, group and Manager steps.
func TestAggregatorSetDifferential(t *testing.T) {
	const n, steps = 8, 3
	for _, level := range []FileOrganization{Level1, Level2, Level3} {
		for _, manager := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/manager=%v", level, manager), func(t *testing.T) {
				sized := aggRun(t, n, steps, aggLarge, Options{Organization: level}, manager)
				old := aggRun(t, n, steps, aggLarge, Options{Organization: level, Hints: oldSchedule(n)}, manager)
				sameFiles(t, sized.te.fs, old.te.fs)
				ss, rs := sized.te.fs.Stats(), old.te.fs.Stats()
				if ss.BytesWritten != rs.BytesWritten || ss.BytesRead != rs.BytesRead || ss.Views != rs.Views {
					t.Fatalf("bytes or views differ:\nsized %+v\nold   %+v", ss, rs)
				}
				for _, fx := range []*aggFixture{sized, old} {
					st := fx.te.fs.Stats()
					if st.Opens != fx.fileOpens || st.Closes != st.Opens {
						t.Fatalf("%d opens, %d closes, want the sum of the set sizes %d for both", st.Opens, st.Closes, fx.fileOpens)
					}
				}
				for _, ph := range []struct {
					name       string
					sized, old []sim.Time
				}{
					{"write phase", sized.stepEnds[steps-1], old.stepEnds[steps-1]},
					{"read phase", sized.stepEnds[2*steps-1], old.stepEnds[2*steps-1]},
					{"finalize", sized.end, old.end},
				} {
					// A level-1 step opens a file per dataset, which the dense
					// set pays on every rank; at levels 2 and 3 the whole gain
					// is the layout: a step's stripes cover the servers once.
					if latest(ph.sized) >= latest(ph.old) {
						t.Errorf("%s finishes at %v, not earlier than the old schedule's %v", ph.name, latest(ph.sized), latest(ph.old))
					}
				}
			})
		}
	}
}

// (d) A caller's CBNodes and StripingUnit are respected as given: core
// fills each hint only when it was left zero, and sizes the set over the
// unit the files will really have.
func TestAggregatorSetCallerHintRespected(t *testing.T) {
	const n, steps = 4, 2
	fx := aggRun(t, n, steps, aggSmall, Options{Organization: Level1, Hints: mpiio.Hints{CBNodes: 3}}, false)
	// Four files per step, each opened for the write and for the read.
	if want := int64(3 * 2 * 4 * steps); fx.fileOpens != want {
		t.Fatalf("fixture expects %d opens, want %d", fx.fileOpens, want)
	}
	if st := fx.te.fs.Stats(); st.Opens != fx.fileOpens || st.Closes != st.Opens {
		t.Fatalf("%d opens, %d closes, want %d", st.Opens, st.Closes, fx.fileOpens)
	}

	// A 128 KiB unit on 256 KiB level-1 files: two stripes, so a set of
	// two, and files that really are striped by 128 KiB.
	const unit = 128 << 10
	fx = aggRun(t, n, steps, aggLarge, Options{Organization: Level1, Hints: mpiio.Hints{StripingUnit: unit}}, false)
	if want := int64(2 * 2 * 4 * steps); fx.fileOpens != want || fx.te.fs.Stats().Opens != want {
		t.Fatalf("%d opens (fixture expects %d), want %d", fx.te.fs.Stats().Opens, fx.fileOpens, want)
	}
	for _, name := range fx.te.fs.List() {
		if got, _ := fx.te.fs.StripeUnit(name); got != unit {
			t.Fatalf("%s is striped by %d, want the caller's %d", name, got, unit)
		}
	}
}

// (a) The layout rule itself: the (unit, set) pair per level.
func TestAggregatorSetSizing(t *testing.T) {
	const (
		n   = 8
		KiB = 1 << 10
	)
	for _, tc := range []struct {
		level   FileOrganization
		elems   []int64 // global sizes of the group's float64 datasets
		servers int
		stripe  int64 // the file system's default unit
		unit    int64
		set     int
	}{
		// Below one granule: one stripe, one aggregator, as under any unit.
		{Level1, []int64{4913}, 10, 512 * KiB, 64 * KiB, 1},
		// The 64 KiB floor: 160 KB over ten servers would be 16 KB units.
		{Level1, []int64{20_000}, 10, 512 * KiB, 64 * KiB, 3},
		// The largest dataset decides at levels 1 and 2: 800 KB / 10 is
		// an 80 000 B unit, ten stripes: capped at P.
		{Level1, []int64{100_000, 10}, 10, 512 * KiB, 80_000, n},
		// A slab anywhere in a level-2 file straddles one more stripe.
		{Level2, []int64{4913}, 10, 512 * KiB, 64 * KiB, 2},
		{Level2, []int64{65536}, 10, 512 * KiB, 64 * KiB, n}, // 8 + 1 stripes: capped at P
		// Level 3 spreads the whole group's step: 2 200 000 B / 10 is a
		// 220 000 B unit; ten stripes + 1 would be eleven aggregators.
		{Level3, []int64{55_000, 55_000, 55_000, 55_000, 55_000}, 10, 512 * KiB, 220_000, n},
		{Level3, []int64{4913, 4913, 4913, 4913}, 10, 512 * KiB, 64 * KiB, 4},
		// The Config.StripeSize cap cuts a step into rows of ten stripes:
		// 16 MiB over ten servers would be 1.6 MiB units, so four rows of
		// 419 431 B; 8 MiB is two rows of the same unit.
		{Level3, []int64{1 << 20, 1 << 20}, 10, 512 * KiB, 419_431, n},
		{Level1, []int64{1 << 20}, 10, 512 * KiB, 419_431, n},
		// 2 200 000 B on two servers is above 2 × 512 KiB: three rows of
		// two 366 667 B stripes, six stripes + 1.
		{Level3, []int64{55_000, 55_000, 55_000, 55_000, 55_000}, 2, 512 * KiB, 366_667, 7},
		// A file system whose default is below the granule keeps its own.
		{Level2, []int64{4913}, 4, 4096, 4096, n},
		// The server count sets the spread: one server caps at the
		// default, five double the unit of ten (1 MiB / 5 and / 10,
		// rounded up to a byte), twenty stop at the floor.
		{Level3, []int64{131072}, 1, 512 * KiB, 512 * KiB, 3},
		{Level3, []int64{131072}, 5, 512 * KiB, 209_716, 6},
		{Level3, []int64{131072}, 10, 512 * KiB, 104_858, n},
		{Level3, []int64{131072}, 20, 512 * KiB, 64 * KiB, n},
	} {
		te := newCostedEnv(n)
		cfg := pfs.DefaultConfig()
		cfg.NumServers, cfg.StripeSize = tc.servers, tc.stripe
		te.fs = pfs.NewSystem(cfg)
		te.run(t, Options{Organization: tc.level}, func(s *SDM) {
			attrs := make([]Attr, len(tc.elems))
			for i, e := range tc.elems {
				attrs[i] = Attr{Name: fmt.Sprintf("d%d", i), Type: Double, GlobalSize: e}
			}
			g, err := s.SetAttributes(attrs)
			if err != nil {
				panic(err)
			}
			if (g.stripeUnit != tc.unit || g.cbNodes != tc.set) && s.env.Comm.Rank() == 0 {
				t.Errorf("%v %v on %d servers of %d: unit %d set %d, want unit %d set %d", tc.level,
					tc.elems, tc.servers, tc.stripe, g.stripeUnit, g.cbNodes, tc.unit, tc.set)
			}
		})
	}
}

// TestStepSpreadsEvenlyOverServers: two Level-3 groups whose step
// extents span ten granules and are no multiple of the server count, as
// on fun3d-l3. In every write step and every read-back step each server
// serves the even share of the step to within NumServers bytes per file
// — the extent over the servers, rounded up to a byte, leaves a drift of
// under one byte per server — and takes exactly one request of each file:
// when the drift moves a step's ends off a stripe boundary, the server
// holding both serves them as one.
func TestStepSpreadsEvenlyOverServers(t *testing.T) {
	const (
		n, steps = 16, 4 // sixteen ranks: room for eleven aggregators
		nA       = 27_561
		extent   = 4 * nA * 8 // 881,952 B: group a's four slabs, group b's one
	)
	servers := pfs.DefaultConfig().NumServers
	if extent < 10*minStripeUnit || extent%int64(servers) == 0 {
		t.Fatalf("fixture extent %d must span ten granules and not divide by %d", extent, servers)
	}
	fx := aggRun(t, n, steps, nA, Options{Organization: Level3}, true)

	// A step's requests all finish by the last rank's return from its
	// EndStep, and the next step's exchange waits for every rank first.
	bounds := make([]sim.Time, len(fx.stepEnds))
	for k, ends := range fx.stepEnds {
		bounds[k] = latest(ends)
	}
	type use struct {
		bytes int64
		reqs  map[string]int // file -> requests
	}
	perStep := make([][]use, len(bounds))
	for k := range perStep {
		perStep[k] = make([]use, servers)
		for srv := range perStep[k] {
			perStep[k][srv].reqs = map[string]int{}
		}
	}
	for _, sp := range fx.tr.Spans() {
		if sp.Pid != obs.PidServers || sp.Name != "serve" {
			continue
		}
		k := sort.Search(len(bounds), func(i int) bool { return sp.End <= bounds[i] })
		if k == len(bounds) {
			t.Fatalf("server %d served a request ending at %v, after the last step (%v)", sp.Tid, sp.End, bounds[k-1])
		}
		u := &perStep[k][sp.Tid]
		for _, kv := range sp.Args {
			switch kv.Key {
			case "bytes":
				b, _ := strconv.ParseInt(kv.Val, 10, 64)
				u.bytes += b
			case "file":
				u.reqs[kv.Val]++
			}
		}
	}

	const files = 2
	share := int64(files * extent / servers)
	for k, srvs := range perStep {
		phase, ts := "write", k
		if k >= steps {
			phase, ts = "read", k-steps
		}
		var total int64
		for srv, u := range srvs {
			total += u.bytes
			if d := u.bytes - share; d < -int64(files*servers) || d > int64(files*servers) {
				t.Errorf("%s step %d: server %d serves %d B, want %d ± %d", phase, ts, srv, u.bytes, share, files*servers)
			}
			if len(u.reqs) != files {
				t.Errorf("%s step %d: server %d serves %d files, want %d (%v)", phase, ts, srv, len(u.reqs), files, u.reqs)
			}
			for f, r := range u.reqs {
				if r != 1 {
					t.Errorf("%s step %d: server %d takes %d requests of %s, want one", phase, ts, srv, r, f)
				}
			}
		}
		if total != files*extent {
			t.Errorf("%s step %d: servers serve %d B, want the step's %d", phase, ts, total, files*extent)
		}
	}
}

// TestHistoryFileSpreadsEvenly: the index history is laid out by the
// rule a group's step is, so a later job's replay — one collective read
// of the whole file — puts the same bytes on every server, rows stripes
// each: within N·rows bytes of the even share (the extent falls short of
// its N·rows stripes by less than that) and at most rows + 1 requests
// per server. Below N·C the history is one row; on two servers under a
// 128 KiB default, above the 64 KiB floor, the cap cuts it into rows.
// Under the file system's default unit a history a few stripes long
// lands on a few servers and leaves the rest idle.
func TestHistoryFileSpreadsEvenly(t *testing.T) {
	const n = 16
	for _, tc := range []struct {
		name    string
		servers int
		stripe  int64 // C, the file system's default unit
		rows    int64
	}{
		{"one row", 10, 512 << 10, 1},
		{"rows", 2, 128 << 10, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pfs.DefaultConfig()
			cfg.NumServers, cfg.StripeSize = tc.servers, tc.stripe
			te := newCostedEnv(n)
			te.fs = pfs.NewSystem(cfg)
			m, layout := stageMesh(t, te.fs, 20, 20, 20)
			partVec := make([]int32, m.NumNodes())
			for i := range partVec {
				partVec[i] = int32(i * n / len(partVec))
			}
			var replayed [n]bool
			job := func(register bool) {
				te.run(t, Options{}, func(s *SDM) {
					imp, err := s.MakeImportlist("uns3d.msh", edgeSpecs(layout))
					if err != nil {
						panic(err)
					}
					ip, err := s.PartitionIndex(imp, "edge1", "edge2", partVec)
					if err != nil {
						panic(err)
					}
					replayed[s.Comm().Rank()] = ip.FromHistory
					if register {
						if err := s.IndexRegistry(ip, layout.NumEdges, partVec); err != nil {
							panic(err)
						}
					}
				})
			}
			job(true)
			// A new job on the same storage: fresh clocks, idle servers.
			tr := obs.NewTracer()
			te.world = mpi.NewWorld(n, mpi.DefaultConfig())
			te.fs.ResetSchedules()
			te.fs.SetTracer(tr)
			job(false)
			for r, ok := range replayed {
				if !ok {
					t.Fatalf("rank %d did not replay the history", r)
				}
			}

			var hist string
			for _, name := range te.fs.List() {
				if isHistFile(name) {
					hist = name
				}
			}
			size, err := te.fs.FileSize(hist)
			if err != nil {
				t.Fatal(err)
			}
			servers := int64(tc.servers)
			if rows := ceilDiv(size, servers*tc.stripe); rows != tc.rows || size < servers*minStripeUnit {
				t.Fatalf("fixture history of %d B is %d rows of %d servers, want %d rows of at least a granule", size, rows, servers, tc.rows)
			}
			served := make([]int64, servers)
			reqs := make([]int64, servers)
			for _, sp := range tr.Spans() {
				if sp.Pid != obs.PidServers || sp.Name != "serve" || !slices.Contains(sp.Args, obs.KV{Key: "file", Val: hist}) {
					continue
				}
				for _, kv := range sp.Args {
					if kv.Key == "bytes" {
						b, _ := strconv.ParseInt(kv.Val, 10, 64)
						served[sp.Tid] += b
					}
				}
				reqs[sp.Tid]++
			}
			share, slack := size/servers, servers*tc.rows
			var total int64
			for srv := range served {
				total += served[srv]
				if d := served[srv] - share; d < -slack || d > slack {
					t.Errorf("server %d serves %d B of the history, want %d ± %d", srv, served[srv], share, slack)
				}
				if reqs[srv] > tc.rows+1 {
					t.Errorf("server %d takes %d requests of the history, want at most %d", srv, reqs[srv], tc.rows+1)
				}
			}
			if total != size {
				t.Errorf("servers serve %d B of the history, want its %d", total, size)
			}
		})
	}
}

// (f) Level 3, two groups flushing concurrently through a pipelined
// Manager step: which server a stripe lives on and which rank writes it
// are functions of the file names and the attributes, never of host
// scheduling.
func TestStripedDomainsDeterministic(t *testing.T) {
	const n, steps = 8, 4
	run := func() *aggFixture {
		return aggRun(t, n, steps, aggLarge, Options{Organization: Level3, StepPipelineDepth: 2}, true)
	}
	ref := run()
	for i := 0; i < 3; i++ {
		sameRun(t, i, ref, run())
	}
}

// sameRun fails the test unless got repeats ref: per-rank clocks after
// every step and after Finalize, and the file system's counters.
func sameRun(t *testing.T, i int, ref, got *aggFixture) {
	t.Helper()
	refEnds := slices.Concat(ref.stepEnds, [][]sim.Time{ref.end})
	gotEnds := slices.Concat(got.stepEnds, [][]sim.Time{got.end})
	for k := range refEnds {
		for r := range refEnds[k] {
			if refEnds[k][r] != gotEnds[k][r] {
				t.Fatalf("run %d: rank %d clock %v after step %d, first run %v", i, r, gotEnds[k][r], k, refEnds[k][r])
			}
		}
	}
	if a, b := ref.te.fs.Stats(), got.te.fs.Stats(); a != b {
		t.Fatalf("run %d: pfs stats differ:\n%+v\n%+v", i, a, b)
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
		return aggRun(t, n, steps, aggSmall, Options{Organization: Level1, StepPipelineDepth: 4}, true)
	}
	ref := run()
	for i := 0; i < 3; i++ {
		sameRun(t, i, ref, run())
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
