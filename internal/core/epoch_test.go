package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sdm/internal/catalog"
	"sdm/internal/metadb"
	"sdm/internal/mpi"
	"sdm/internal/mpiio"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// newCostedEnv builds a test machine with realistic simulated costs, so
// differential tests compare meaningful virtual-time metrics rather
// than all-zero clocks.
func newCostedEnv(n int) *testEnv {
	return &testEnv{
		world: mpi.NewWorld(n, mpi.DefaultConfig()),
		fs:    pfs.NewSystem(pfs.DefaultConfig()),
		cat:   catalog.New(metadb.New()),
	}
}

// ---------------------------------------------------------------------------
// Legacy reference implementation.
//
// legacyWrite/legacyRead are copies of the pre-epoch Write and Read
// paths (one collective per dataset per timestep, one execution-table
// round trip each — a one-row RecordWrites, a one-key LookupWrites —
// recorded after the write joins).
// They are kept here, in the test file only, as the differential
// baseline single-operation epochs must match on bytes, file-system
// requests and catalog statements, and never finish later than.
// ---------------------------------------------------------------------------

// float64sToBytes is the conversion the byte-level legacy calls took as
// a separate pass before the permutation.
func float64sToBytes(vals []float64) []byte {
	buf := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

// permuteBytesToFile reorders a user buffer (map-array order) into the
// sorted order the file view consumes.
func permuteBytesToFile(v *View, data, out []byte) {
	es := v.elemSize
	for i, p := range v.perm {
		copy(out[int64(i)*es:(int64(i)+1)*es], data[int64(p)*es:(int64(p)+1)*es])
	}
}

// legacySlabGrid is the slab grid the pre-epoch paths addressed through:
// a group whose datasets all share one type and global size ("uniform")
// read and wrote slab k as tile k of a view installed at displacement 0,
// slab being one dataset's global bytes.
func legacySlabGrid(g *Group) (uniform bool, slab int64) {
	a0 := g.attrs[0]
	for _, a := range g.attrs {
		if a.GlobalSize != a0.GlobalSize || a.Type != a0.Type {
			return false, 0
		}
	}
	return true, a0.GlobalSize * a0.Type.Size()
}

func legacyWrite(g *Group, dataset string, timestep int64, data []byte) error {
	a, err := g.Attr(dataset)
	if err != nil {
		return err
	}
	v, ok := g.views[dataset]
	if !ok {
		return fmt.Errorf("core: no view installed for dataset %q", dataset)
	}
	if int64(len(data)) != int64(v.LocalSize())*v.elemSize {
		return fmt.Errorf("core: dataset %q write has %d bytes", dataset, len(data))
	}
	file := g.fileFor(g.byName[dataset], timestep)
	physOff := g.place(file, a.GlobalSize*a.Type.Size())
	alone := mpiio.NewCursor(g.s.env.Comm, g.s.env.FS) // one file: where its name hash puts it
	of, err := g.open(file, true, &alone)
	if err != nil {
		return err
	}
	var disp, logicalOff int64
	if uniform, slab := legacySlabGrid(g); uniform {
		logicalOff = physOff / slab * int64(v.LocalSize()) * v.elemSize
	} else {
		disp = physOff
	}
	of.SetView(disp, v.dtype)
	buf := make([]byte, len(data))
	permuteBytesToFile(v, data, buf)
	g.s.env.Comm.ComputeItems(int64(len(data)), memCopyRate)
	if err := of.WriteAtAllOps([]mpiio.BatchOp{{Disp: disp, Type: v.dtype, Off: logicalOff, Data: buf}}); err != nil {
		return err
	}
	if g.s.opts.Organization == Level1 {
		if err := of.Close(); err != nil {
			return err
		}
		delete(g.files, file)
	}
	rec := catalog.WriteRecord{
		RunID: g.s.runID, Dataset: dataset, Timestep: timestep,
		FileOffset: physOff, FileName: file,
	}
	g.index.add(rec)
	return g.s.catalogCall(func() error {
		return g.s.env.Catalog.RecordWrites(g.s.env.Comm.Clock(), []catalog.WriteRecord{rec})
	})
}

func legacyLookupPlacement(g *Group, dataset string, timestep int64) (catalog.WriteRecord, error) {
	if rec, ok := g.index.recs[writeKey{dataset, timestep}]; ok {
		return rec, nil
	}
	type wire struct {
		Rec catalog.WriteRecord
		Err string
		Hit bool
	}
	var w wire
	if g.s.env.Comm.Rank() == 0 {
		recs, err := g.s.env.Catalog.LookupWrites(g.s.env.Comm.Clock(), g.s.runID, []catalog.WriteKey{{Dataset: dataset, Timestep: timestep}})
		switch {
		case err != nil:
			w.Err = err.Error()
		case recs[0] == nil:
			w.Err = fmt.Sprintf("no entry for %q %d", dataset, timestep)
		default:
			w.Rec = *recs[0]
			w.Hit = true
		}
	}
	res := g.s.env.Comm.Bcast(0, w, 64).(wire)
	if !res.Hit {
		return catalog.WriteRecord{}, fmt.Errorf("%s", res.Err)
	}
	return res.Rec, nil
}

func legacyRead(g *Group, dataset string, timestep int64, out []byte) error {
	if _, err := g.Attr(dataset); err != nil {
		return err
	}
	v, ok := g.views[dataset]
	if !ok {
		return fmt.Errorf("core: no view installed for dataset %q", dataset)
	}
	rec, err := legacyLookupPlacement(g, dataset, timestep)
	if err != nil {
		return err
	}
	alone := mpiio.NewCursor(g.s.env.Comm, g.s.env.FS)
	of, err := g.open(rec.FileName, false, &alone)
	if err != nil {
		return err
	}
	var disp, logicalOff int64
	uniform, slab := legacySlabGrid(g)
	switch {
	case g.s.opts.Organization == Level1:
		disp, logicalOff = 0, 0
	case uniform && rec.FileOffset%slab == 0:
		logicalOff = rec.FileOffset / slab * int64(v.LocalSize()) * v.elemSize
	default:
		disp = rec.FileOffset
	}
	of.SetView(disp, v.dtype)
	buf := make([]byte, len(out))
	if err := of.ReadAtAllOps([]mpiio.BatchOp{{Disp: disp, Type: v.dtype, Off: logicalOff, Data: buf}}); err != nil {
		return err
	}
	permuteBytesFromFile(v, buf, out)
	g.s.env.Comm.ComputeItems(int64(len(out)), memCopyRate)
	if g.s.opts.Organization == Level1 {
		if err := of.Close(); err != nil {
			return err
		}
		delete(g.files, rec.FileName)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Differential harness.
// ---------------------------------------------------------------------------

// epochMode selects how the harness issues a script's operations.
type epochMode int

const (
	modeLegacy  epochMode = iota // pre-redesign reference paths
	modeOneOp                    // PutAt/GetAt (one-op epochs over the engine)
	modeBatched                  // BeginStep / Put,Get per dataset / EndStep
	modeAsync                    // BeginStep / Put,Get / EndStepAsync + immediate Wait
)

// diffScript is one randomized workload: a group of datasets written
// for several timesteps and read back.
type diffScript struct {
	nRanks   int
	level    FileOrganization
	sizes    []int64 // per-dataset global sizes (equal => uniform group)
	steps    int
	readBack bool
}

func scriptValue(ds, ts, gidx int) float64 {
	return float64(ds*1_000_000+ts*10_000+gidx) + 0.25
}

// runScript executes the script in the given mode on a fresh costed
// environment, returning the environment for inspection. Written
// values are deterministic in (dataset, timestep, global index).
func runScript(t *testing.T, sc diffScript, mode epochMode) *testEnv {
	t.Helper()
	te := newCostedEnv(sc.nRanks)
	te.run(t, Options{Organization: sc.level}, func(s *SDM) {
		attrs := make([]Attr, len(sc.sizes))
		for i, sz := range sc.sizes {
			attrs[i] = Attr{Name: fmt.Sprintf("d%d", i), Type: Double, GlobalSize: sz}
		}
		g, err := s.SetAttributes(attrs)
		if err != nil {
			panic(err)
		}
		rank, size := s.env.Comm.Rank(), s.env.Comm.Size()
		maps := make([][]int32, len(sc.sizes))
		vals := make([][]float64, len(sc.sizes))
		handles := make([]*Dataset[float64], len(sc.sizes))
		for i, sz := range sc.sizes {
			maps[i] = roundRobinMap(rank, size, int(sz))
			if _, err := g.DataView([]string{attrs[i].Name}, maps[i]); err != nil {
				panic(err)
			}
			vals[i] = make([]float64, len(maps[i]))
			if handles[i], err = DatasetOf[float64](g, attrs[i].Name); err != nil {
				panic(err)
			}
		}
		fill := func(ds, ts int) []float64 {
			for j, gi := range maps[ds] {
				vals[ds][j] = scriptValue(ds, ts, int(gi))
			}
			return vals[ds]
		}

		for ts := 0; ts < sc.steps; ts++ {
			switch mode {
			case modeLegacy:
				for ds := range sc.sizes {
					buf := float64sToBytes(fill(ds, ts))
					if err := legacyWrite(g, attrs[ds].Name, int64(ts), buf); err != nil {
						panic(err)
					}
				}
			case modeOneOp:
				for ds := range sc.sizes {
					if err := handles[ds].PutAt(int64(ts), fill(ds, ts)); err != nil {
						panic(err)
					}
				}
			case modeBatched, modeAsync:
				if err := s.BeginStep(int64(ts)); err != nil {
					panic(err)
				}
				staged := make([][]float64, len(sc.sizes))
				for ds := range sc.sizes {
					// Copy so every queued slice stays valid until EndStep.
					staged[ds] = append([]float64(nil), fill(ds, ts)...)
					if err := handles[ds].Put(staged[ds]); err != nil {
						panic(err)
					}
				}
				if mode == modeAsync {
					tok, err := s.EndStepAsync()
					if err != nil {
						panic(err)
					}
					if err := tok.Wait(); err != nil {
						panic(err)
					}
				} else if err := s.EndStep(); err != nil {
					panic(err)
				}
			}
		}

		if !sc.readBack {
			return
		}
		check := func(ds, ts int, got []float64) {
			for j, gi := range maps[ds] {
				if want := scriptValue(ds, ts, int(gi)); got[j] != want {
					panic(fmt.Sprintf("rank %d mode %d: d%d ts %d elem %d = %g, want %g",
						rank, mode, ds, ts, gi, got[j], want))
				}
			}
		}
		for ts := 0; ts < sc.steps; ts++ {
			switch mode {
			case modeLegacy:
				for ds := range sc.sizes {
					out := make([]byte, len(maps[ds])*8)
					if err := legacyRead(g, attrs[ds].Name, int64(ts), out); err != nil {
						panic(err)
					}
					check(ds, ts, bytesToFloat64s(out))
				}
			case modeOneOp:
				for ds := range sc.sizes {
					out := make([]float64, len(maps[ds]))
					if err := handles[ds].GetAt(int64(ts), out); err != nil {
						panic(err)
					}
					check(ds, ts, out)
				}
			case modeBatched, modeAsync:
				if err := s.BeginStep(int64(ts)); err != nil {
					panic(err)
				}
				outs := make([][]float64, len(sc.sizes))
				for ds := range sc.sizes {
					outs[ds] = make([]float64, len(maps[ds]))
					if err := handles[ds].Get(outs[ds]); err != nil {
						panic(err)
					}
				}
				if mode == modeAsync {
					tok, err := s.EndStepAsync()
					if err != nil {
						panic(err)
					}
					if err := tok.Wait(); err != nil {
						panic(err)
					}
				} else if err := s.EndStep(); err != nil {
					panic(err)
				}
				for ds := range sc.sizes {
					check(ds, ts, outs[ds])
				}
			}
		}
	})
	return te
}

// snapshotFiles reads every simulated file's bytes.
func snapshotFiles(t *testing.T, fs *pfs.System) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, name := range fs.List() {
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

func filesEqual(t *testing.T, label string, a, b map[string][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: file sets differ: %d vs %d files", label, len(a), len(b))
	}
	for name, data := range a {
		other, ok := b[name]
		if !ok {
			t.Fatalf("%s: file %q missing in comparison", label, name)
		}
		if string(data) != string(other) {
			t.Fatalf("%s: file %q bytes differ", label, name)
		}
	}
}

func clocks(te *testEnv, n int) []sim.Time {
	out := make([]sim.Time, n)
	for r := 0; r < n; r++ {
		out[r] = te.world.Comm(r).Now()
	}
	return out
}

// noLaterThan fails unless every rank of got finished no later than the
// same rank of ref.
func noLaterThan(t *testing.T, label string, ref, got []sim.Time) {
	t.Helper()
	for r := range ref {
		if got[r] > ref[r] {
			t.Fatalf("rank %d finishes later: legacy %v, %s %v", r, ref[r], label, got[r])
		}
	}
}

// TestSingleOpEpochsNeverLaterThanLegacy is the acceptance pin: running
// every dataset as its own one-op epoch (PutAt/GetAt) must produce
// bit-identical file bytes, identical file-system stats and database
// query counts, and no later per-rank virtual clocks than the
// pre-redesign paths. Not the same clocks: an epoch records its
// execution-table row while the write is in flight, where the legacy
// path recorded it after the join.
func TestSingleOpEpochsNeverLaterThanLegacy(t *testing.T) {
	for _, sc := range []diffScript{
		{nRanks: 4, level: Level3, sizes: []int64{96, 96, 96, 96, 96}, steps: 2, readBack: true},
		{nRanks: 3, level: Level2, sizes: []int64{64, 64}, steps: 2, readBack: true},
		{nRanks: 2, level: Level1, sizes: []int64{48}, steps: 3, readBack: true},
		{nRanks: 2, level: Level3, sizes: []int64{40, 80}, steps: 2, readBack: true}, // mixed group
	} {
		t.Run(fmt.Sprintf("level%d-ds%d", sc.level, len(sc.sizes)), func(t *testing.T) {
			ref := runScript(t, sc, modeLegacy)
			got := runScript(t, sc, modeOneOp)
			filesEqual(t, "one-op vs legacy", snapshotFiles(t, ref.fs), snapshotFiles(t, got.fs))
			if rs, gs := ref.fs.Stats(), got.fs.Stats(); rs != gs {
				t.Fatalf("pfs stats differ:\nlegacy %+v\none-op %+v", rs, gs)
			}
			noLaterThan(t, "one-op", clocks(ref, sc.nRanks), clocks(got, sc.nRanks))
			if rq, gq := ref.cat.DB().QueryCount(), got.cat.DB().QueryCount(); rq != gq {
				t.Fatalf("db query counts differ: legacy %d, one-op %d", rq, gq)
			}
		})
	}
}

// TestBatchedEpochFewerRequestsLowerTime is the other acceptance pin: a
// 5-dataset Level-3 epoch must produce the same file bytes as 5
// separate writes while issuing fewer PFS requests and finishing in
// less virtual time.
func TestBatchedEpochFewerRequestsLowerTime(t *testing.T) {
	sc := diffScript{nRanks: 4, level: Level3, sizes: []int64{96, 96, 96, 96, 96}, steps: 2, readBack: true}
	ref := runScript(t, sc, modeLegacy)
	bat := runScript(t, sc, modeBatched)
	filesEqual(t, "batched vs legacy", snapshotFiles(t, ref.fs), snapshotFiles(t, bat.fs))
	rs, bs := ref.fs.Stats(), bat.fs.Stats()
	if bs.WriteReqs >= rs.WriteReqs {
		t.Fatalf("batched epoch issued %d write requests, legacy %d; want fewer", bs.WriteReqs, rs.WriteReqs)
	}
	if bs.ReadRequests >= rs.ReadRequests {
		t.Fatalf("batched epoch issued %d read requests, legacy %d; want fewer", bs.ReadRequests, rs.ReadRequests)
	}
	refTime, batTime := ref.world.MaxTime(), bat.world.MaxTime()
	if batTime >= refTime {
		t.Fatalf("batched epoch virtual time %v, legacy %v; want lower", batTime, refTime)
	}
	// The whole epoch's execution-table rows land in one rank-0 batch.
	if rq, bq := ref.cat.DB().QueryCount(), bat.cat.DB().QueryCount(); bq >= rq {
		t.Fatalf("batched epoch issued %d db statements, legacy %d; want fewer", bq, rq)
	}
}

// TestRandomizedDifferential fuzzes group shapes, organizations, rank
// counts and step counts: one-op epochs must match the legacy paths on
// bytes, file-system stats and query counts and finish no later on any
// rank; batched epochs must match on bytes and win or tie on write
// requests.
func TestRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	levels := []FileOrganization{Level1, Level2, Level3}
	for trial := 0; trial < 8; trial++ {
		nDatasets := 1 + rng.Intn(4)
		sizes := make([]int64, nDatasets)
		uniform := rng.Intn(2) == 0
		base := int64(32 + 8*rng.Intn(8))
		for i := range sizes {
			if uniform {
				sizes[i] = base
			} else {
				sizes[i] = int64(24 + 8*rng.Intn(10))
			}
		}
		sc := diffScript{
			nRanks:   1 + rng.Intn(4),
			level:    levels[rng.Intn(len(levels))],
			sizes:    sizes,
			steps:    1 + rng.Intn(3),
			readBack: true,
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			ref := runScript(t, sc, modeLegacy)
			one := runScript(t, sc, modeOneOp)
			bat := runScript(t, sc, modeBatched)
			refFiles := snapshotFiles(t, ref.fs)
			filesEqual(t, "one-op vs legacy", refFiles, snapshotFiles(t, one.fs))
			filesEqual(t, "batched vs legacy", refFiles, snapshotFiles(t, bat.fs))
			if rs, os := ref.fs.Stats(), one.fs.Stats(); rs != os {
				t.Fatalf("one-op pfs stats differ:\nlegacy %+v\none-op %+v", rs, os)
			}
			noLaterThan(t, "one-op", clocks(ref, sc.nRanks), clocks(one, sc.nRanks))
			if rq, oq := ref.cat.DB().QueryCount(), one.cat.DB().QueryCount(); rq != oq {
				t.Fatalf("db query counts differ: legacy %d, one-op %d", rq, oq)
			}
			if bs := bat.fs.Stats(); bs.WriteReqs > ref.fs.Stats().WriteReqs {
				t.Fatalf("batched write requests %d exceed legacy %d", bs.WriteReqs, ref.fs.Stats().WriteReqs)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Epoch edge cases.
// ---------------------------------------------------------------------------

func epochGroup(t *testing.T, te *testEnv, s *SDM, globalN int64) (*Group, *Dataset[float64], []int32) {
	t.Helper()
	attrs := MakeDatalist("p")
	attrs[0].GlobalSize = globalN
	g, err := s.SetAttributes(attrs)
	if err != nil {
		panic(err)
	}
	m := roundRobinMap(s.env.Comm.Rank(), s.env.Comm.Size(), int(globalN))
	if _, err := g.DataView([]string{"p"}, m); err != nil {
		panic(err)
	}
	d, err := DatasetOf[float64](g, "p")
	if err != nil {
		panic(err)
	}
	return g, d, m
}

func TestEpochEdgeCases(t *testing.T) {
	te := newTestEnv(2)
	te.run(t, Options{Organization: Level3}, func(s *SDM) {
		_, d, m := epochGroup(t, te, s, 32)
		vals := make([]float64, len(m))

		// Empty epoch: no collectives, no error, nothing recorded.
		if err := s.BeginStep(0); err != nil {
			panic(err)
		}
		if err := s.EndStep(); err != nil {
			t.Errorf("empty epoch: %v", err)
		}

		// Double BeginStep.
		if err := s.BeginStep(1); err != nil {
			panic(err)
		}
		if err := s.BeginStep(2); err == nil {
			t.Error("double BeginStep accepted")
		}
		if !s.step.open {
			t.Error("epoch closed by failed BeginStep")
		}
		if err := d.Put(vals); err != nil {
			panic(err)
		}
		if err := s.EndStep(); err != nil {
			panic(err)
		}

		// Put/Get after EndStep (no open epoch).
		if err := d.Put(vals); err == nil {
			t.Error("Put after EndStep accepted")
		}
		if err := d.Get(vals); err == nil {
			t.Error("Get after EndStep accepted")
		}
		// EndStep without BeginStep.
		if err := s.EndStep(); err == nil {
			t.Error("EndStep without BeginStep accepted")
		}

		// Wrong element count.
		if err := s.BeginStep(3); err != nil {
			panic(err)
		}
		if err := d.Put(make([]float64, len(m)+1)); err == nil {
			t.Error("wrong-length Put accepted")
		}
		// The epoch survives a rejected Put; a correct one still lands.
		if err := d.Put(vals); err != nil {
			panic(err)
		}
		if err := s.EndStep(); err != nil {
			panic(err)
		}

		// Reading a timestep written earlier in the session works from
		// the rank-local cache.
		got := make([]float64, len(m))
		if err := d.GetAt(1, got); err != nil {
			panic(err)
		}
	})
	if n := len(te.fs.List()); n != 1 {
		t.Fatalf("level3 single group wrote %d files, want 1", n)
	}
	recs, err := te.cat.WritesForRun(nil, 1)
	if err != nil || len(recs) != 2 {
		t.Fatalf("execution table has %d records (%v), want 2", len(recs), err)
	}
}

// TestViewSwapBeforeEndStep: a Put or Get flushes through the view
// installed when it was queued, whatever DataView installs before
// EndStep — another permutation of the same elements, or a view of
// another size.
func TestViewSwapBeforeEndStep(t *testing.T) {
	const n = 32
	for _, tc := range []struct {
		name  string
		other func(rank int, m []int32) []int32
	}{
		{"permuted", func(_ int, m []int32) []int32 {
			r := slices.Clone(m)
			slices.Reverse(r)
			return r
		}},
		{"resized", func(rank int, _ []int32) []int32 { // 24 elements on rank 0, 8 on rank 1
			lo, hi := 0, 24
			if rank == 1 {
				lo, hi = 24, n
			}
			var out []int32
			for gi := lo; gi < hi; gi++ {
				out = append(out, int32(gi))
			}
			return out
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			te := newTestEnv(2)
			te.run(t, Options{Organization: Level3}, func(s *SDM) {
				g, d, m := epochGroup(t, te, s, n)
				other := tc.other(s.env.Comm.Rank(), m)
				swap := func(m []int32) {
					if _, err := g.DataView([]string{"p"}, m); err != nil {
						panic(err)
					}
				}
				vals := make([]float64, len(m))
				for i, gi := range m {
					vals[i] = float64(gi) + 0.5
				}
				if err := s.BeginStep(0); err != nil {
					panic(err)
				}
				if err := d.Put(vals); err != nil {
					panic(err)
				}
				swap(other)
				if err := s.EndStep(); err != nil {
					panic(err)
				}
				swap(m)
				got := make([]float64, len(m))
				if err := s.BeginStep(0); err != nil {
					panic(err)
				}
				if err := d.Get(got); err != nil {
					panic(err)
				}
				swap(other)
				if err := s.EndStep(); err != nil {
					panic(err)
				}
				for i := range got {
					if got[i] != vals[i] {
						t.Errorf("rank %d: element %d read back %g, want %g", s.env.Comm.Rank(), m[i], got[i], vals[i])
						break
					}
				}
			})
			raw, err := te.fs.ReadFile("testapp_r1_g0.dat")
			if err != nil {
				t.Fatal(err)
			}
			for gi, v := range bytesToFloat64s(raw) {
				if want := float64(gi) + 0.5; v != want {
					t.Fatalf("file element %d = %g, want %g", gi, v, want)
				}
			}
		})
	}
}

// TestEpochMixedPutsAndGets writes two datasets and reads one of them
// back in the same epoch: puts flush before gets, so a step can read
// what it just wrote.
func TestEpochMixedPutsAndGets(t *testing.T) {
	te := newTestEnv(3)
	te.run(t, Options{Organization: Level3}, func(s *SDM) {
		attrs := MakeDatalist("a", "b")
		for i := range attrs {
			attrs[i].GlobalSize = 60
		}
		g, err := s.SetAttributes(attrs)
		if err != nil {
			panic(err)
		}
		m := roundRobinMap(s.env.Comm.Rank(), s.env.Comm.Size(), 60)
		if _, err := g.DataView([]string{"a", "b"}, m); err != nil {
			panic(err)
		}
		da, _ := DatasetOf[float64](g, "a")
		db, _ := DatasetOf[float64](g, "b")
		wa := make([]float64, len(m))
		wb := make([]float64, len(m))
		for i, gi := range m {
			wa[i], wb[i] = float64(gi)+0.5, -float64(gi)
		}
		got := make([]float64, len(m))
		if err := s.BeginStep(7); err != nil {
			panic(err)
		}
		if err := da.Put(wa); err != nil {
			panic(err)
		}
		if err := db.Put(wb); err != nil {
			panic(err)
		}
		if err := da.Get(got); err != nil {
			panic(err)
		}
		if err := s.EndStep(); err != nil {
			panic(err)
		}
		for i := range got {
			if got[i] != wa[i] {
				t.Errorf("rank %d: same-epoch read elem %d = %g, want %g",
					s.env.Comm.Rank(), i, got[i], wa[i])
				break
			}
		}
	})
}

// TestEpochTypedHandles round-trips int32 and int64 datasets through
// typed handles and rejects element-type mismatches.
func TestEpochTypedHandles(t *testing.T) {
	te := newTestEnv(2)
	te.run(t, Options{Organization: Level3}, func(s *SDM) {
		attrs := []Attr{
			{Name: "idx", Type: Integer, GlobalSize: 40},
			{Name: "cnt", Type: Long, GlobalSize: 40},
		}
		g, err := s.SetAttributes(attrs)
		if err != nil {
			panic(err)
		}
		m := roundRobinMap(s.env.Comm.Rank(), s.env.Comm.Size(), 40)
		if _, err := g.DataView([]string{"idx"}, m); err != nil {
			panic(err)
		}
		if _, err := g.DataView([]string{"cnt"}, m); err != nil {
			panic(err)
		}
		if _, err := DatasetOf[float64](g, "idx"); err == nil {
			t.Error("float64 handle on INTEGER dataset accepted")
		}
		if _, err := DatasetOf[int32](g, "cnt"); err == nil {
			t.Error("int32 handle on LONG dataset accepted")
		}
		di, err := DatasetOf[int32](g, "idx")
		if err != nil {
			panic(err)
		}
		dc, err := DatasetOf[int64](g, "cnt")
		if err != nil {
			panic(err)
		}
		wi := make([]int32, len(m))
		wc := make([]int64, len(m))
		for i, gi := range m {
			wi[i], wc[i] = gi*3, int64(gi)*1_000_000_007
		}
		if err := s.BeginStep(0); err != nil {
			panic(err)
		}
		if err := di.Put(wi); err != nil {
			panic(err)
		}
		if err := dc.Put(wc); err != nil {
			panic(err)
		}
		if err := s.EndStep(); err != nil {
			panic(err)
		}
		gi32 := make([]int32, len(m))
		gi64 := make([]int64, len(m))
		if err := di.GetAt(0, gi32); err != nil {
			panic(err)
		}
		if err := dc.GetAt(0, gi64); err != nil {
			panic(err)
		}
		for i := range m {
			if gi32[i] != wi[i] || gi64[i] != wc[i] {
				t.Errorf("typed round trip elem %d: (%d,%d) want (%d,%d)",
					i, gi32[i], gi64[i], wi[i], wc[i])
				break
			}
		}
	})
}

// TestEpochMixedOrganizationGroups drives batched epochs through a
// non-uniform (mixed-size, byte-append) group and through Level1 and
// Level2 organizations, where datasets scatter across files and the
// engine must issue one merged collective per file.
func TestEpochMixedOrganizationGroups(t *testing.T) {
	for _, level := range []FileOrganization{Level1, Level2, Level3} {
		t.Run(level.String(), func(t *testing.T) {
			te := newTestEnv(2)
			te.run(t, Options{Organization: level}, func(s *SDM) {
				attrs := []Attr{
					{Name: "small", Type: Double, GlobalSize: 24},
					{Name: "large", Type: Double, GlobalSize: 72},
				}
				g, err := s.SetAttributes(attrs) // mixed sizes: non-uniform group
				if err != nil {
					panic(err)
				}
				rank, size := s.env.Comm.Rank(), s.env.Comm.Size()
				ms := roundRobinMap(rank, size, 24)
				ml := roundRobinMap(rank, size, 72)
				if _, err := g.DataView([]string{"small"}, ms); err != nil {
					panic(err)
				}
				if _, err := g.DataView([]string{"large"}, ml); err != nil {
					panic(err)
				}
				dsSmall, _ := DatasetOf[float64](g, "small")
				dsLarge, _ := DatasetOf[float64](g, "large")
				mk := func(m []int32, ts int) []float64 {
					out := make([]float64, len(m))
					for i, gi := range m {
						out[i] = float64(ts*1000) + float64(gi)
					}
					return out
				}
				for ts := 0; ts < 2; ts++ {
					if err := s.BeginStep(int64(ts)); err != nil {
						panic(err)
					}
					if err := dsSmall.Put(mk(ms, ts)); err != nil {
						panic(err)
					}
					if err := dsLarge.Put(mk(ml, ts)); err != nil {
						panic(err)
					}
					if err := s.EndStep(); err != nil {
						panic(err)
					}
				}
				for ts := 0; ts < 2; ts++ {
					gs := make([]float64, len(ms))
					gl := make([]float64, len(ml))
					if err := s.BeginStep(int64(ts)); err != nil {
						panic(err)
					}
					if err := dsSmall.Get(gs); err != nil {
						panic(err)
					}
					if err := dsLarge.Get(gl); err != nil {
						panic(err)
					}
					if err := s.EndStep(); err != nil {
						panic(err)
					}
					ws, wl := mk(ms, ts), mk(ml, ts)
					for i := range gs {
						if gs[i] != ws[i] {
							t.Errorf("small ts %d elem %d = %g want %g", ts, i, gs[i], ws[i])
							break
						}
					}
					for i := range gl {
						if gl[i] != wl[i] {
							t.Errorf("large ts %d elem %d = %g want %g", ts, i, gl[i], wl[i])
							break
						}
					}
				}
			})
			wantFiles := map[FileOrganization]int{Level1: 4, Level2: 2, Level3: 1}[level]
			if n := len(te.fs.List()); n != wantFiles {
				t.Fatalf("%v wrote %d files, want %d", level, n, wantFiles)
			}
		})
	}
}

// TestLegacyWriteInsideEpochRejected pins the interaction rule: the
// one-op convenience wrappers cannot nest inside an open epoch.
func TestLegacyWriteInsideEpochRejected(t *testing.T) {
	te := newTestEnv(1)
	te.run(t, Options{}, func(s *SDM) {
		g, d, m := epochGroup(t, te, s, 16)
		vals := make([]float64, len(m))
		if err := s.BeginStep(0); err != nil {
			panic(err)
		}
		if err := putAt(g, "p", 0, vals); err == nil {
			t.Error("PutAt inside an open epoch accepted")
		}
		if err := d.PutAt(0, vals); err == nil {
			t.Error("PutAt inside an open epoch accepted")
		}
		if !s.step.open {
			t.Error("open epoch destroyed by rejected nested write")
		}
		if err := d.Put(vals); err != nil {
			panic(err)
		}
		if err := s.EndStep(); err != nil {
			panic(err)
		}
	})
}
