package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sdm/internal/mesh"
	"sdm/internal/mpiio"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// ---------------------------------------------------------------------------
// Legacy reference implementation.
//
// legacyImportContiguous/legacyImportView are verbatim copies of the
// pre-epoch import paths (one blocking collective per array). They are
// kept here, in the test file only, as the differential baseline a
// one-array import epoch must match bit-for-bit.
// ---------------------------------------------------------------------------

func legacyImportContiguous(imp *Importer, name string) (buf []byte, start, count int64, err error) {
	sp, err := imp.Spec(name)
	if err != nil {
		return nil, 0, 0, err
	}
	c := imp.s.env.Comm
	start, count = blockRange(sp.Length, c.Size(), c.Rank())
	es := sp.Type.Size()
	imp.file.SetView(sp.FileOffset, nil)
	buf = make([]byte, count*es)
	if err := imp.file.ReadAtAllOps([]mpiio.BatchOp{{Disp: sp.FileOffset, Off: start * es, Data: buf}}); err != nil {
		return nil, 0, 0, err
	}
	return buf, start, count, nil
}

func legacyImportView(imp *Importer, name string, v *View) ([]byte, error) {
	sp, err := imp.Spec(name)
	if err != nil {
		return nil, err
	}
	imp.file.SetView(sp.FileOffset, v.dtype)
	fileOrder := make([]byte, int64(v.LocalSize())*v.elemSize)
	if err := imp.file.ReadAtAllOps([]mpiio.BatchOp{{Disp: sp.FileOffset, Type: v.dtype, Data: fileOrder}}); err != nil {
		return nil, err
	}
	out := make([]byte, len(fileOrder))
	es := v.elemSize
	for i, p := range v.perm {
		copy(out[int64(p)*es:(int64(p)+1)*es], fileOrder[int64(i)*es:(int64(i)+1)*es])
	}
	imp.s.env.Comm.ComputeItems(int64(len(out)), memCopyRate)
	return out, nil
}

// importFixture is a costed machine holding a staged mesh with two
// per-edge and two per-node data arrays — six importable arrays.
type importFixture struct {
	te     *testEnv
	layout mesh.MshLayout
	specs  []ImportSpec
}

const importRanks = 4

func newImportFixture(t *testing.T) *importFixture {
	t.Helper()
	te := newCostedEnv(importRanks)
	m, err := mesh.GenerateTet(5, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	buf, layout, err := mesh.EncodeMsh(m,
		[][]float64{m.EdgeData(0), m.EdgeData(1)},
		[][]float64{m.NodeData(0), m.NodeData(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := te.fs.WriteFile("uns3d.msh", bytes.NewReader(buf)); err != nil {
		t.Fatal(err)
	}
	specs := []ImportSpec{
		{Name: "edge1", Type: Integer, FileOffset: layout.Edge1Offset(), Length: layout.NumEdges, Content: "INDEX"},
		{Name: "edge2", Type: Integer, FileOffset: layout.Edge2Offset(), Length: layout.NumEdges, Content: "INDEX"},
	}
	for k := 0; k < 2; k++ {
		specs = append(specs,
			ImportSpec{Name: fmt.Sprintf("e%d", k), Type: Double, FileOffset: layout.EdgeDataOffset(k), Length: layout.NumEdges},
			ImportSpec{Name: fmt.Sprintf("n%d", k), Type: Double, FileOffset: layout.NodeDataOffset(k), Length: layout.NumNodes})
	}
	return &importFixture{te: te, layout: layout, specs: specs}
}

// views builds this rank's irregular edge and node views: a strided,
// deliberately unsorted selection so the permutation is exercised.
func (fx *importFixture) views(rank int) (edge, node *View) {
	pick := func(n int64) []int32 {
		var m []int32
		for g := int64(rank); g < n; g += importRanks + 1 {
			m = append(m, int32(g))
		}
		for i, j := 0, len(m)-1; i < j; i, j = i+1, j-1 {
			m[i], m[j] = m[j], m[i]
		}
		return m
	}
	edge, err := NewView(pick(fx.layout.NumEdges), Double, fx.layout.NumEdges)
	if err != nil {
		panic(err)
	}
	node, err = NewView(pick(fx.layout.NumNodes), Double, fx.layout.NumNodes)
	if err != nil {
		panic(err)
	}
	return edge, node
}

// importMode selects how a fixture run imports the six arrays.
type importMode int

const (
	importLegacy importMode = iota // pre-epoch reference paths
	importOneOp                    // one array per epoch: Queue then Flush
	importEpoch                    // everything queued, one Flush
)

// run imports all six arrays under the given mode, optionally traced,
// and returns each rank's results in spec order.
func (fx *importFixture) run(t *testing.T, mode importMode, tr *obs.Tracer) [importRanks][][]byte {
	t.Helper()
	var out [importRanks][][]byte
	fx.te.trace = tr
	fx.te.run(t, Options{}, func(s *SDM) {
		imp, err := s.MakeImportlist("uns3d.msh", fx.specs)
		if err != nil {
			panic(err)
		}
		ev, nv := fx.views(s.Comm().Rank())
		viewOf := func(sp ImportSpec) *View {
			switch {
			case sp.Content == "INDEX":
				return nil // equal-division contiguous block
			case sp.Length == fx.layout.NumEdges:
				return ev
			default:
				return nv
			}
		}
		var res [][]byte
		var handles []*ImportHandle
		for _, sp := range fx.specs {
			v := viewOf(sp)
			var buf []byte
			var h *ImportHandle
			switch {
			case mode == importLegacy && v == nil:
				buf, _, _, err = legacyImportContiguous(imp, sp.Name)
			case mode == importLegacy:
				buf, err = legacyImportView(imp, sp.Name, v)
			case v == nil:
				h, err = imp.QueueContiguous(sp.Name)
			default:
				h, err = imp.QueueView(sp.Name, v)
			}
			if err == nil && mode == importOneOp {
				err = imp.Flush()
				buf = h.Bytes()
			}
			if err != nil {
				panic(err)
			}
			res = append(res, buf)
			handles = append(handles, h)
		}
		if mode == importEpoch {
			if err := imp.Flush(); err != nil {
				panic(err)
			}
			for i, h := range handles {
				res[i] = h.Bytes()
			}
		}
		out[s.Comm().Rank()] = res
	})
	return out
}

func sameImports(t *testing.T, label string, a, b [importRanks][][]byte) {
	t.Helper()
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("%s: rank %d imported %d vs %d arrays", label, r, len(a[r]), len(b[r]))
		}
		for i := range a[r] {
			if len(a[r][i]) == 0 {
				t.Fatalf("%s: rank %d array %d is empty", label, r, i)
			}
			if !bytes.Equal(a[r][i], b[r][i]) {
				t.Fatalf("%s: rank %d array %d bytes differ", label, r, i)
			}
		}
	}
}

// One-array epochs (one Queue, one Flush) must match the pre-epoch paths bit for bit: imported bytes, per-rank
// virtual clocks, and file-system stats.
func TestOneArrayImportEpochBitIdenticalToLegacy(t *testing.T) {
	ref, got := newImportFixture(t), newImportFixture(t)
	refBytes := ref.run(t, importLegacy, nil)
	gotBytes := got.run(t, importOneOp, nil)
	sameImports(t, "one-array epoch vs legacy", refBytes, gotBytes)
	if rs, gs := ref.te.fs.Stats(), got.te.fs.Stats(); rs != gs {
		t.Fatalf("pfs stats differ:\nlegacy    %+v\none-array %+v", rs, gs)
	}
	rc, gc := clocks(ref.te, importRanks), clocks(got.te, importRanks)
	for r := range rc {
		if rc[r] != gc[r] {
			t.Fatalf("rank %d virtual clock differs: legacy %v, one-array epoch %v", r, rc[r], gc[r])
		}
	}
}

// An N-array epoch issues the same requests as N sequential imports —
// same bytes back, same file-system byte and request counts — only
// overlapped, so it joins strictly earlier.
func TestImportEpochOverlapsSequentialImports(t *testing.T) {
	seq, ep := newImportFixture(t), newImportFixture(t)
	seqBytes := seq.run(t, importOneOp, nil)
	epBytes := ep.run(t, importEpoch, nil)
	sameImports(t, "epoch vs sequential", seqBytes, epBytes)
	if ss, es := seq.te.fs.Stats(), ep.te.fs.Stats(); ss != es {
		t.Fatalf("pfs stats differ:\nsequential %+v\nepoch      %+v", ss, es)
	}
	if st, et := seq.te.world.MaxTime(), ep.te.world.MaxTime(); et >= st {
		t.Fatalf("epoch joined at %v, sequential imports at %v; want strictly earlier", et, st)
	}
}

// Tracing an import epoch: one import:read span per array, inside the
// rank's import:epoch span, overlapping each other (so the export lays
// them out on forked lanes) — and the tracer perturbs no clock.
func TestImportEpochSpans(t *testing.T) {
	off, on := newImportFixture(t), newImportFixture(t)
	off.run(t, importEpoch, nil)
	tr := obs.NewTracer()
	on.run(t, importEpoch, tr)
	oc, nc := clocks(off.te, importRanks), clocks(on.te, importRanks)
	for r := range oc {
		if oc[r] != nc[r] {
			t.Fatalf("rank %d: tracing moved the clock: off %v, on %v", r, oc[r], nc[r])
		}
	}
	for r := 0; r < importRanks; r++ {
		var epoch *obs.Span
		var reads []obs.Span
		spans := tr.Spans()
		for i := range spans {
			s := &spans[i]
			if s.Pid != obs.PidRank(r) || s.Cat != "core" {
				continue
			}
			switch s.Name {
			case "import:epoch":
				if epoch != nil {
					t.Fatalf("rank %d: more than one import:epoch span", r)
				}
				epoch = s
			case "import:read":
				reads = append(reads, *s)
			}
		}
		if epoch == nil {
			t.Fatalf("rank %d: no import:epoch span", r)
		}
		if len(reads) != len(on.specs) {
			t.Fatalf("rank %d: %d import:read spans, want one per array (%d)", r, len(reads), len(on.specs))
		}
		var prevEnd sim.Time
		for i, s := range reads {
			if s.Start < epoch.Start || s.End > epoch.End {
				t.Fatalf("rank %d: import:read [%d,%d] escapes import:epoch [%d,%d]",
					r, s.Start, s.End, epoch.Start, epoch.End)
			}
			if len(s.Args) != 1 || s.Args[0].Key != "array" || s.Args[0].Val != on.specs[i].Name {
				t.Fatalf("rank %d: import:read %d annotated %+v, want array=%s", r, i, s.Args, on.specs[i].Name)
			}
			if i > 0 && s.Start >= prevEnd {
				t.Fatalf("rank %d: import:read %d starts at %d, after the previous one ended (%d): not overlapped",
					r, i, s.Start, prevEnd)
			}
			prevEnd = s.End
		}
	}
	// The Chrome export puts the overlapping reads on extra fork lanes.
	lanes := map[int]bool{}
	for _, ev := range tr.ChromeTrace().TraceEvents {
		if ev.Ph == "X" && ev.Name == "import:read" && ev.Pid == obs.PidRank(0) {
			lanes[ev.Tid] = true
		}
	}
	if len(lanes) < 2 {
		t.Fatalf("rank 0 import:read spans share %d lane(s); want forked lanes", len(lanes))
	}
}

// Misuse of the import epoch returns errors, never panics, and leaves
// the importer usable.
func TestImportEpochMisuse(t *testing.T) {
	fx := newImportFixture(t)
	fx.te.run(t, Options{}, func(s *SDM) {
		imp, err := s.MakeImportlist("uns3d.msh", fx.specs)
		if err != nil {
			panic(err)
		}
		ev, nv := fx.views(s.Comm().Rank())
		if err := imp.Flush(); err == nil {
			t.Error("Flush of an empty queue accepted")
		}
		if _, err := imp.QueueView("nope", ev); err == nil {
			t.Error("QueueView of an unknown name accepted")
		}
		if _, err := imp.QueueContiguous("nope"); err == nil {
			t.Error("QueueContiguous of an unknown name accepted")
		}
		if _, err := imp.QueueView("e0", nv); err == nil {
			t.Error("node-sized view accepted for an edge array")
		}
		intView, err := NewView([]int32{0}, Integer, fx.layout.NumEdges)
		if err != nil {
			panic(err)
		}
		if _, err := imp.QueueView("e0", intView); err == nil {
			t.Error("INTEGER view accepted for a DOUBLE array")
		}
		// None of the rejected requests was queued.
		if err := imp.Flush(); err == nil {
			t.Error("rejected requests left something queued")
		}
		h, err := imp.QueueView("e0", ev)
		if err != nil {
			panic(err)
		}
		if h.Bytes() != nil {
			t.Error("handle holds bytes before Flush")
		}
		if err := imp.Flush(); err != nil {
			panic(err)
		}
		if len(h.Float64s()) != ev.LocalSize() {
			t.Errorf("flushed handle holds %d elements, view maps %d", len(h.Float64s()), ev.LocalSize())
		}
		if err := imp.Flush(); err == nil {
			t.Error("double Flush accepted")
		}
		if err := imp.Release(); err != nil {
			panic(err)
		}
		if _, err := imp.QueueView("e0", ev); err == nil {
			t.Error("QueueView after Release accepted")
		}
		if _, err := imp.QueueContiguous("edge1"); err == nil {
			t.Error("QueueContiguous after Release accepted")
		}
		if err := imp.Flush(); err == nil {
			t.Error("Flush after Release accepted")
		}
	})
}

// A truncated, extended, damaged or missing history file must not load
// as a partition of zero-filled or stray edges: PartitionIndex falls back to
// the ring distribution, counts the fallback and invalidates the stale
// registration and file, so the application's usual
// `if !ip.FromHistory { IndexRegistry }` creates the history afresh —
// at its own length, laid out by the rule — and the run after that
// replays it.
func TestDamagedHistoryFallsBackToRing(t *testing.T) {
	damage := map[string]func(t *testing.T, fs *pfs.System, name string){
		"truncated": func(t *testing.T, fs *pfs.System, name string) {
			data, err := fs.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove(name); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(name, bytes.NewReader(data[:len(data)/2])); err != nil {
				t.Fatal(err)
			}
		},
		"extended": func(t *testing.T, fs *pfs.System, name string) {
			data, err := fs.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(name, bytes.NewReader(append(data, make([]byte, 24)...))); err != nil {
				t.Fatal(err)
			}
		},
		"same size, one byte flipped": func(t *testing.T, fs *pfs.System, name string) {
			data, err := fs.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x10
			if err := fs.WriteFile(name, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		},
		"missing": func(t *testing.T, fs *pfs.System, name string) {
			if err := fs.Remove(name); err != nil {
				t.Fatal(err)
			}
		},
	}
	for label, breakIt := range damage {
		t.Run(label, func(t *testing.T) {
			const nRanks = 3
			te := newTestEnv(nRanks)
			// The default 512 KiB unit, so that the rule's unit for a
			// history of a few KB, one 64 KiB granule, is not it.
			te.fs = pfs.NewSystem(pfs.DefaultConfig())
			m, layout := stageMesh(t, te.fs, 2, 3, 2)
			partVec := make([]int32, m.NumNodes())
			for i := range partVec {
				partVec[i] = int32((i * 7) % nRanks)
			}
			reg := obs.NewRegistry()
			te.metrics = reg
			var parts [4][nRanks]*IndexPartition
			session := func(n int, register bool) {
				te.run(t, Options{}, func(s *SDM) {
					imp, err := s.MakeImportlist("uns3d.msh", edgeSpecs(layout))
					if err != nil {
						panic(err)
					}
					ip, err := s.PartitionIndex(imp, "edge1", "edge2", partVec)
					if err != nil {
						panic(err)
					}
					parts[n][s.Comm().Rank()] = ip
					if register && !ip.FromHistory {
						if err := s.IndexRegistry(ip, layout.NumEdges, partVec); err != nil {
							panic(err)
						}
					}
				})
			}
			session(0, true)
			session(1, true) // intact history: replayed
			var hist string
			for _, name := range te.fs.List() {
				if isHistFile(name) {
					hist = name
				}
			}
			if hist == "" {
				t.Fatal("no history file registered")
			}
			if got := reg.Snapshot()["core.history-fallbacks"]; got != 0 {
				t.Fatalf("fallbacks = %d with an intact history", got)
			}
			breakIt(t, te.fs, hist)
			session(2, true) // damaged: ring, registers again
			session(3, true) // repaired history: replayed
			if got := reg.Snapshot()["core.history-fallbacks"]; got != 1 {
				t.Fatalf("fallbacks = %d after one damaged-history run, want 1", got)
			}
			if unit, _ := te.fs.StripeUnit(hist); unit != minStripeUnit {
				t.Fatalf("repaired history is striped by %d, want the rule's %d", unit, minStripeUnit)
			}
			for r := 0; r < nRanks; r++ {
				if !parts[1][r].FromHistory {
					t.Fatalf("rank %d: intact history not replayed", r)
				}
				if !parts[3][r].FromHistory {
					t.Fatalf("rank %d: history re-registered after the fallback not replayed", r)
				}
				if !reflect.DeepEqual(parts[3][r].EdgeGlobal, parts[0][r].EdgeGlobal) {
					t.Fatalf("rank %d: repaired history replays different edges", r)
				}
				ring, got := parts[0][r], parts[2][r]
				if got.FromHistory {
					t.Fatalf("rank %d: damaged history replayed", r)
				}
				if got.NumEdges() != ring.NumEdges() || got.NumNodes() != ring.NumNodes() {
					t.Fatalf("rank %d: fallback gave %d edges/%d nodes, ring gave %d/%d",
						r, got.NumEdges(), got.NumNodes(), ring.NumEdges(), ring.NumNodes())
				}
				for i := range ring.EdgeGlobal {
					if got.EdgeGlobal[i] != ring.EdgeGlobal[i] || got.Edge1G[i] != ring.Edge1G[i] || got.Edge2G[i] != ring.Edge2G[i] {
						t.Fatalf("rank %d: fallback partition differs at edge %d", r, i)
					}
				}
			}
		})
	}
}
