package sdm

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sdm/internal/store/objstore"
)

// writeDemoRun drives a small two-dataset, multi-timestep run and
// returns the map array each rank used (they are deterministic in the
// rank) plus the expected values per (dataset, timestep, rank).
func demoMap(rank, size, globalN int) []int32 {
	var mapArr []int32
	for g := rank; g < globalN; g += size {
		mapArr = append(mapArr, int32(g))
	}
	return mapArr
}

// putAt and getAt write and read one timestep of a float64 dataset
// through a typed handle: SDM_write / SDM_read in one call.
func putAt(g *Group, name string, ts int64, vals []float64) error {
	d, err := DatasetOf[float64](g, name)
	if err != nil {
		return err
	}
	return d.PutAt(ts, vals)
}

func getAt(g *Group, name string, ts int64, n int) ([]float64, error) {
	d, err := DatasetOf[float64](g, name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	return out, d.GetAt(ts, out)
}

func demoValue(dataset string, timestep int64, g int32) float64 {
	if dataset == "velocity" {
		return -float64(g) - float64(timestep)
	}
	return float64(g) + float64(timestep)*0.001
}

func writeDemoRun(t *testing.T, cl *Cluster, globalN, steps int) {
	t.Helper()
	writeDemoRunOpts(t, cl, globalN, steps, Options{Organization: Level3})
}

func writeDemoRunOpts(t *testing.T, cl *Cluster, globalN, steps int, opts Options) {
	t.Helper()
	err := cl.Run(func(p *Proc) {
		s, err := p.Initialize("bundledemo", opts)
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		attrs := MakeDatalist("pressure", "velocity")
		for i := range attrs {
			attrs[i].GlobalSize = int64(globalN)
		}
		g, err := s.SetAttributes(attrs)
		if err != nil {
			t.Error(err)
			return
		}
		mapArr := demoMap(p.Rank(), p.Size(), globalN)
		if _, err := g.DataView([]string{"pressure", "velocity"}, mapArr); err != nil {
			t.Error(err)
			return
		}
		for ts := 0; ts < steps; ts++ {
			for _, ds := range []string{"pressure", "velocity"} {
				vals := make([]float64, len(mapArr))
				for i, gi := range mapArr {
					vals[i] = demoValue(ds, int64(ts), gi)
				}
				if err := putAt(g, ds, int64(ts), vals); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBundleRoundTrip is the restart scenario: one cluster writes a
// run and saves a bundle; a *fresh* cluster opens the bundle, attaches
// to the run, and reads every dataset back byte-identically through
// the execution table. Exercised for both bundle backends.
func TestBundleRoundTrip(t *testing.T) {
	const (
		procs   = 4
		globalN = 1 << 12
		steps   = 3
	)
	for _, opts := range []BundleOptions{
		{Backend: "dir"},
		{Backend: "cas", Compress: true},
		{Backend: "obj", PartSize: 16 << 10},
	} {
		t.Run(opts.Backend, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "bundle")
			writer := NewCluster(ClusterConfig{Procs: procs})
			writeDemoRun(t, writer, globalN, steps)
			if err := writer.SaveBundleOpts(dir, opts); err != nil {
				t.Fatal(err)
			}

			// The reader shares nothing with the writer but the
			// directory on disk.
			reader, err := OpenBundle(dir, ClusterConfig{Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := reader.ListFiles(), writer.ListFiles(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("bundle file list = %v, want %v", got, want)
			}
			runs, err := reader.Catalog.Runs(nil)
			if err != nil || len(runs) != 1 {
				t.Fatalf("bundle catalog has %d runs (err %v), want 1", len(runs), err)
			}
			err = reader.Run(func(p *Proc) {
				s, err := p.Initialize("bundledemo", Options{
					Organization: Level3,
					AttachRun:    runs[0].RunID,
				})
				if err != nil {
					t.Error(err)
					return
				}
				defer s.Finalize()
				g, err := s.OpenGroup([]string{"pressure", "velocity"})
				if err != nil {
					t.Error(err)
					return
				}
				mapArr := demoMap(p.Rank(), p.Size(), globalN)
				if _, err := g.DataView([]string{"pressure", "velocity"}, mapArr); err != nil {
					t.Error(err)
					return
				}
				for ts := 0; ts < steps; ts++ {
					for _, ds := range []string{"pressure", "velocity"} {
						got, err := getAt(g, ds, int64(ts), len(mapArr))
						if err != nil {
							t.Errorf("read %s@%d: %v", ds, ts, err)
							return
						}
						for i, gi := range mapArr {
							if want := demoValue(ds, int64(ts), gi); got[i] != want {
								t.Errorf("rank %d %s@%d elem %d = %g, want %g",
									p.Rank(), ds, ts, gi, got[i], want)
								return
							}
						}
					}
				}
				// Appends land after the old run's data, not over it.
				extra := make([]float64, len(mapArr))
				for i, gi := range mapArr {
					extra[i] = demoValue("pressure", steps, gi)
				}
				if err := putAt(g, "pressure", int64(steps), extra); err != nil {
					t.Error(err)
					return
				}
				got, err := getAt(g, "pressure", 0, len(mapArr))
				if err != nil {
					t.Error(err)
					return
				}
				for i, gi := range mapArr {
					if want := demoValue("pressure", 0, gi); got[i] != want {
						t.Errorf("timestep 0 clobbered by append: elem %d = %g, want %g", gi, got[i], want)
						return
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBundleSubsetReopenNoClobber reopens only ONE dataset of a
// level-3 group whose file is shared with a sibling, appends to it,
// and verifies the sibling's data survives: the append cursor must be
// primed past the whole file, not just past the reopened dataset's
// own records.
func TestBundleSubsetReopenNoClobber(t *testing.T) {
	const (
		procs   = 4
		globalN = 1 << 12
		steps   = 2
	)
	dir := filepath.Join(t.TempDir(), "bundle")
	writer := NewCluster(ClusterConfig{Procs: procs})
	writeDemoRun(t, writer, globalN, steps)
	if err := writer.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}

	appender, err := OpenBundle(dir, ClusterConfig{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	err = appender.Run(func(p *Proc) {
		s, err := p.Initialize("bundledemo", Options{Organization: Level3, AttachRun: 1})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		g, err := s.OpenGroup([]string{"pressure"}) // subset: velocity shares the file
		if err != nil {
			t.Error(err)
			return
		}
		mapArr := demoMap(p.Rank(), p.Size(), globalN)
		if _, err := g.DataView([]string{"pressure"}, mapArr); err != nil {
			t.Error(err)
			return
		}
		vals := make([]float64, len(mapArr))
		for i, gi := range mapArr {
			vals[i] = demoValue("pressure", steps, gi)
		}
		if err := putAt(g, "pressure", steps, vals); err != nil {
			t.Error(err)
			return
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// A full reopen must still see every original checkpoint of BOTH
	// datasets, plus the appended one (shares the appender's live
	// storage and catalog, like a follow-on job on the same machine).
	verifier := NewCluster(ClusterConfig{Procs: procs})
	verifier.AttachStorage(appender)
	err = verifier.Run(func(p *Proc) {
		s, err := p.Initialize("bundledemo", Options{Organization: Level3, AttachRun: 1})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		g, err := s.OpenGroup([]string{"pressure", "velocity"})
		if err != nil {
			t.Error(err)
			return
		}
		mapArr := demoMap(p.Rank(), p.Size(), globalN)
		if _, err := g.DataView([]string{"pressure", "velocity"}, mapArr); err != nil {
			t.Error(err)
			return
		}
		check := func(ds string, ts int64) {
			got, err := getAt(g, ds, ts, len(mapArr))
			if err != nil {
				t.Errorf("read %s@%d: %v", ds, ts, err)
				return
			}
			for i, gi := range mapArr {
				if want := demoValue(ds, ts, gi); got[i] != want {
					t.Errorf("%s@%d elem %d = %g, want %g (sibling clobbered?)", ds, ts, gi, got[i], want)
					return
				}
			}
		}
		for ts := int64(0); ts < steps; ts++ {
			check("pressure", ts)
			check("velocity", ts)
		}
		check("pressure", steps) // the subset append itself
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBundleMixedGroupSubsetRead writes a group of two dataset sizes and
// reopens a single dataset, whose recorded offsets are no multiple of
// its own slab size: every slab reads back from its execution-table
// offset. An append through the subset lands at the file's old end —
// the next byte, with no hole — and every slab, old and new, of both
// datasets still reads back.
func TestBundleMixedGroupSubsetRead(t *testing.T) {
	const (
		procs = 4
		nA    = 1 << 10
		nB    = 5 << 10 // different size: the group is mixed
		steps = 2
	)
	dir := filepath.Join(t.TempDir(), "bundle")
	writer := NewCluster(ClusterConfig{Procs: procs})
	err := writer.Run(func(p *Proc) {
		s, err := p.Initialize("mixed", Options{Organization: Level3})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		attrs := MakeDatalist("a", "b")
		attrs[0].GlobalSize = nA
		attrs[1].GlobalSize = nB
		g, err := s.SetAttributes(attrs)
		if err != nil {
			t.Error(err)
			return
		}
		mapA := demoMap(p.Rank(), p.Size(), nA)
		mapB := demoMap(p.Rank(), p.Size(), nB)
		if _, err := g.DataView([]string{"a"}, mapA); err != nil {
			t.Error(err)
			return
		}
		if _, err := g.DataView([]string{"b"}, mapB); err != nil {
			t.Error(err)
			return
		}
		for ts := int64(0); ts < steps; ts++ {
			va := make([]float64, len(mapA))
			for i, gi := range mapA {
				va[i] = demoValue("pressure", ts, gi)
			}
			vb := make([]float64, len(mapB))
			for i, gi := range mapB {
				vb[i] = demoValue("velocity", ts, gi)
			}
			if err := putAt(g, "a", ts, va); err != nil {
				t.Error(err)
				return
			}
			if err := putAt(g, "b", ts, vb); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}

	reader, err := OpenBundle(dir, ClusterConfig{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	err = reader.Run(func(p *Proc) {
		s, err := p.Initialize("mixed", Options{Organization: Level3, AttachRun: 1})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		g, err := s.OpenGroup([]string{"b"}) // subset of a mixed group
		if err != nil {
			t.Error(err)
			return
		}
		mapB := demoMap(p.Rank(), p.Size(), nB)
		if _, err := g.DataView([]string{"b"}, mapB); err != nil {
			t.Error(err)
			return
		}
		for ts := int64(0); ts < steps; ts++ {
			got, err := getAt(g, "b", ts, len(mapB))
			if err != nil {
				t.Errorf("read b@%d: %v", ts, err)
				return
			}
			for i, gi := range mapB {
				if want := demoValue("velocity", ts, gi); got[i] != want {
					t.Errorf("b@%d elem %d = %g, want %g", ts, gi, got[i], want)
					return
				}
			}
		}

		extra := make([]float64, len(mapB))
		for i, gi := range mapB {
			extra[i] = demoValue("velocity", steps, gi)
		}
		if err := putAt(g, "b", steps, extra); err != nil {
			t.Error(err)
			return
		}
		ga, err := s.OpenGroup([]string{"a"})
		if err != nil {
			t.Error(err)
			return
		}
		mapA := demoMap(p.Rank(), p.Size(), nA)
		if _, err := ga.DataView([]string{"a"}, mapA); err != nil {
			t.Error(err)
			return
		}
		check := func(g *Group, ds, valueOf string, ts int64, mapArr []int32) {
			got, err := getAt(g, ds, ts, len(mapArr))
			if err != nil {
				t.Errorf("read %s@%d after the append: %v", ds, ts, err)
				return
			}
			for i, gi := range mapArr {
				if want := demoValue(valueOf, ts, gi); got[i] != want {
					t.Errorf("%s@%d elem %d = %g after the append, want %g", ds, ts, gi, got[i], want)
					return
				}
			}
		}
		for ts := int64(0); ts <= steps; ts++ {
			check(g, "b", "velocity", ts, mapB)
		}
		for ts := int64(0); ts < steps; ts++ {
			check(ga, "a", "pressure", ts, mapA)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two steps of both datasets fill the file to 2·(1024+5120)·8 bytes;
	// the append starts there.
	_, rec, err := reader.Catalog.Slab(nil, 1, "b", steps)
	if err != nil {
		t.Fatalf("lookup b@%d: %v, %v", steps, rec, err)
	}
	if want := int64(steps * (nA + nB) * 8); rec.FileOffset != want {
		t.Errorf("subset append of b@%d at offset %d, want the old file size %d", steps, rec.FileOffset, want)
	}
}

// TestRewriteReadsLatestAfterRestart rewrites one timestep of a dataset
// and checks that its latest write is what reads return: in the writing
// session, after a restart from the saved bundle, and through
// Catalog.Slab (the resolver behind sdmd and the tools).
func TestRewriteReadsLatestAfterRestart(t *testing.T) {
	const (
		procs   = 4
		globalN = 1 << 10
	)
	fill := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	expect := func(p *Proc, g *Group, when string, want float64) {
		n := len(demoMap(p.Rank(), p.Size(), globalN))
		got, err := getAt(g, "p", 0, n)
		if err != nil {
			t.Errorf("%s: read p@0: %v", when, err)
			return
		}
		for i, v := range got {
			if v != want {
				t.Errorf("%s: rank %d p@0 elem %d = %g, want %g", when, p.Rank(), i, v, want)
				return
			}
		}
	}
	for _, level := range []FileOrganization{Level2, Level3} {
		t.Run(level.String(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "bundle")
			writer := NewCluster(ClusterConfig{Procs: procs})
			err := writer.Run(func(p *Proc) {
				s, err := p.Initialize("rewrite", Options{Organization: level})
				if err != nil {
					t.Error(err)
					return
				}
				defer s.Finalize()
				attrs := MakeDatalist("p", "q")
				for i := range attrs {
					attrs[i].GlobalSize = globalN
				}
				g, err := s.SetAttributes(attrs)
				if err != nil {
					t.Error(err)
					return
				}
				mapArr := demoMap(p.Rank(), p.Size(), globalN)
				if _, err := g.DataView([]string{"p", "q"}, mapArr); err != nil {
					t.Error(err)
					return
				}
				for _, w := range []struct {
					ds string
					v  float64
				}{{"p", 1}, {"q", 3}, {"p", 2}} {
					if err := putAt(g, w.ds, 0, fill(len(mapArr), w.v)); err != nil {
						t.Error(err)
						return
					}
				}
				expect(p, g, "writing session", 2)
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := writer.SaveBundle(dir); err != nil {
				t.Fatal(err)
			}

			reader, err := OpenBundle(dir, ClusterConfig{Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			err = reader.Run(func(p *Proc) {
				s, err := p.Initialize("rewrite", Options{Organization: level, AttachRun: 1})
				if err != nil {
					t.Error(err)
					return
				}
				defer s.Finalize()
				g, err := s.OpenGroup([]string{"p", "q"})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := g.DataView([]string{"p", "q"}, demoMap(p.Rank(), p.Size(), globalN)); err != nil {
					t.Error(err)
					return
				}
				expect(p, g, "after restart", 2)
			})
			if err != nil {
				t.Fatal(err)
			}

			// The rewrite is p's second slab in its file: after p and q
			// under level 3, after p alone under level 2.
			want := int64(2 * globalN * 8)
			if level == Level2 {
				want = globalN * 8
			}
			_, rec, err := reader.Catalog.Slab(nil, 1, "p", 0)
			if err != nil {
				t.Fatal(err)
			}
			if rec.FileOffset != want {
				t.Errorf("Catalog.Slab places p@0 at offset %d, want the rewrite's %d", rec.FileOffset, want)
			}
		})
	}
}

// readDemoRun reopens the demo run from a bundle-backed cluster and
// verifies every value written by writeDemoRun.
func readDemoRun(t *testing.T, cl *Cluster, globalN, steps int) {
	t.Helper()
	runs, err := cl.Catalog.Runs(nil)
	if err != nil || len(runs) == 0 {
		t.Fatalf("bundle catalog runs: %v (%d)", err, len(runs))
	}
	err = cl.Run(func(p *Proc) {
		s, err := p.Initialize("bundledemo", Options{Organization: Level3, AttachRun: runs[0].RunID})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		g, err := s.OpenGroup([]string{"pressure", "velocity"})
		if err != nil {
			t.Error(err)
			return
		}
		mapArr := demoMap(p.Rank(), p.Size(), globalN)
		if _, err := g.DataView([]string{"pressure", "velocity"}, mapArr); err != nil {
			t.Error(err)
			return
		}
		for ts := 0; ts < steps; ts++ {
			for _, ds := range []string{"pressure", "velocity"} {
				got, err := getAt(g, ds, int64(ts), len(mapArr))
				if err != nil {
					t.Errorf("read %s@%d: %v", ds, ts, err)
					return
				}
				for i, gi := range mapArr {
					if want := demoValue(ds, int64(ts), gi); got[i] != want {
						t.Errorf("%s@%d elem %d = %g, want %g", ds, ts, gi, got[i], want)
						return
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBundleGC: orphan chunk files (an interrupted save) and objects
// missing from the manifest are reclaimed by GCBundle, after which the
// bundle still opens and reads back correctly.
func TestBundleGC(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	cl := NewCluster(ClusterConfig{Procs: 4})
	writeDemoRun(t, cl, 1<<12, 2)
	if err := cl.SaveBundleOpts(dir, BundleOptions{Backend: "cas"}); err != nil {
		t.Fatal(err)
	}
	// Plant an orphan chunk file, as an interrupted save would leave.
	orphan := filepath.Join(dir, "data", "chunks", "zz", strings.Repeat("ab", 32))
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := GCBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.OrphansRemoved != 1 || st.ObjectsRemoved != 0 {
		t.Fatalf("gc stats %+v, want exactly the planted orphan removed", st)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan chunk survived GCBundle")
	}
	// The bundle still opens and the run reads back.
	cl2, err := OpenBundle(dir, ClusterConfig{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	readDemoRun(t, cl2, 1<<12, 2)

	// A dir-backed bundle prunes objects the manifest does not name.
	dir2 := filepath.Join(t.TempDir(), "bundle2")
	if err := cl.SaveBundle(dir2); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir2, "data", "stale.dat")
	if err := os.WriteFile(stale, []byte("leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := GCBundle(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ObjectsRemoved != 1 {
		t.Fatalf("dir bundle gc stats %+v, want one stale object removed", st2)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale object survived dir-bundle gc")
	}
}

// TestBundleResaveIncremental re-saves an unchanged cluster into the
// same cas bundle and checks the chunk pool did not grow — the dedup
// property that makes periodic bundle saves cheap.
func TestBundleResaveIncremental(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	cl := NewCluster(ClusterConfig{Procs: 4})
	writeDemoRun(t, cl, 1<<12, 2)
	opts := BundleOptions{Backend: "cas"}
	if err := cl.SaveBundleOpts(dir, opts); err != nil {
		t.Fatal(err)
	}
	sizeOf := func() int64 {
		var total int64
		err := filepath.Walk(filepath.Join(dir, "data", "chunks"), func(_ string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !info.IsDir() {
				total += info.Size()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	first := sizeOf()
	if err := cl.SaveBundleOpts(dir, opts); err != nil {
		t.Fatal(err)
	}
	if second := sizeOf(); second != first {
		t.Fatalf("re-save changed chunk pool size: %d -> %d bytes", first, second)
	}
}

// TestRestartReadAheadNoCatalogLookups is the restart half of
// metadata-directed read-ahead: OpenGroup ships the run's
// execution-table rows once, so an attached reader at pipeline depth 4
// resolves every Get step — and every read-ahead — from them: no
// LookupWrites after OpenGroup, the depth-1 reader's bytes and
// file-system work, in less virtual time.
func TestRestartReadAheadNoCatalogLookups(t *testing.T) {
	const (
		procs   = 4
		globalN = 1 << 12
		steps   = 6
	)
	dir := filepath.Join(t.TempDir(), "bundle")
	writer := NewCluster(ClusterConfig{Procs: procs})
	writeDemoRun(t, writer, globalN, steps)
	if err := writer.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}
	names := []string{"pressure", "velocity"}
	read := func(depth int) *Cluster {
		reader, err := OpenBundle(dir, ClusterConfig{Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		reader.SetMetrics(reg)
		err = reader.Run(func(p *Proc) {
			s, err := p.Initialize("bundledemo", Options{
				Organization: Level3, AttachRun: 1, StepPipelineDepth: depth,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Finalize()
			g, err := s.OpenGroup(names)
			if err != nil {
				t.Error(err)
				return
			}
			opened := reg.Snapshot()["catalog.lookup-keys"]
			mapArr := demoMap(p.Rank(), p.Size(), globalN)
			if _, err := g.DataView(names, mapArr); err != nil {
				t.Error(err)
				return
			}
			for ts := int64(0); ts < steps; ts++ {
				if err := s.BeginStep(ts); err != nil {
					t.Error(err)
					return
				}
				got := make([][]float64, len(names))
				for j, name := range names {
					d, err := DatasetOf[float64](g, name)
					if err != nil {
						t.Error(err)
						return
					}
					got[j] = make([]float64, len(mapArr))
					if err := d.Get(got[j]); err != nil {
						t.Error(err)
						return
					}
				}
				if err := s.EndStep(); err != nil {
					t.Error(err)
					return
				}
				for j, name := range names {
					for i, gi := range mapArr {
						if want := demoValue(name, ts, gi); got[j][i] != want {
							t.Errorf("depth %d rank %d %s@%d elem %d = %g, want %g", depth, p.Rank(), name, ts, gi, got[j][i], want)
							return
						}
					}
				}
			}
			p.Comm.Barrier() // rank 0 has resolved every step by now
			if after := reg.Snapshot()["catalog.lookup-keys"]; after != opened {
				t.Errorf("depth %d: %d execution-table keys looked up after OpenGroup, want 0", depth, after-opened)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return reader
	}
	d1, d4 := read(1), read(4)
	s1, s4 := d1.FS.Stats(), d4.FS.Stats()
	if s1 != s4 {
		t.Fatalf("pfs stats differ:\ndepth 1 %+v\ndepth 4 %+v", s1, s4)
	}
	if t1, t4 := d1.World.MaxTime(), d4.World.MaxTime(); t4 >= t1 {
		t.Fatalf("depth-4 restart finishes at %v, not before depth 1's %v", t4, t1)
	}
}

// treeDigest hashes every file under root, path and bytes, in walk
// (lexical) order.
func treeDigest(t *testing.T, root string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestLayoutNeverChangesBytes: the stripe unit is a property of the
// simulated file system, not of the data. The same run under three
// units — the one SDM chooses, a 256 KiB hint, the file system's 512 KiB
// default — leaves identical files and identical bundle data trees, and
// a bundle saved under 256 KiB units restores, default layout, into a
// cluster that reads every value back.
func TestLayoutNeverChangesBytes(t *testing.T) {
	const (
		procs   = 8
		globalN = 1 << 16 // 512 KiB per dataset: a 1 MiB level-3 step
		steps   = 2
	)
	stripe := Origin2000Config(procs).Storage.StripeSize
	units := []int64{0, 256 << 10, stripe}
	for _, backend := range []string{"dir", "cas"} {
		var refFiles map[string]string
		var refDigest string
		for _, unit := range units {
			cl := NewCluster(Origin2000Config(procs))
			writeDemoRunOpts(t, cl, globalN, steps, Options{Organization: Level3, Hints: Hints{StripingUnit: unit}})
			files := map[string]string{}
			for _, name := range cl.ListFiles() {
				data, err := cl.FS.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				files[name] = sha256hex(data)
				want := unit
				if unit == 0 {
					want = 104_858 // 1 MiB over ten servers, rounded up to a byte
				}
				if got, _ := cl.FS.StripeUnit(name); got != want {
					t.Fatalf("unit hint %d: %s striped by %d, want %d", unit, name, got, want)
				}
			}
			dir := filepath.Join(t.TempDir(), "bundle")
			if err := cl.SaveBundleOpts(dir, BundleOptions{Backend: backend}); err != nil {
				t.Fatal(err)
			}
			digest := treeDigest(t, filepath.Join(dir, "data"))
			if refFiles == nil {
				refFiles, refDigest = files, digest
			} else if fmt.Sprint(files) != fmt.Sprint(refFiles) || digest != refDigest {
				t.Fatalf("%s, unit hint %d: files or bundle data differ from the first run's", backend, unit)
			}
			if unit != 256<<10 {
				continue
			}
			reader, err := OpenBundle(dir, Origin2000Config(procs))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range reader.ListFiles() {
				if got, _ := reader.FS.StripeUnit(name); got != stripe {
					t.Fatalf("restored %s striped by %d, want the restoring system's default %d", name, got, stripe)
				}
			}
			readDemoRun(t, reader, globalN, steps)
		}
	}
}

// futureBundle saves files as a bundle and rewrites its manifest the way
// a later build might: format 2, with the inventory under another key —
// so a format-1 reader that trusted it would see a bundle naming no
// files.
func futureBundle(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	if err := crashCluster(t, files, "future").SaveBundleOpts(dir, BundleOptions{Backend: "dir"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, bundleManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(`"format": 1`), []byte(`"format": 2`), 1)
	raw = bytes.Replace(raw, []byte(`"files"`), []byte(`"inventory"`), 1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestUnsupportedManifestStopsDestructivePaths: everything that derives
// a live set from MANIFEST.json and removes what is not in it — GC, a
// migration reading it as source, a migration sweeping it as existing
// destination, fsck in repair mode — refuses a manifest of a format it
// does not understand and leaves the bundle byte-identical.
func TestUnsupportedManifestStopsDestructivePaths(t *testing.T) {
	base := t.TempDir()
	good := filepath.Join(base, "good")
	if err := crashCluster(t, crashOldFiles(), "v1").SaveBundleOpts(good, BundleOptions{Backend: "dir"}); err != nil {
		t.Fatal(err)
	}
	future := filepath.Join(base, "future")
	futureBundle(t, future, crashNewFiles())
	goodBefore, futureBefore := treeDigest(t, good), treeDigest(t, future)

	refused := func(op string, err error) {
		t.Helper()
		var me *ManifestError
		if !errors.As(err, &me) || me.Format != 2 {
			t.Errorf("%s on a format-2 manifest: error %v, want a *ManifestError naming format 2", op, err)
		}
		if got := treeDigest(t, future); got != futureBefore {
			t.Fatalf("%s changed the bundle it could not read", op)
		}
		if got := treeDigest(t, good); got != goodBefore {
			t.Fatalf("%s changed the other bundle", op)
		}
	}
	_, err := GCBundle(future)
	refused("GCBundle", err)

	dst := filepath.Join(base, "dst")
	_, err = MigrateBundle(future, dst, BundleOptions{Backend: "dir"})
	refused("MigrateBundle (source)", err)
	if _, err := os.Stat(filepath.Join(dst, bundleManifestName)); !os.IsNotExist(err) {
		t.Errorf("a destination bundle was committed from an unreadable source (stat: %v)", err)
	}

	_, err = MigrateBundle(good, future, BundleOptions{Backend: "dir"})
	refused("MigrateBundle (existing destination)", err)

	_, err = OpenBundle(future, ClusterConfig{Procs: 2})
	refused("OpenBundle", err)

	rep, err := FsckBundle(future, true)
	if err != nil || len(rep.Errors) == 0 || len(rep.Repaired) != 0 {
		t.Errorf("fsck -repair: report %+v (err %v), want an error and no repair", rep, err)
	}
	if got := treeDigest(t, future); got != futureBefore {
		t.Fatal("fsck -repair changed a bundle it could not read")
	}
}

// TestDisableWALSameBundle: BundleOptions.DisableWAL skips the log and
// nothing else. The same cluster saved with and without it leaves the
// same bundle — data tree, catalog bytes, manifest — with no log or
// staging leftovers, both saves are counted, and a second WAL-less save
// over the first sweeps what the new state no longer names.
func TestDisableWALSameBundle(t *testing.T) {
	for _, backend := range []string{"dir", "cas"} {
		t.Run(backend, func(t *testing.T) {
			base := t.TempDir()
			dirs := map[bool]string{false: filepath.Join(base, "wal"), true: filepath.Join(base, "nowal")}
			save := func(cl *Cluster, noWAL bool) {
				t.Helper()
				reg := NewRegistry()
				opts := BundleOptions{Backend: backend, DisableWAL: noWAL, Metrics: reg}
				if err := cl.SaveBundleOpts(dirs[noWAL], opts); err != nil {
					t.Fatal(err)
				}
				snap := reg.Snapshot()
				if got := snap["bundle.saves"]; got != 1 {
					t.Errorf("DisableWAL=%v: bundle.saves = %d, want 1", noWAL, got)
				}
				if got := snap["bundle.wal.records"]; (got == 0) != noWAL {
					t.Errorf("DisableWAL=%v: bundle.wal.records = %d", noWAL, got)
				}
			}
			same := func(ctx string) {
				t.Helper()
				for noWAL, dir := range dirs {
					err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
						if name := d.Name(); name == bundleWALName || name == bundleCatalogStage ||
							strings.HasPrefix(name, bundleStagePrefix) || strings.HasSuffix(name, ".tmp") {
							t.Errorf("%s: DisableWAL=%v left %s behind", ctx, noWAL, path)
						}
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				data := func(noWAL bool) string { return treeDigest(t, filepath.Join(dirs[noWAL], bundleDataDir)) }
				if data(false) != data(true) {
					t.Errorf("%s: data trees differ with and without the log", ctx)
				}
				var cats [2][]byte
				var ms [2]*bundleManifest
				for i, noWAL := range []bool{false, true} {
					var err error
					if cats[i], err = os.ReadFile(filepath.Join(dirs[noWAL], bundleCatalogName)); err != nil {
						t.Fatal(err)
					}
					if ms[i], err = readManifest(dirs[noWAL]); err != nil {
						t.Fatal(err)
					}
					ms[i].CreatedAt = ""
				}
				if !bytes.Equal(cats[0], cats[1]) {
					t.Errorf("%s: catalog bytes differ with and without the log", ctx)
				}
				if !reflect.DeepEqual(ms[0], ms[1]) {
					t.Errorf("%s: manifests differ: %+v vs %+v", ctx, ms[0], ms[1])
				}
			}

			old := crashCluster(t, crashOldFiles(), "old")
			save(old, false)
			save(old, true)
			same("first save")

			// The re-save changes one file, drops one, adds one.
			next := crashCluster(t, crashNewFiles(), "new")
			save(next, false)
			save(next, true)
			same("re-save")
			files, marker := readBundleState(t, dirs[true])
			if marker != "new" || !sameFiles(files, crashNewFiles()) {
				t.Errorf("WAL-less re-save holds marker %q and %d files, want the new state", marker, len(files))
			}
			assertFsckClean(t, dirs[true], "WAL-less re-save") // an unswept gone.dat would be an orphan
		})
	}
}

// TestUnsavedRunLeavesBundle: a run on a reopened bundle that never
// saves leaves the bundle as it was saved, for every backend kind — a
// run that creates a file (Level 1) and one that appends to a saved
// file (Level 3) alike. Every host file of the bundle (and, for obj,
// every remote blob) keeps its bytes; the only thing the run may leave
// on the host is a store's unpromoted staging. fsck stays clean, and a
// fresh open reads every saved step and lists only the manifest's files.
func TestUnsavedRunLeavesBundle(t *testing.T) {
	const (
		procs   = 4
		globalN = 1 << 12
		steps   = 2
	)
	// remoteBlobs reads every blob an obj bundle's remote holds.
	remoteBlobs := func(dir string) map[string][]byte {
		t.Helper()
		m, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		if m.Spec.Backend != "obj" {
			return out
		}
		svc := objstore.Dial(m.Spec.Endpoint)
		keys, _, err := svc.List("", "", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			size, _, err := svc.Head(k)
			if err != nil {
				t.Fatal(err)
			}
			out[k] = make([]byte, size)
			if _, err := svc.Get(k, 0, out[k]); err != nil && size > 0 {
				t.Fatal(err)
			}
		}
		return out
	}
	// attach runs fn on every rank over the demo run's two datasets.
	attach := func(cl *Cluster, level FileOrganization, fn func(g *Group, mapArr []int32)) {
		t.Helper()
		err := cl.Run(func(p *Proc) {
			s, err := p.Initialize("bundledemo", Options{Organization: level, AttachRun: 1})
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Finalize()
			g, err := s.OpenGroup([]string{"pressure", "velocity"})
			if err != nil {
				t.Error(err)
				return
			}
			mapArr := demoMap(p.Rank(), p.Size(), globalN)
			if _, err := g.DataView([]string{"pressure", "velocity"}, mapArr); err != nil {
				t.Error(err)
				return
			}
			fn(g, mapArr)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, opts := range []BundleOptions{
		{Backend: "dir"},
		{Backend: "cas", Compress: true},
		{Backend: "obj", PartSize: 16 << 10},
	} {
		for _, level := range []FileOrganization{Level1, Level3} {
			t.Run(fmt.Sprintf("%s/level%d", opts.Backend, level), func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "bundle")
				writer := NewCluster(ClusterConfig{Procs: procs})
				writeDemoRunOpts(t, writer, globalN, steps, Options{Organization: level})
				if err := writer.SaveBundleOpts(dir, opts); err != nil {
					t.Fatal(err)
				}
				saved, savedBlobs := treeDigest(t, dir), remoteBlobs(dir)
				savedNames := writer.ListFiles()

				// Reopen, attach, put one more step of both datasets, and
				// do not save.
				run, err := OpenBundle(dir, ClusterConfig{Procs: procs})
				if err != nil {
					t.Fatal(err)
				}
				before := len(run.ListFiles())
				attach(run, level, func(g *Group, mapArr []int32) {
					for _, ds := range []string{"pressure", "velocity"} {
						vals := make([]float64, len(mapArr))
						for i, gi := range mapArr {
							vals[i] = demoValue(ds, steps, gi)
						}
						if err := putAt(g, ds, steps, vals); err != nil {
							t.Error(err)
							return
						}
					}
				})
				if created := len(run.ListFiles()) > before; created != (level == Level1) {
					t.Fatalf("the unsaved run created files: %v, want %v", created, level == Level1)
				}

				if blobs := remoteBlobs(dir); !reflect.DeepEqual(blobs, savedBlobs) {
					t.Errorf("the unsaved run changed the remote: %d blobs, saved %d", len(blobs), len(savedBlobs))
				}
				// fsck's store sweeps the run's unpromoted staging, if any;
				// then every host file is as saved.
				assertFsckClean(t, dir, "after an unsaved run")
				if treeDigest(t, dir) != saved {
					t.Error("the unsaved run changed the bundle's host files")
				}

				fresh, err := OpenBundle(dir, ClusterConfig{Procs: procs})
				if err != nil {
					t.Fatal(err)
				}
				if got := fresh.ListFiles(); fmt.Sprint(got) != fmt.Sprint(savedNames) {
					t.Errorf("reopened bundle lists %v, saved %v", got, savedNames)
				}
				attach(fresh, level, func(g *Group, mapArr []int32) {
					for ts := int64(0); ts < steps; ts++ {
						for _, ds := range []string{"pressure", "velocity"} {
							got, err := getAt(g, ds, ts, len(mapArr))
							if err != nil {
								t.Errorf("read %s@%d: %v", ds, ts, err)
								return
							}
							for i, gi := range mapArr {
								if want := demoValue(ds, ts, gi); got[i] != want {
									t.Errorf("%s@%d elem %d = %g, want %g", ds, ts, gi, got[i], want)
									return
								}
							}
						}
					}
				})
			})
		}
	}
}
