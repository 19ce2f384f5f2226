package workloads

import (
	"bytes"
	"runtime"
	"testing"

	"sdm"
	"sdm/internal/mesh"
)

// encodeFUN3D is the reference for what Stage writes: EncodeMsh over
// data arrays synthesized up front.
func encodeFUN3D(t *testing.T, f *FUN3D) ([]byte, mesh.MshLayout) {
	t.Helper()
	edgeData := make([][]float64, f.Cfg.EdgeArrays)
	for k := range edgeData {
		edgeData[k] = f.Mesh.EdgeData(k)
	}
	nodeData := make([][]float64, f.Cfg.NodeArrays)
	for k := range nodeData {
		nodeData[k] = f.Mesh.NodeData(k)
	}
	buf, layout, err := mesh.EncodeMsh(f.Mesh, edgeData, nodeData)
	if err != nil {
		t.Fatal(err)
	}
	return buf, layout
}

// TestStagedBytesEqualEncodeMsh pins the streamed staging to the
// one-buffer encoding, with the default four plus four data arrays and
// with none, and checks that re-staging a shorter file under the same
// name replaces the old one: no byte of it shows through.
func TestStagedBytesEqualEncodeMsh(t *testing.T) {
	f := smallFUN3D(t)
	bare := &FUN3D{Cfg: f.Cfg, Mesh: f.Mesh}
	bare.Cfg.EdgeArrays, bare.Cfg.NodeArrays = 0, 0
	cl := newCluster(4)
	for _, c := range []struct {
		name string
		f    *FUN3D
	}{{"4+4 arrays", f}, {"no data arrays", bare}} {
		want, layout := encodeFUN3D(t, c.f)
		if c.f == f && layout != f.Layout {
			t.Fatalf("%s: NewFUN3D's layout %+v, EncodeMsh's %+v", c.name, f.Layout, layout)
		}
		if err := c.f.Stage(cl); err != nil {
			t.Fatal(err)
		}
		got, err := cl.ReadFile(MshFileName)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: staged %d bytes differ from EncodeMsh's %d", c.name, len(got), len(want))
		}
		if size, err := cl.FS.FileSize(MshFileName); err != nil || size != layout.TotalSize() {
			t.Fatalf("%s: staged size %d (%v), layout %d", c.name, size, err, layout.TotalSize())
		}
	}
}

// TestStageHoldsOneCopy: staging keeps the mesh file in memory once, in
// the file system, and nothing beside it — no encoded copy, no data
// array.
func TestStageHoldsOneCopy(t *testing.T) {
	f, err := NewFUN3D(FUN3DConfig{NX: 16, NY: 16, NZ: 16})
	if err != nil {
		t.Fatal(err)
	}
	cl := newCluster(4)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	if err := f.Stage(cl); err != nil {
		t.Fatal(err)
	}
	grew := heap() - before
	size := f.Layout.TotalSize()
	if grew > size+1<<20 {
		t.Fatalf("staging a %d-byte file grew the live heap by %d bytes (limit %d)", size, grew, size+1<<20)
	}
	runtime.KeepAlive(f)
	runtime.KeepAlive(cl)
}

// TestCheckpointsNeedNoStagedMesh: the checkpoint body behind Figure 6,
// the pipeline figure and the ablations reads only the partition vector
// and the node count, so a cluster without the mesh file gives the same
// statistics as one with it.
func TestCheckpointsNeedNoStagedMesh(t *testing.T) {
	f := smallFUN3D(t)
	for _, level := range []sdm.FileOrganization{sdm.Level1, sdm.Level2, sdm.Level3} {
		staged := newCluster(8)
		if err := f.Stage(staged); err != nil {
			t.Fatal(err)
		}
		want, err := f.WriteReadBandwidth(staged, level, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.WriteReadBandwidth(newCluster(8), level, 2)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("level %v: unstaged %+v, staged %+v", level, *got, *want)
		}
	}
}
