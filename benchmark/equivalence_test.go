package main

import (
	"bytes"
	"testing"

	"sdm"
	"sdm/internal/workloads"
)

// The benchmark's application drivers must be the paper figures'
// drivers in everything the simulation can see: same simulated
// bandwidths to the last bit, same pfs counters, same files. Otherwise
// a change could move the figures and not the benchmark, or the other
// way round.

func testWorkload(app appKind, procs, steps, depth int, level sdm.FileOrganization) workload {
	return workload{name: "test", app: app, nx: 8, procs: procs, level: level, steps: steps, depth: depth}
}

func sameFiles(t *testing.T, want, got *sdm.Cluster, contents bool) {
	t.Helper()
	wn, gn := want.ListFiles(), got.ListFiles()
	if len(wn) != len(gn) {
		t.Fatalf("files: workloads wrote %v, benchmark driver wrote %v", wn, gn)
	}
	for i, name := range wn {
		if gn[i] != name {
			t.Fatalf("file %d: workloads wrote %q, benchmark driver wrote %q", i, name, gn[i])
		}
		wb, err := want.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := got.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(wb) != len(gb) || contents && !bytes.Equal(wb, gb) {
			t.Errorf("file %q differs between the workloads driver (%d bytes) and the benchmark driver (%d bytes)", name, len(wb), len(gb))
		}
	}
}

func TestFUN3DDriverMatchesFigure6(t *testing.T) {
	const procs, steps = 4, 3
	f, err := workloads.NewFUN3D(workloads.FUN3DConfig{NX: 8, NY: 8, NZ: 8})
	if err != nil {
		t.Fatal(err)
	}
	partVec, err := f.PartVec(procs)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []sdm.FileOrganization{sdm.Level2, sdm.Level3} {
		want := sdm.NewCluster(sdm.Origin2000Config(procs))
		ws, err := f.WriteReadBandwidth(want, level, steps)
		if err != nil {
			t.Fatal(err)
		}

		wl := testWorkload(appFUN3D, procs, steps, 1, level)
		shape := fun3dShape(int64(f.Mesh.NumNodes()), level, steps, 1)
		su := buildBuffers(wl, f, partVec, shape, 1)
		// Write Figure 6's values so file contents can be compared too:
		// the global node number on the nodes, the local index in flux.
		for r := range su.ranks {
			for gi := range su.ranks[r].base {
				for _, buf := range su.ranks[r].base[gi] {
					for i := range buf {
						if gi == 0 {
							buf[i] = float64(su.ranks[r].maps[0][i])
						} else {
							buf[i] = float64(i)
						}
					}
				}
			}
		}
		got := sdm.NewCluster(sdm.Origin2000Config(procs))
		gs, err := runCheckpoints(got, su, true)
		if err != nil {
			t.Fatal(err)
		}
		if gs.simWriteMBps != ws.WriteMBps || gs.simReadMBps != ws.ReadMBps {
			t.Errorf("%v: benchmark driver %v/%v MB/s, workloads %v/%v MB/s",
				level, gs.simWriteMBps, gs.simReadMBps, ws.WriteMBps, ws.ReadMBps)
		}
		if w, g := want.FS.Stats(), got.FS.Stats(); w != g {
			t.Errorf("%v: pfs stats differ: workloads %+v, benchmark driver %+v", level, w, g)
		}
		sameFiles(t, want, got, true)
		if att, bad := verifyReadBack(su, 0); bad != 0 || att != procs*steps*5 {
			t.Errorf("%v: read-back verified %d buffers, %d wrong", level, att, bad)
		}
	}
}

func TestRTDriverMatchesFigure7(t *testing.T) {
	const procs, steps = 4, 3
	rt, err := workloads.NewRT(workloads.RTConfig{NX: 8, NY: 8, NZ: 8, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := boundaryTriangles(8), int64(rt.RT.NumTriangles()); got != want {
		t.Fatalf("boundaryTriangles(8) = %d, mesh.RT counts %d", got, want)
	}
	partVec, err := rt.PartVec(procs)
	if err != nil {
		t.Fatal(err)
	}
	want := sdm.NewCluster(sdm.Origin2000Config(procs))
	ws, err := rt.WriteBandwidth(want, workloads.RTLevel1)
	if err != nil {
		t.Fatal(err)
	}

	wl := testWorkload(appRT, procs, steps, 1, sdm.Level1)
	shape := rtShape(int64(rt.RT.Mesh().NumNodes()), boundaryTriangles(8), sdm.Level1, steps, 1)
	su := buildBuffers(wl, nil, partVec, shape, 1)
	got := sdm.NewCluster(sdm.Origin2000Config(procs))
	gs, err := runCheckpoints(got, su, false)
	if err != nil {
		t.Fatal(err)
	}
	if gs.simWriteMBps != ws.MBps || gs.simWriteSec != ws.WriteSec {
		t.Errorf("benchmark driver %v MB/s in %v s, workloads %v MB/s in %v s",
			gs.simWriteMBps, gs.simWriteSec, ws.MBps, ws.WriteSec)
	}
	if w, g := want.FS.Stats(), got.FS.Stats(); w != g {
		t.Errorf("pfs stats differ: workloads %+v, benchmark driver %+v", w, g)
	}
	sameFiles(t, want, got, false) // the RT fields are synthesised, only the sizes must agree
}
