package mpiio

import (
	"slices"
	"testing"

	"sdm/internal/mpi"
	"sdm/internal/pfs"
)

// The perf contract of the noncontiguous hot path: once scratch
// buffers have grown to a request's size, flattening and independent
// I/O allocate nothing per operation.

func irregularType() *Datatype {
	displs := make([]int, 2_000)
	for i := range displs {
		displs[i] = i * 3
	}
	return IndexedBlock(1, displs, Bytes(8))
}

func TestMapRangeIntoZeroAllocs(t *testing.T) {
	d := irregularType()
	dst := d.mapRangeInto(nil, 0, 0, d.size) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		dst = d.mapRangeInto(dst[:0], 0, 0, d.size)
	})
	if allocs != 0 {
		t.Fatalf("mapRangeInto allocated %.1f times per run, want 0", allocs)
	}
	if len(dst) != 2_000 {
		t.Fatalf("unexpected segment count %d", len(dst))
	}
}

// Mapping into a reused scratch (dst[:0] of an earlier, longer result)
// gives exactly the segments a fresh slice gets.
func TestMapRangeMatchesMapRangeInto(t *testing.T) {
	d := irregularType()
	scratch := d.mapRangeInto(nil, 0, 0, d.size)
	for _, tc := range []struct{ disp, logical, n int64 }{
		{0, 0, d.size},
		{100, 40, 1_000},
		{0, d.size - 8, 64}, // crosses a tile boundary
		{7, 3, 17},
	} {
		want := d.mapRangeInto(nil, tc.disp, tc.logical, tc.n)
		got := d.mapRangeInto(scratch[:0], tc.disp, tc.logical, tc.n)
		if !slices.Equal(want, got) {
			t.Fatalf("%+v: scratch result %v, fresh %v", tc, got, want)
		}
	}
}

func TestOpSegmentsZeroAllocsSteadyState(t *testing.T) {
	f := &File{h: nil, scratch: &ioScratch{}}
	op := BatchOp{Type: irregularType()}
	op.Data = make([]byte, op.Type.size)
	f.opSegments(&op) // warm
	allocs := testing.AllocsPerRun(100, func() {
		f.opSegments(&op)
	})
	if allocs != 0 {
		t.Fatalf("opSegments allocated %.1f times per run, want 0", allocs)
	}
}

// TestCollectiveScratchReuseAcrossOps drives many back-to-back
// collective writes and reads through one File per rank, verifying the
// cross-operation reuse of parcels, replies, and staging arenas never
// leaks one operation's bytes into another.
func TestCollectiveScratchReuseAcrossOps(t *testing.T) {
	const ranks = 4
	const elems = 512
	sys := pfs.NewSystem(pfs.Config{NumServers: 4, StripeSize: 4096})
	err := mpi.NewWorld(ranks, mpi.Config{}).Run(func(c *mpi.Comm) {
		f, err := Open(c, sys, "cycle", pfs.CreateMode, Hints{})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		displs := make([]int, elems)
		for k := range displs {
			displs[k] = k*ranks + c.Rank()
		}
		f.SetView(0, IndexedBlock(1, displs, Bytes(8)))
		buf := make([]byte, elems*8)
		got := make([]byte, elems*8)
		for op := 0; op < 8; op++ {
			for i := range buf {
				buf[i] = byte((op*31 + c.Rank()*7 + i) % 253)
			}
			if err := writeAll(f, 0, buf); err != nil {
				panic(err)
			}
			if err := readAll(f, 0, got); err != nil {
				panic(err)
			}
			for i := range buf {
				if got[i] != buf[i] {
					t.Errorf("op %d rank %d: byte %d = %d, want %d", op, c.Rank(), i, got[i], buf[i])
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndependentWriteReadZeroAllocsSteadyState(t *testing.T) {
	sys := pfs.NewSystem(pfs.Config{NumServers: 4, StripeSize: 4096})
	h, err := sys.Open("f", pfs.CreateMode, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &File{h: h, scratch: &ioScratch{}}
	f.filetype = irregularType()
	data := make([]byte, f.filetype.size)

	// Warm: first write allocates backing pages and scratch.
	if err := f.WriteAt(0, data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := f.WriteAt(0, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state WriteAt allocated %.1f times per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if err := f.ReadAt(0, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ReadAt allocated %.1f times per run, want 0", allocs)
	}
}
