package mpiio

import (
	"testing"

	"sdm/internal/mpi"
	"sdm/internal/pfs"
)

func BenchmarkFlattenIndexed(b *testing.B) {
	displs := make([]int, 10_000)
	for i := range displs {
		displs[i] = i * 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IndexedBlock(1, displs, Bytes(8))
	}
}

func BenchmarkMapRange(b *testing.B) {
	displs := make([]int, 10_000)
	for i := range displs {
		displs[i] = i * 3
	}
	d := IndexedBlock(1, displs, Bytes(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.mapRangeInto(nil, 0, 0, d.size)
	}
}

// BenchmarkMapRangeInto is the steady-state flattening path: zero
// allocations once the destination scratch has grown.
func BenchmarkMapRangeInto(b *testing.B) {
	displs := make([]int, 10_000)
	for i := range displs {
		displs[i] = i * 3
	}
	d := IndexedBlock(1, displs, Bytes(8))
	dst := d.mapRangeInto(nil, 0, 0, d.size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = d.mapRangeInto(dst[:0], 0, 0, d.size)
	}
}

// BenchmarkIndependentWriteSteadyState measures the vectored
// independent write path through an irregular view.
func BenchmarkIndependentWriteSteadyState(b *testing.B) {
	displs := make([]int, 10_000)
	for i := range displs {
		displs[i] = i * 3
	}
	sys := pfs.NewSystem(pfs.Config{NumServers: 4, StripeSize: 64 * 1024})
	h, err := sys.Open("bench", pfs.CreateMode, nil)
	if err != nil {
		b.Fatal(err)
	}
	f := &File{h: h, scratch: &ioScratch{}}
	f.filetype = IndexedBlock(1, displs, Bytes(8))
	data := make([]byte, f.filetype.size)
	if err := f.WriteAt(0, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.WriteAt(0, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoPhaseWrite measures the wall-clock cost of the two-phase
// implementation itself (segment routing, exchange, sieving) on a
// 4-rank interleaved write.
func BenchmarkTwoPhaseWrite(b *testing.B) {
	const ranks = 4
	const elemsPerRank = 4_096
	sys := pfs.NewSystem(pfs.Config{NumServers: 4, StripeSize: 64 * 1024})
	b.SetBytes(ranks * elemsPerRank * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(ranks, mpi.Config{})
		err := w.Run(func(c *mpi.Comm) {
			f, err := Open(c, sys, "bench", pfs.CreateMode, Hints{})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			displs := make([]int, elemsPerRank)
			for k := range displs {
				displs[k] = k*ranks + c.Rank()
			}
			f.SetView(0, IndexedBlock(1, displs, Bytes(8)))
			if err := writeAll(f, 0, make([]byte, elemsPerRank*8)); err != nil {
				panic(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
