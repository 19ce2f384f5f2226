package pfs

import (
	"testing"
	"time"

	"sdm/internal/sim"
)

func benchSystem() *System {
	return NewSystem(Config{
		NumServers:      10,
		StripeSize:      512 * 1024,
		ServerBandwidth: 35e6,
		RequestLatency:  800 * time.Microsecond,
	})
}

// BenchmarkWriteAtContiguous is the contiguous baseline: one one-extent
// request per call.
func BenchmarkWriteAtContiguous(b *testing.B) {
	sys := benchSystem()
	h, _ := sys.Open("f", CreateMode, sim.NewClock())
	buf := make([]byte, 1<<20)
	if _, err := writeAt(h, buf, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := writeAt(h, buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteAtVec measures a 64-extent vectored write: one handle
// call, zero steady-state allocations.
func BenchmarkWriteAtVec(b *testing.B) {
	sys := benchSystem()
	h, _ := sys.Open("f", CreateMode, sim.NewClock())
	const extents = 64
	const extLen = 16 * 1024
	exts := make([]Extent, extents)
	for i := range exts {
		exts[i] = Extent{Off: int64(i) * 2 * extLen, Len: extLen}
	}
	buf := make([]byte, extents*extLen)
	if _, err := h.WriteAtVec(buf, exts); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.WriteAtVec(buf, exts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadAtVec is the read-side counterpart.
func BenchmarkReadAtVec(b *testing.B) {
	sys := benchSystem()
	h, _ := sys.Open("f", CreateMode, sim.NewClock())
	const extents = 64
	const extLen = 16 * 1024
	exts := make([]Extent, extents)
	for i := range exts {
		exts[i] = Extent{Off: int64(i) * 2 * extLen, Len: extLen}
	}
	buf := make([]byte, extents*extLen)
	if _, err := h.WriteAtVec(buf, exts); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ReadAtVec(buf, exts); err != nil {
			b.Fatal(err)
		}
	}
}
