package pfs

import (
	"bytes"
	"io"
	"testing"
	"time"

	"sdm/internal/sim"
)

func vecConfig() Config {
	return Config{
		NumServers:      4,
		StripeSize:      1024,
		ServerBandwidth: 100e6,
		RequestLatency:  time.Millisecond,
	}
}

// One N-extent call equals the same extents issued as N one-extent
// calls: the same bytes, the same clock and the same Stats.
func TestWriteAtVecMatchesOneExtentCalls(t *testing.T) {
	exts := []Extent{{0, 100}, {500, 200}, {4096, 300}}
	payload := make([]byte, 600)
	for i := range payload {
		payload[i] = byte(i%251 + 1)
	}

	sysA := NewSystem(vecConfig())
	clockA := sim.NewClock()
	ha, _ := sysA.Open("f", CreateMode, clockA)
	if _, err := ha.WriteAtVec(payload, exts); err != nil {
		t.Fatal(err)
	}

	sysB := NewSystem(vecConfig())
	clockB := sim.NewClock()
	hb, _ := sysB.Open("f", CreateMode, clockB)
	pos := int64(0)
	for _, e := range exts {
		if _, err := writeAt(hb, payload[pos:pos+e.Len], e.Off); err != nil {
			t.Fatal(err)
		}
		pos += e.Len
	}

	// Identical content.
	da, _ := sysA.ReadFile("f")
	db, _ := sysB.ReadFile("f")
	if !bytes.Equal(da, db) {
		t.Fatal("N-extent write content differs from one-extent writes")
	}
	// Identical virtual cost: disjoint extents charge span by span,
	// sequentially, exactly like the call-per-extent loop.
	if clockA.Now() != clockB.Now() {
		t.Fatalf("N-extent cost %v != one-extent cost %v", clockA.Now(), clockB.Now())
	}
	// One request per extent (none adjacent here), and nothing else apart.
	if got := sysA.Stats().WriteReqs; got != int64(len(exts)) {
		t.Fatalf("WriteReqs = %d, want %d", got, len(exts))
	}
	if a, b := sysA.Stats(), sysB.Stats(); a != b {
		t.Fatalf("N-extent stats %+v != one-extent stats %+v", a, b)
	}
}

func TestVecCoalescesAdjacentExtents(t *testing.T) {
	sys := NewSystem(vecConfig())
	clock := sim.NewClock()
	h, _ := sys.Open("f", CreateMode, clock)
	// Three adjacent extents form one contiguous span: one request per
	// involved server, charged once.
	exts := []Extent{{0, 512}, {512, 512}, {1024, 512}}
	payload := make([]byte, 1536)
	for i := range payload {
		payload[i] = byte(i % 7)
	}
	if _, err := h.WriteAtVec(payload, exts); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().WriteReqs; got != 1 {
		t.Fatalf("WriteReqs = %d, want 1 coalesced request", got)
	}
	got := make([]byte, 1536)
	if _, err := h.ReadAtVec(got, []Extent{{0, 1536}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("coalesced write round-trip corrupted data")
	}
}

func TestReadAtVecZeroFillsPastEOF(t *testing.T) {
	sys := NewSystem(vecConfig())
	h, _ := sys.Open("f", CreateMode, nil)
	if _, err := writeAt(h, []byte{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for i := range buf {
		buf[i] = 0xEE // stale bytes that must not survive
	}
	n, err := h.ReadAtVec(buf, []Extent{{0, 4}, {100, 4}})
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	if n != 4 {
		t.Fatalf("n = %d, want 4", n)
	}
	want := []byte{1, 2, 3, 4, 0, 0, 0, 0}
	if !bytes.Equal(buf, want) {
		t.Fatalf("buf = %v, want %v", buf, want)
	}
}

func TestVecRejectsBadExtents(t *testing.T) {
	sys := NewSystem(vecConfig())
	h, _ := sys.Open("f", CreateMode, nil)
	if _, err := h.WriteAtVec([]byte{1}, []Extent{{-1, 1}}); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := h.WriteAtVec([]byte{1}, []Extent{{0, 2}}); err == nil {
		t.Fatal("payload shorter than extents accepted")
	}
	// Zero-length extents are skipped, not errors.
	if _, err := h.WriteAtVec(nil, []Extent{{5, 0}}); err != nil {
		t.Fatal(err)
	}
}

func TestVectoredOpsZeroAllocsSteadyState(t *testing.T) {
	sys := NewSystem(vecConfig())
	h, _ := sys.Open("f", CreateMode, sim.NewClock())
	exts := []Extent{{0, 256}, {1024, 256}, {8192, 256}}
	payload := make([]byte, 768)
	if _, err := h.WriteAtVec(payload, exts); err != nil { // warm pages + scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := h.WriteAtVec(payload, exts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state WriteAtVec allocated %.1f times per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := h.ReadAtVec(payload, exts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ReadAtVec allocated %.1f times per run, want 0", allocs)
	}
}
