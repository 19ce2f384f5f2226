package pfs

import (
	"bytes"
	"io"
	"testing"
	"time"

	"sdm/internal/obs"
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

// Consecutive extents of one call that are adjacent in one server's
// object — stripe j lies at (j/NumServers)·unit there — are one request
// to that server, carrying the same bytes: the tail of stripe 3 and the
// head of stripe 7, both on server 3 of four. Extents on one server that
// do not meet there, or meet only out of call order, stay two requests,
// and extents adjacent in the file still coalesce.
func TestVecServerAdjacentExtentsOneRequest(t *testing.T) {
	const unit = 1024
	tail := Extent{Off: 3*unit + 1000, Len: 24}
	head := Extent{Off: 7 * unit, Len: 500}
	for _, tc := range []struct {
		name string
		exts []Extent
		reqs int64
	}{
		{"server-adjacent", []Extent{tail, head}, 1},
		{"short of the stripe end", []Extent{{Off: tail.Off, Len: 20}, head}, 2},
		{"a row apart", []Extent{tail, {Off: 11 * unit, Len: 500}}, 2},
		{"out of call order", []Extent{head, tail}, 2},
		{"file-adjacent", []Extent{{Off: 0, Len: 512}, {Off: 512, Len: 512}}, 1},
	} {
		sys := NewSystem(vecConfig())
		tr := obs.NewTracer()
		sys.SetTracer(tr)
		clock := sim.NewClock()
		h, _ := sys.Open("f", CreateMode, clock)
		var n int64
		for _, e := range tc.exts {
			n += e.Len
		}
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i%251 + 1)
		}
		if _, err := h.WriteAtVec(payload, tc.exts); err != nil {
			t.Fatal(err)
		}
		if tc.reqs == 1 {
			cfg := vecConfig()
			if want := sim.Time(0).Add(cfg.RequestLatency + sim.TransferCost(n, 0, cfg.ServerBandwidth)); clock.Now() != want {
				t.Errorf("%s: write took until %v, want one request's %v", tc.name, clock.Now(), want)
			}
		}
		got := make([]byte, n)
		if _, err := h.ReadAtVec(got, tc.exts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("%s: read back different bytes", tc.name)
		}
		file, _ := sys.ReadFile("f")
		pos := int64(0)
		for _, e := range tc.exts {
			if !bytes.Equal(file[e.Off:e.Off+e.Len], payload[pos:pos+e.Len]) {
				t.Errorf("%s: extent at %d holds other bytes", tc.name, e.Off)
			}
			pos += e.Len
		}
		if st := sys.Stats(); st.WriteReqs != tc.reqs || st.ReadRequests != tc.reqs {
			t.Errorf("%s: %d write and %d read requests, want %d", tc.name, st.WriteReqs, st.ReadRequests, tc.reqs)
		}
		if serves := len(tr.Spans()); serves != int(2*tc.reqs) {
			t.Errorf("%s: servers took %d requests, want %d", tc.name, serves, 2*tc.reqs)
		}
		sys.SetTracer(nil)
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := h.WriteAtVec(payload, tc.exts); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: steady-state WriteAtVec allocated %.1f times per run, want 0", tc.name, allocs)
		}
	}
}
