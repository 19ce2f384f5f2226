package pfs

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"sdm/internal/sim"
	"sdm/internal/store"
)

// Tests of the per-file layout — the stripe unit and the server holding
// stripe 0: attributes fixed when the file is created, which the cost
// model stripes by and which travel with nothing but the System that
// created the file.

// TestLayoutFixedAtCreation: the first Create decides; every later open,
// whatever unit and starting server it asks for, sees that layout, and
// so does a rank that only queries.
func TestLayoutFixedAtCreation(t *testing.T) {
	s := NewSystem(Config{NumServers: 4, StripeSize: 4096})
	if _, ok := s.StripeUnit("f"); ok {
		t.Fatal("StripeUnit reports a file that does not exist")
	}
	first := (s.startingServer("f") + 1) % 4 // not where the name hash puts it
	h, err := s.Create("f", 1024, first, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.StripeUnit() != 1024 || h.f.first != first {
		t.Fatalf("created with unit %d from server %d, want 1024 from %d", h.StripeUnit(), h.f.first, first)
	}
	for _, reopen := range []func() (*Handle, error){
		func() (*Handle, error) { return s.Create("f", 256, (first+1)%4, nil) },
		func() (*Handle, error) { return s.Create("f", 0, 0, nil) },
		func() (*Handle, error) { return s.Open("f", ReadWrite, nil) },
		func() (*Handle, error) { return s.Open("f", CreateMode, nil) },
	} {
		h2, err := reopen()
		if err != nil {
			t.Fatal(err)
		}
		if h2.StripeUnit() != 1024 || h2.f.first != first {
			t.Fatalf("a later open changed the layout to unit %d from server %d", h2.StripeUnit(), h2.f.first)
		}
	}
	for _, bad := range []int{-1, 4} {
		if _, err := s.Create("g", 0, bad, nil); err == nil || s.Exists("g") {
			t.Fatalf("Create from server %d of 4: %v, exists %v; want an error and no file", bad, err, s.Exists("g"))
		}
	}
	if u, ok := s.StripeUnit("f"); !ok || u != 1024 {
		t.Fatalf("StripeUnit = %d, %v, want 1024", u, ok)
	}
	// Unit 0 and plain Open mean the system default.
	for _, name := range []string{"g", "h"} {
		var h *Handle
		if name == "g" {
			h, err = s.Create(name, 0, 0, nil)
		} else {
			h, err = s.Open(name, CreateMode, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if h.StripeUnit() != 4096 {
			t.Fatalf("%s: default unit %d, want 4096", name, h.StripeUnit())
		}
	}
	// Removing a file forgets its layout; the name can be created anew.
	if err := s.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if h, err = s.Create("f", 256, 0, nil); err != nil || h.StripeUnit() != 256 {
		t.Fatalf("re-created with unit %d (%v), want 256", h.StripeUnit(), err)
	}
}

// TestLayoutNotCarriedByTheBytes: a second System over the same backend
// (a reopened bundle) lays the file out by its own defaults — its default
// unit, from the server the name hash picks — with the bytes intact.
func TestLayoutNotCarriedByTheBytes(t *testing.T) {
	backend := store.NewMem()
	a := NewSystemOn(Config{NumServers: 4, StripeSize: 4096}, backend)
	hashed := a.startingServer("f")
	h, err := a.Create("f", 512, (hashed+1)%4, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("layout"), 1000)
	if _, err := writeAt(h, data, 0); err != nil {
		t.Fatal(err)
	}
	b := NewSystemOn(Config{NumServers: 4, StripeSize: 2048}, backend)
	if u, ok := b.StripeUnit("f"); !ok || u != 2048 {
		t.Fatalf("reopened backend: unit %d, %v, want the new system's 2048", u, ok)
	}
	hb, err := b.Create("f", 512, (hashed+1)%4, nil)
	if err != nil || hb.StripeUnit() != 2048 || hb.f.first != hashed {
		t.Fatalf("reopened backend: handle unit %d from server %d (%v), want 2048 from the name hash's %d",
			hb.StripeUnit(), hb.f.first, err, hashed)
	}
	if got, err := b.ReadFile("f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("bytes changed with the layout (%v)", err)
	}
}

// TestLayoutStripesByFileUnit: the same request costs what the file's own
// unit says — a 4 KiB write is one request on one server under a 4 KiB
// unit and four parallel 1 KiB shares under a 1 KiB unit.
func TestLayoutStripesByFileUnit(t *testing.T) {
	cfg := Config{NumServers: 4, StripeSize: 4096, ServerBandwidth: 1e6, RequestLatency: time.Millisecond}
	cost := func(unit int64) sim.Duration {
		s := NewSystem(cfg)
		clock := sim.NewClock()
		h, err := s.Create("f", unit, 0, clock)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := writeAt(h, make([]byte, 4096), 0); err != nil {
			t.Fatal(err)
		}
		return clock.Now().Sub(0)
	}
	whole := cfg.RequestLatency + sim.TransferCost(4096, 0, cfg.ServerBandwidth)
	quarter := cfg.RequestLatency + sim.TransferCost(1024, 0, cfg.ServerBandwidth)
	if got := cost(4096); got != whole {
		t.Fatalf("4 KiB unit: %v, want one request of %v", got, whole)
	}
	if got := cost(1024); got != quarter {
		t.Fatalf("1 KiB unit: %v, want four parallel requests of %v", got, quarter)
	}
}

// TestLayoutSingleStripeFastPath: charge's one-server shortcut picks the
// server, and charges the time, the general per-server split does.
func TestLayoutSingleStripeFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 500; i++ {
		cfg := Config{NumServers: 1 + rng.Intn(7), StripeSize: 4096, ServerBandwidth: 1e6, RequestLatency: time.Millisecond}
		unit := int64(1 + rng.Intn(5000))
		s := NewSystem(cfg)
		h, err := s.Create("f", unit, rng.Intn(cfg.NumServers), nil)
		if err != nil {
			t.Fatal(err)
		}
		// A request inside one stripe, at a random place in a random stripe.
		in := rng.Int63n(unit)
		n := 1 + rng.Int63n(unit-in)
		off := rng.Int63n(64)*unit + in
		want := s.spansInto(nil, make([]int64, cfg.NumServers), off, n, unit, h.f.first)
		if len(want) != 1 {
			t.Fatalf("unit %d off %d n %d: %d spans from the general split", unit, off, n, len(want))
		}
		done := h.charge(off, n, 0)
		if len(h.spanScratch) != 1 || h.spanScratch[0] != want[0] {
			t.Fatalf("unit %d off %d n %d: fast path %+v, general split %+v", unit, off, n, h.spanScratch, want)
		}
		if h.totScratch != nil {
			t.Fatal("a single-stripe request allocated the per-server totals")
		}
		if cost := cfg.RequestLatency + sim.TransferCost(n, 0, cfg.ServerBandwidth); done != sim.Time(0).Add(cost) {
			t.Fatalf("charged until %v, want %v", done, cost)
		}
	}
}

// TestLayoutOpenAllocatesOnce: a charged open is the Handle and nothing
// else, and single-stripe contiguous vectored I/O through it — what a
// stripe-aligned aggregator issues — allocates nothing more.
func TestLayoutOpenAllocatesOnce(t *testing.T) {
	s := NewSystem(Config{NumServers: 4, StripeSize: 4096, RequestLatency: time.Millisecond})
	clock := sim.NewClock()
	if err := s.WriteFile("f", bytes.NewReader(make([]byte, 8192))); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	exts := []Extent{{Off: 4096, Len: 1024}}
	allocs := testing.AllocsPerRun(100, func() {
		h, err := s.Open("f", ReadWrite, clock)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAtVec(buf, exts); err != nil {
			t.Fatal(err)
		}
		if _, err := h.ReadAtVec(buf, exts); err != nil {
			t.Fatal(err)
		}
		_ = h.Close()
	})
	if allocs != 1 {
		t.Fatalf("open + aligned write + read + close allocated %.0f times, want 1 (the Handle)", allocs)
	}
}
