package pfs

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"sdm/internal/sim"
	"sdm/internal/store"
	"sdm/internal/store/objstore"
)

// TestCostIdenticalAcrossBackends drives the same handle op sequence —
// plain and vectored, reads and writes, with per-rank clocks — on a
// system per backend, and requires identical virtual time, identical
// stats, and identical bytes. This is the load-bearing property of the
// storage subsystem: backends hold bytes, never time.
func TestCostIdenticalAcrossBackends(t *testing.T) {
	diskDir, err := store.NewDir(filepath.Join(t.TempDir(), "dir"))
	if err != nil {
		t.Fatal(err)
	}
	diskCAS, err := store.OpenCAS(filepath.Join(t.TempDir(), "cas"), store.CASOptions{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	// An object store over a remote that fails requests transiently must
	// cost the same too: its retries happen in host time and on the
	// remote's own timeline, never on the rank clock, so sim metrics stay
	// bit-identical to the clean run.
	faulting := objstore.NewService(objstore.CostModel{})
	faulting.SetFaults(0.1, 31)
	backends := map[string]store.Backend{
		"mem": store.NewMem(),
		"dir": diskDir,
		"cas": diskCAS,
		// The simulated object store prices every request on its own
		// remote timeline; none of that may reach the rank clock.
		"obj": objstore.New(objstore.NewService(objstore.CostModel{}),
			objstore.Options{PartSize: 96 << 10}),
		"obj-faulty-retry": objstore.New(faulting, objstore.Options{PartSize: 96 << 10}),
	}
	t.Cleanup(func() {
		if !t.Failed() && faulting.Stats().TransientInjected == 0 {
			t.Error("obj-faulty-retry backend saw zero injected faults — cost identity was not exercised")
		}
	})

	type outcome struct {
		now   sim.Time
		stats Stats
		data  []byte
	}
	results := make(map[string]outcome)
	for name, b := range backends {
		sys := NewSystemOn(DefaultConfig(), b)
		clock := sim.NewClock()
		h, err := sys.Open("f.dat", CreateMode, clock)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		payload := make([]byte, 300*1024)
		rng.Read(payload)
		if _, err := writeAt(h, payload, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := writeAt(h, payload[:70000], 1<<20); err != nil {
			t.Fatal(err)
		}
		// A flush between the writes and again before the reads: on
		// the object store, what follows fetches the flushed object
		// and reads it back with ranged GETs.
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
		exts := []Extent{{Off: 0, Len: 5000}, {Off: 5000, Len: 5000}, {Off: 600000, Len: 8000}}
		if _, err := h.WriteAtVec(payload[:18000], exts); err != nil {
			t.Fatal(err)
		}
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 256*1024)
		if _, err := readAt(h, buf, 100); err != nil {
			t.Fatal(err)
		}
		vbuf := make([]byte, 18000)
		if _, err := h.ReadAtVec(vbuf, exts); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		full, err := sys.ReadFile("f.dat")
		if err != nil {
			t.Fatal(err)
		}
		results[name] = outcome{now: clock.Now(), stats: sys.Stats(), data: full}
	}
	ref := results["mem"]
	for name, got := range results {
		if got.now != ref.now {
			t.Errorf("%s: virtual time %v, mem reference %v", name, got.now, ref.now)
		}
		if got.stats != ref.stats {
			t.Errorf("%s: stats %+v, mem reference %+v", name, got.stats, ref.stats)
		}
		if !bytes.Equal(got.data, ref.data) {
			t.Errorf("%s: file bytes diverge from mem reference", name)
		}
	}
}

// TestBundleReopenVisibleFiles checks that a system built on a backend
// that already holds objects (a reopened bundle) sees them without any
// prior Open on this system.
func TestBundleReopenVisibleFiles(t *testing.T) {
	b := store.NewMem()
	o, err := b.Create("preexisting.dat")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	sys := NewSystemOn(DefaultConfig(), b)
	if !sys.Exists("preexisting.dat") {
		t.Fatal("preexisting object invisible")
	}
	if sz, err := sys.FileSize("preexisting.dat"); err != nil || sz != 5 {
		t.Fatalf("FileSize = (%d, %v)", sz, err)
	}
	if got := sys.List(); len(got) != 1 || got[0] != "preexisting.dat" {
		t.Fatalf("List = %v", got)
	}
	data, err := sys.ReadFile("preexisting.dat")
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = (%q, %v)", data, err)
	}
	h, err := sys.Open("preexisting.dat", ReadOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := readAt(h, buf, 0); err != nil || string(buf) != "hello" {
		t.Fatalf("handle read = (%q, %v)", buf, err)
	}
}
