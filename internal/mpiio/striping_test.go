package mpiio

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sdm/internal/mpi"
	"sdm/internal/obs"
	"sdm/internal/pfs"
)

// Tests of whole-stripe file domains over a per-file stripe unit: domains
// are cut from the extent aligned down to the file's own unit, every
// rank — handle or not — cuts the same ones, and with a set as large as
// the extent has stripes a phase-2 run never leaves its stripe.

// TestStripedDomainsTileAligned is the property of the cut itself, over
// random extents, units and set sizes.
func TestStripedDomainsTileAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 5000; i++ {
		unit := 1 + rng.Int63n(1<<uint(1+rng.Intn(20)))
		lo := rng.Int63n(1 << 30)
		hi := lo + 1 + rng.Int63n(1<<uint(1+rng.Intn(26)))
		nAgg := 1 + rng.Intn(64)
		n := nAgg
		start, domain := fileDomains(lo, hi, unit, n)
		tc := fmt.Sprintf("lo %d hi %d unit %d set %d: start %d domain %d", lo, hi, unit, nAgg, start, domain)
		if start%unit != 0 || start > lo || lo-start >= unit {
			t.Fatalf("%s: start is not lo aligned down to the unit", tc)
		}
		if domain <= 0 || domain%unit != 0 {
			t.Fatalf("%s: domain is not a whole number of stripes", tc)
		}
		// The domains tile [start, hi): they reach hi, and one stripe
		// less per domain would not.
		if start+int64(n)*domain < hi {
			t.Fatalf("%s: domains end at %d, short of hi", tc, start+int64(n)*domain)
		}
		if start+int64(n)*(domain-unit) >= hi {
			t.Fatalf("%s: a smaller domain would cover the extent too", tc)
		}
		// With a set at least as large as the stripes touched, a domain is
		// one stripe, so whatever an aggregator issues inside it stays on
		// one server.
		if stripes := (hi - start + unit - 1) / unit; int64(nAgg) >= stripes && domain != unit {
			t.Fatalf("%s: %d stripes but domains of %d stripes", tc, stripes, domain/unit)
		}
		for _, off := range []int64{lo, hi - 1, lo + (hi-lo)/2} {
			k := domainOf(off, start, domain)
			if k < 0 || k >= n || off < start+int64(k)*domain || off >= start+int64(k+1)*domain {
				t.Fatalf("%s: offset %d is not inside its domain %d", tc, off, k)
			}
		}
	}
}

// stripedRoundTrip opens name with the hints, writes every rank's share
// of elems*P interleaved 8-byte elements placed from byte offset disp,
// reads it back verified, and returns the (lo, domain, nAgg) the rank cut
// for one more (empty-handed but collective) extent agreement.
func stripedRoundTrip(c *mpi.Comm, sys *pfs.System, name string, hints Hints, disp int64, elems int) ([3]int64, error) {
	f, err := Open(c, sys, name, pfs.CreateMode, hints)
	if err != nil {
		return [3]int64{}, err
	}
	displs := make([]int, elems)
	for k := range displs {
		displs[k] = k*c.Size() + c.Rank()
	}
	f.SetView(disp, IndexedBlock(1, displs, Bytes(8)))
	buf := make([]byte, elems*8)
	for i := range buf {
		buf[i] = byte(c.Rank()*37 + i + len(name))
	}
	if err := writeAll(f, 0, buf); err != nil {
		return [3]int64{}, err
	}
	got := make([]byte, len(buf))
	if err := readAll(f, 0, got); err != nil {
		return [3]int64{}, err
	}
	if !bytes.Equal(got, buf) {
		return [3]int64{}, fmt.Errorf("rank %d read back different bytes", c.Rank())
	}
	ops := []BatchOp{{Disp: f.disp, Type: f.filetype, Data: buf}}
	d := f.collectiveRange(f.flattenOps(ops))
	if (f.h != nil) != (f.aggIndex(c.Rank()) < hints.CBNodes) {
		return [3]int64{}, fmt.Errorf("rank %d: handle %v does not match set membership", c.Rank(), f.h != nil)
	}
	return [3]int64{d.lo, d.size, int64(d.n)}, f.Close()
}

// TestStripedDomainsOneServerPerRun: random extents, units and ranks,
// the set sized to the stripes the extent touches — every phase-2 call is
// then served as exactly one request by exactly one server, one per
// stripe touched, except that an extent starting inside a stripe and
// ending inside the stripe NumServers later serves its two ends, on one
// server, as one.
func TestStripedDomainsOneServerPerRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ran, wrapped := 0, 0
	for i := 0; i < 40; i++ {
		p := 2 + rng.Intn(7)
		unit := int64(8 * (16 + rng.Intn(240))) // 128 B .. 2 KiB
		stripes := 1 + rng.Intn(p)              // what the set can cover
		disp := rng.Int63n(4*unit) / 8 * 8      // unaligned start
		bytesTotal := int64(stripes)*unit - disp%unit - rng.Int63n(unit/2)/8*8
		elems := int(bytesTotal / 8 / int64(p))
		if elems <= 0 {
			continue
		}
		ran++
		lo, hi := disp, disp+int64(elems*p)*8
		touched := int((hi - alignDown(lo, unit) + unit - 1) / unit)
		servers := 1 + rng.Intn(6)
		sys := pfs.NewSystem(pfs.Config{NumServers: servers, StripeSize: 4096})
		tr := obs.NewTracer()
		sys.SetTracer(tr)
		hints := Hints{CBNodes: touched, StripingUnit: unit}
		runIO(t, p, sys, func(c *mpi.Comm) {
			if _, err := stripedRoundTrip(c, sys, "f", hints, disp, elems); err != nil {
				t.Error(err)
			}
		})
		runs, serves := 0, 0
		for _, sp := range tr.Spans() {
			switch {
			case sp.Cat == "mpiio" && (sp.Name == "phase2:write-run" || sp.Name == "phase2:read-run"):
				runs++
			case sp.Cat == "pfs" && sp.Name == "serve":
				serves++
				for _, kv := range sp.Args {
					if kv.Key == "unit" && kv.Val != fmt.Sprint(unit) {
						t.Fatalf("served under unit %s, file created with %d", kv.Val, unit)
					}
				}
			}
		}
		if runs == 0 || serves != runs {
			t.Fatalf("p %d unit %d extent [%d,%d) set %d: %d phase-2 runs took %d server requests",
				p, unit, lo, hi, touched, runs, serves)
		}
		want := touched
		if lo%unit != 0 && touched == servers+1 {
			want-- // the head stripe's tail and the last stripe: one request
			wrapped++
		}
		if st := sys.Stats(); int(st.WriteReqs) != want || int(st.ReadRequests) != want {
			t.Fatalf("p %d unit %d extent [%d,%d) on %d servers: %d write and %d read requests, want %d",
				p, unit, lo, hi, servers, st.WriteReqs, st.ReadRequests, want)
		}
	}
	if ran < 30 || wrapped == 0 {
		t.Fatalf("only %d of 40 random cases had data to write, %d of them wrapped", ran, wrapped)
	}
}

// TestStripedLayoutSameDomainsOnEveryRank: the unit is fixed when the
// file is created, and a rank outside the set — no handle — cuts the
// domains the members cut, for a fresh file (the hint), for a file
// re-opened under another hint, and for one that existed before with a
// layout nobody hinted.
func TestStripedLayoutSameDomainsOnEveryRank(t *testing.T) {
	const p, elems = 6, 256 // 12 KiB per collective
	const disp = 5000
	sys := pfs.NewSystem(pfs.Config{NumServers: 4, StripeSize: 4096})
	h, err := sys.Create("old", 3072, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		hint int64
		unit int64 // the layout every rank must work with
	}{
		{"fresh", 1024, 1024},
		{"fresh", 2048, 1024}, // second open, another unit: the first stays
		{"fresh-default", 0, 4096},
		{"old", 1024, 3072},
	} {
		var mu sync.Mutex
		cuts := map[[3]int64]int{}
		runIO(t, p, sys, func(c *mpi.Comm) {
			cut, err := stripedRoundTrip(c, sys, tc.name, Hints{CBNodes: 2, StripingUnit: tc.hint}, disp, elems)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			cuts[cut]++
			mu.Unlock()
		})
		lo, domain := fileDomains(disp, disp+p*elems*8, tc.unit, 2)
		want := [3]int64{lo, domain, 2}
		if len(cuts) != 1 || cuts[want] != p {
			t.Fatalf("%s (hint %d): ranks cut %v, want all %d at %v", tc.name, tc.hint, cuts, p, want)
		}
		if u, _ := sys.StripeUnit(tc.name); u != tc.unit {
			t.Fatalf("%s (hint %d): file striped by %d, want %d", tc.name, tc.hint, u, tc.unit)
		}
	}
}

// TestStripedWrappedSievedKeepsHoles: a wrapped extent — inside a stripe
// to inside the stripe NumServers later — written through a view with
// holes on a file system that sieves every hole. The first aggregator
// serves both ends, read-modify-writing each without touching the
// stripes between, which other aggregators write: no byte of the extent
// is written twice, every written element lands and every hole keeps the
// bytes the file held.
func TestStripedWrappedSievedKeepsHoles(t *testing.T) {
	const p, servers, unit, elems = 5, 4, 1024, 44
	const disp = 3*unit + 1000 // inside stripe 3
	sys := pfs.NewSystem(pfs.Config{NumServers: servers, StripeSize: 4096,
		ServerBandwidth: 100e6, RequestLatency: 1_000_000})
	if sys.SieveGap() < 2*unit {
		t.Fatalf("sieve gap %d: the fixture needs every hole sieved", sys.SieveGap())
	}
	old := make([]byte, 16*unit)
	for i := range old {
		old[i] = byte(i%241 + 7)
	}
	h, err := sys.Create("f", unit, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAtVec(old, []pfs.Extent{{Off: 0, Len: int64(len(old))}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	before := sys.Stats().BytesWritten
	// Rank r writes 8-byte slot k·2p + r: every other run of p slots is a hole.
	hi := int64(disp + ((elems-1)*2*p+p)*8)
	touched := int((hi - alignDown(disp, unit) + unit - 1) / unit)
	if touched != servers+1 || p < touched {
		t.Fatalf("fixture extent [%d,%d) touches %d stripes, want %d, one per rank of %d", disp, hi, touched, servers+1, p)
	}
	want := append([]byte(nil), old...)
	runIO(t, p, sys, func(c *mpi.Comm) {
		f, err := Open(c, sys, "f", pfs.ReadWrite, Hints{CBNodes: touched})
		if err != nil {
			t.Error(err)
			return
		}
		displs := make([]int, elems)
		for k := range displs {
			displs[k] = k*2*p + c.Rank()
		}
		f.SetView(disp, IndexedBlock(1, displs, Bytes(8)))
		buf := make([]byte, elems*8)
		for i := range buf {
			buf[i] = byte(c.Rank()*53 + i%199)
		}
		if err := writeAll(f, 0, buf); err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 {
			// Every rank's bytes are computable here; rank 0 records them.
			for r := 0; r < p; r++ {
				for k := 0; k < elems; k++ {
					off := disp + (k*2*p+r)*8
					for b := 0; b < 8; b++ {
						want[off+b] = byte(r*53 + (k*8+b)%199)
					}
				}
			}
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if n := sys.Stats().BytesWritten - before; n > hi-disp {
		t.Errorf("wrote %d bytes for an extent of %d: a sieved run crossed another aggregator's stripes", n, hi-disp)
	}
	got, err := sys.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("byte %d (stripe %d) = %d, want %d", i, i/unit, got[i], want[i])
			}
		}
	}
}
