package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sdm/internal/mpi"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// Tests of the rotated aggregator set and the deferred open: only the
// CBNodes ranks starting at the name's rotation open a file at Open,
// file domain k belongs to rank (rot+k) mod P, any other rank opens on
// its first independent access, and the dense schedule is the same code
// with CBNodes = P.

// rotOf is the first aggregator rank of name in a world of p ranks.
func rotOf(name string, p int) int { return int(pfs.NameHash(name) % uint64(p)) }

// namesWithDistinctRot returns n file names whose aggregator sets start
// at n different ranks of a p-rank world.
func namesWithDistinctRot(n, p int) []string {
	var names []string
	seen := map[int]bool{}
	for i := 0; len(names) < n; i++ {
		name := fmt.Sprintf("file%d.dat", i)
		if r := rotOf(name, p); !seen[r] {
			seen[r] = true
			names = append(names, name)
		}
	}
	return names
}

// interleavedRoundTrip writes and reads back elems 8-byte elements per rank
// through a round-robin view, returning an error on a mismatch.
func interleavedRoundTrip(f *File, c *mpi.Comm, elems int) error {
	displs := make([]int, elems)
	for k := range displs {
		displs[k] = k*c.Size() + c.Rank()
	}
	f.SetView(0, IndexedBlock(1, displs, Bytes(8)))
	buf := make([]byte, elems*8)
	for i := range buf {
		buf[i] = byte(c.Rank()*41 + i)
	}
	if err := writeAll(f, 0, buf); err != nil {
		return err
	}
	got := make([]byte, len(buf))
	if err := readAll(f, 0, got); err != nil {
		return err
	}
	if !bytes.Equal(got, buf) {
		return fmt.Errorf("rank %d read back different bytes", c.Rank())
	}
	return nil
}

func TestAggregatorSetMembersOpen(t *testing.T) {
	const p, nAgg = 8, 3
	for _, name := range namesWithDistinctRot(3, p) {
		sys := freeSys()
		rot := rotOf(name, p)
		var mu sync.Mutex
		opened := map[int]bool{}
		runIO(t, p, sys, func(c *mpi.Comm) {
			f, err := Open(c, sys, name, pfs.CreateMode, Hints{CBNodes: nAgg})
			if err != nil {
				t.Error(err)
				return
			}
			member := f.h != nil
			mu.Lock()
			opened[c.Rank()] = member
			mu.Unlock()
			// 8 ranks x 512 elements = 32 KiB over 4 KiB stripes: every
			// one of the three domains receives data.
			if err := interleavedRoundTrip(f, c, 512); err != nil {
				t.Error(err)
			}
			if (f.h != nil) != member {
				t.Errorf("rank %d: collective I/O changed the open state", c.Rank())
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		})
		for r := 0; r < p; r++ {
			want := (r-rot+p)%p < nAgg
			if opened[r] != want {
				t.Errorf("%s (rot %d): rank %d opened=%v, want %v", name, rot, r, opened[r], want)
			}
		}
		if st := sys.Stats(); st.Opens != nAgg || st.Closes != nAgg {
			t.Errorf("%s: %d opens, %d closes, want %d each", name, st.Opens, st.Closes, nAgg)
		}
	}
}

// TestAggregatorSetHintRespected: the dense schedule is CBNodes = P
// through the same code, and a smaller caller-chosen set is honoured —
// that many opens, wider domains, the same bytes on disk.
func TestAggregatorSetHintRespected(t *testing.T) {
	const p, elems = 8, 512 // 32 KiB = 8 stripes of 4 KiB
	run := func(cb int) (pfs.Stats, []byte) {
		sys := freeSys()
		runIO(t, p, sys, func(c *mpi.Comm) {
			f, err := Open(c, sys, "f", pfs.CreateMode, Hints{CBNodes: cb})
			if err != nil {
				t.Error(err)
				return
			}
			if err := interleavedRoundTrip(f, c, elems); err != nil {
				t.Error(err)
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		})
		data, err := sys.ReadFile("f")
		if err != nil {
			t.Fatal(err)
		}
		return sys.Stats(), data
	}
	dense, denseData := run(p)
	// Eight stripes over eight ranks is one stripe per domain, so the
	// default (every rank a member) and CBNodes = P are the same schedule.
	if def, defData := run(0); def != dense || !bytes.Equal(defData, denseData) {
		t.Fatalf("default differs from CBNodes=P:\n%+v\n%+v", def, dense)
	}
	// Fewer aggregators than stripes widen the domains: same bytes, fewer
	// and larger requests, fewer opens.
	sized, sizedData := run(4)
	if !bytes.Equal(sizedData, denseData) {
		t.Fatal("CBNodes=4 wrote different bytes")
	}
	if sized.Opens != 4 || sized.WriteReqs >= dense.WriteReqs || sized.BytesWritten != dense.BytesWritten {
		t.Fatalf("CBNodes=4: %+v vs dense %+v", sized, dense)
	}
}

// TestDeferredOpenLazyIndependent: a rank outside the set opens on its
// first independent access, pays the open cost exactly once, and closes
// what it opened.
func TestDeferredOpenLazyIndependent(t *testing.T) {
	const p = 4
	const openCost = 1000
	sys := pfs.NewSystem(pfs.Config{NumServers: 2, StripeSize: 4096, OpenCost: openCost, CloseCost: 10})
	rot := rotOf("f", p)
	outsider := (rot + 2) % p
	runIO(t, p, sys, func(c *mpi.Comm) {
		f, err := Open(c, sys, "f", pfs.CreateMode, Hints{CBNodes: 1})
		if err != nil {
			t.Error(err)
			return
		}
		switch c.Rank() {
		case rot:
			if c.Now() != openCost {
				t.Errorf("member paid %v at Open, want %v", c.Now(), sim.Time(openCost))
			}
		default:
			if c.Now() != 0 || f.h != nil {
				t.Errorf("rank %d outside the set paid %v at Open (handle %v)", c.Rank(), c.Now(), f.h != nil)
			}
		}
		if c.Rank() == outsider {
			data := []byte("independent")
			for i := 0; i < 2; i++ {
				if err := f.WriteAt(64, data); err != nil {
					t.Error(err)
				}
			}
			got := make([]byte, len(data))
			if err := f.ReadAt(64, got); err != nil || !bytes.Equal(got, data) {
				t.Errorf("ReadAt = %q, %v", got, err)
			}
			if c.Now() != openCost {
				t.Errorf("outsider paid %v for three independent accesses, want one open (%v)", c.Now(), sim.Time(openCost))
			}
		}
		before := c.Now()
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		opened := c.Rank() == rot || c.Rank() == outsider
		if paid := c.Now() - before; (paid != 0) != opened {
			t.Errorf("rank %d (opened=%v) paid %v at Close", c.Rank(), opened, paid)
		}
		if err := f.WriteAt(0, []byte{1}); !errors.Is(err, pfs.ErrClosed) {
			t.Errorf("rank %d: WriteAt after Close = %v, want ErrClosed", c.Rank(), err)
		}
	})
	if st := sys.Stats(); st.Opens != 2 || st.Closes != 2 {
		t.Fatalf("%d opens, %d closes, want 2 each (member + lazy outsider)", st.Opens, st.Closes)
	}
}

// TestDeferredOpenDisableCollective: the independent fallback opens
// every rank lazily and still produces the collective path's bytes.
func TestDeferredOpenDisableCollective(t *testing.T) {
	const p = 4
	sys := freeSys()
	runIO(t, p, sys, func(c *mpi.Comm) {
		f, err := Open(c, sys, "f", pfs.CreateMode, Hints{CBNodes: 1, DisableCollective: true})
		if err != nil {
			t.Error(err)
			return
		}
		if err := interleavedRoundTrip(f, c, 64); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if st := sys.Stats(); st.Opens != p || st.Closes != p {
		t.Fatalf("%d opens, %d closes, want %d each", st.Opens, st.Closes, p)
	}
}

// TestDeferredOpenMissingFileFailsEverywhere: Open has no rendezvous,
// so every rank must find out on its own that a read-only file is
// missing — members from the file system, the others from the
// existence check — before any of them enters a collective.
func TestDeferredOpenMissingFileFailsEverywhere(t *testing.T) {
	const p = 6
	for _, cb := range []int{0, 1, 3} {
		sys := freeSys()
		var mu sync.Mutex
		failed := 0
		runIO(t, p, sys, func(c *mpi.Comm) {
			f, err := Open(c, sys, "missing", pfs.ReadOnly, Hints{CBNodes: cb})
			if err == nil {
				// A rank that got a file would now enter the collective the
				// others skipped: a mismatch or a hang.
				_ = readAll(f, 0, make([]byte, 8))
				return
			}
			if !errors.Is(err, pfs.ErrNotExist) {
				t.Errorf("rank %d: %v, want ErrNotExist", c.Rank(), err)
			}
			if c.Now() != 0 {
				t.Errorf("rank %d charged %v for a failed open", c.Rank(), c.Now())
			}
			mu.Lock()
			failed++
			mu.Unlock()
		})
		if failed != p {
			t.Fatalf("CBNodes=%d: %d of %d ranks failed", cb, failed, p)
		}
		if st := sys.Stats(); st.Opens != 0 {
			t.Fatalf("CBNodes=%d: %d opens counted for a missing file", cb, st.Opens)
		}
	}
}

// TestDeferredOpenSpans: opens, views and closes are visible in the
// trace, one open and one close span per charged open.
func TestDeferredOpenSpans(t *testing.T) {
	const p = 4
	sys := pfs.NewSystem(pfs.DefaultConfig())
	tr := obs.NewTracer()
	sys.SetTracer(tr)
	runIO(t, p, sys, func(c *mpi.Comm) {
		f, err := Open(c, sys, "f", pfs.CreateMode, Hints{CBNodes: 2})
		if err != nil {
			t.Error(err)
			return
		}
		if err := interleavedRoundTrip(f, c, 64); err != nil {
			t.Error(err)
		}
		if c.Rank() == (rotOf("f", p)+3)%p {
			if err := f.WriteAt(0, make([]byte, 8)); err != nil {
				t.Error(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	count := map[string]int{}
	for _, sp := range tr.Spans() {
		if sp.Cat != "mpiio" {
			continue
		}
		key := sp.Name
		for _, kv := range sp.Args {
			if kv.Key == "member" {
				key += ":member=" + kv.Val
			}
		}
		count[key]++
		switch sp.Name {
		case "open":
			if sp.Dur() != pfs.DefaultConfig().OpenCost {
				t.Errorf("open span lasts %v", sp.Dur())
			}
		case "view":
			if sp.Dur() != pfs.DefaultConfig().ViewCost {
				t.Errorf("view span lasts %v", sp.Dur())
			}
		case "close":
			if sp.Dur() != pfs.DefaultConfig().CloseCost {
				t.Errorf("close span lasts %v", sp.Dur())
			}
		}
	}
	if count["open:member=true"] != 2 || count["open:member=false"] != 1 || count["close"] != 3 || count["view"] != p {
		t.Fatalf("span counts %v, want 2 member opens, 1 deferred open, 3 closes, %d views", count, p)
	}
}

// TestAggregatorSetScratchAllocs is the allocation guard for a scratch
// bundle shared by files whose sets start at different ranks: rotating
// the duty costs each new aggregator a handful of allocations, and once
// both rotations have warmed the bundle a further open-write-read-close
// cycle of either file allocates only its handles — nothing that grows
// with the segment count, the number of requesting ranks or, on the
// requester side, the number of aggregators a rank routes to.
func TestAggregatorSetScratchAllocs(t *testing.T) {
	const elems = 2048 // 16 KiB per rank
	for _, tc := range []struct {
		name   string
		p, set int
		unit   int64 // stripe unit hint; each rank's 16 KiB interleave over p*16 KiB
		// warm is what a warmed cycle may still allocate: world.Run's
		// goroutines and closures, one File per rank, and one pfs handle
		// per member. first is the budget of the cold cycle on top of that.
		warm, first uint64
	}{
		// One aggregator, one 64 KiB stripe (warm 26 when written). The
		// second file's aggregator is a different rank doing its first
		// duty: it must size its lists from the incoming counts — one
		// allocation each (42 in all), not the doubling series 8192
		// segments from four ranks would take.
		{"1-slot", 4, 1, 0, 8 * 4, 20},
		// Eleven aggregators over eleven 16 KiB stripes: every rank routes
		// to eleven slots carved from two backing arrays per bundle, and
		// every rank starts from a cold bundle, as requester and as
		// aggregator. 557 cold and 64 warm when written; append-doubling
		// each slot's Segs and Bufs took 2748 and 97.
		{"11-slot", 11, 11, 16 * 1024, 7 * 11, 48 * 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			names := namesWithDistinctRot(2, p)
			sys := pfs.NewSystem(pfs.Config{NumServers: 4, StripeSize: 64 * 1024})
			world := fastWorld(p)
			scratch := make([]Scratch, p)
			types := make([]*Datatype, p)
			bufs := make([][]byte, p)
			for r := range types {
				displs := make([]int, elems)
				for k := range displs {
					displs[k] = k*p + r
				}
				types[r] = IndexedBlock(1, displs, Bytes(8))
				bufs[r] = make([]byte, elems*8)
			}
			cycle := func(name string) {
				err := world.Run(func(c *mpi.Comm) {
					f, err := Open(c, sys, name, pfs.CreateMode, Hints{CBNodes: tc.set, StripingUnit: tc.unit})
					if err != nil {
						panic(err)
					}
					f.UseScratch(&scratch[c.Rank()])
					f.SetView(0, types[c.Rank()])
					if err := writeAll(f, 0, bufs[c.Rank()]); err != nil {
						panic(err)
					}
					if err := readAll(f, 0, bufs[c.Rank()]); err != nil {
						panic(err)
					}
					if n := len(f.scr().parcels); n != tc.set {
						panic(fmt.Sprintf("routed to %d slots, want %d", n, tc.set))
					}
					if err := f.Close(); err != nil {
						panic(err)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			mallocs := func(fn func()) uint64 {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				fn()
				runtime.ReadMemStats(&m1)
				return m1.Mallocs - m0.Mallocs
			}
			for _, name := range names {
				cycle(name) // lay the files' pages down, so only scratch is cold below
			}
			clear(scratch)
			cycle(names[0])
			if tc.set == p {
				clear(scratch) // every rank already served: measure a cold bundle instead
			}
			if n := mallocs(func() { cycle(names[1]) }); n > tc.warm+tc.first {
				t.Errorf("a cold aggregator's first duty allocated %d times, budget %d", n, tc.warm+tc.first)
			}
			for _, name := range names {
				if allocs := testing.AllocsPerRun(5, func() { cycle(name) }); allocs > float64(tc.warm) {
					t.Errorf("%s: %.0f allocations per warmed cycle, budget %d", name, allocs, tc.warm)
				}
			}
		})
	}
}

// TestPlacementCursor: a cursor starts where the first file's name hash
// puts it and moves each file past its set and its stripes; OpenAt opens
// on the placed ranks, creates the file with its first stripe on the
// placed server, and refuses a placement outside the world on every rank.
func TestPlacementCursor(t *testing.T) {
	const p, servers = 6, 4
	sys := freeSys()
	tr := obs.NewTracer()
	sys.SetTracer(tr)
	runIO(t, p, sys, func(c *mpi.Comm) {
		cur := NewCursor(c, sys)
		h := pfs.NameHash("a")
		want := Placement{Rank: int(h % p), Server: int(h % servers)}
		for _, step := range []struct {
			name          string
			set, stripes  int
			dRank, dServe int
		}{
			{"a", 2, 3, 2, 3},
			{"b", 0, 1, 0, 1}, // an unset CBNodes is every rank: the set wraps once
			{"c", p + 1, 5, 0, 5},
			{"d", 1, 0, 1, 0},
		} {
			if got := cur.Next(step.name, step.set, step.stripes); got != want {
				t.Errorf("rank %d: %s placed at %+v, want %+v", c.Rank(), step.name, got, want)
			}
			want = Placement{Rank: (want.Rank + step.dRank) % p, Server: (want.Server + step.dServe) % servers}
		}

		f, err := OpenAt(c, sys, "placed", pfs.CreateMode, Hints{CBNodes: 3}, Placement{Rank: 4, Server: 3})
		if err != nil {
			t.Error(err)
			return
		}
		if member := (c.Rank()-4+p)%p < 3; (f.h != nil) != member {
			t.Errorf("rank %d: opened=%v, want %v", c.Rank(), f.h != nil, member)
		}
		if c.Rank() == 4 {
			if err := f.WriteAt(0, []byte{1}); err != nil {
				t.Error(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		for _, bad := range []Placement{{Rank: -1}, {Rank: p}, {Server: -1}, {Server: servers}} {
			if _, err := OpenAt(c, sys, "bad", pfs.CreateMode, Hints{}, bad); err == nil {
				t.Errorf("rank %d: OpenAt %+v succeeded", c.Rank(), bad)
			}
		}
	})
	var served []int
	for _, sp := range tr.Spans() {
		if sp.Pid == obs.PidServers {
			served = append(served, sp.Tid)
		}
	}
	if fmt.Sprint(served) != "[3]" {
		t.Errorf("stripe 0 of the placed file served by servers %v, want [3]", served)
	}
	if sys.Exists("bad") {
		t.Error("a refused placement created its file")
	}
}
