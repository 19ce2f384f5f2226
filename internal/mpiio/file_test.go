package mpiio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"sdm/internal/mpi"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

func freeSys() *pfs.System {
	return pfs.NewSystem(pfs.Config{NumServers: 4, StripeSize: 4096})
}

func fastWorld(n int) *mpi.World { return mpi.NewWorld(n, mpi.Config{}) }

func runIO(t *testing.T, n int, sys *pfs.System, fn func(*mpi.Comm)) {
	t.Helper()
	if err := fastWorld(n).Run(fn); err != nil {
		t.Fatal(err)
	}
}

func TestIndependentWriteReadThroughView(t *testing.T) {
	sys := freeSys()
	runIO(t, 1, sys, func(c *mpi.Comm) {
		f, err := Open(c, sys, "v", pfs.CreateMode, Hints{})
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		// View: elements at global slots 3, 1 (8-byte each).
		f.SetView(0, IndexedBlock(1, []int{3, 1}, Bytes(8)))
		data := []byte{1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2}
		if err := f.WriteAt(0, data); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 16)
		if err := f.ReadAt(0, got); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Errorf("round trip = %v", got)
		}
	})
	// Raw file layout: slot 1 holds the 1s (sorted first), slot 3 the 2s.
	raw, err := sys.ReadFile("v")
	if err != nil {
		t.Fatal(err)
	}
	if raw[8] != 1 || raw[24] != 2 {
		t.Fatalf("physical layout wrong: % x", raw)
	}
	if len(raw) != 32 {
		t.Fatalf("file size %d", len(raw))
	}
}

func TestCollectiveWriteMatchesIndependent(t *testing.T) {
	// Both paths must produce byte-identical files.
	mkData := func(rank int) []byte {
		buf := make([]byte, 64)
		for i := range buf {
			buf[i] = byte(rank*37 + i)
		}
		return buf
	}
	write := func(collective bool) []byte {
		sys := freeSys()
		world := fastWorld(4)
		_ = world.Run(func(c *mpi.Comm) {
			f, _ := Open(c, sys, "f", pfs.CreateMode, Hints{DisableCollective: !collective})
			defer f.Close()
			// Interleaved round-robin view per rank: element i of rank r
			// lands at global slot i*4+r (8-byte elements).
			displs := make([]int, 8)
			for i := range displs {
				displs[i] = i*4 + c.Rank()
			}
			f.SetView(0, IndexedBlock(1, displs, Bytes(8)))
			if err := writeAll(f, 0, mkData(c.Rank())); err != nil {
				t.Error(err)
			}
		})
		data, _ := sys.ReadFile("f")
		return data
	}
	coll, ind := write(true), write(false)
	if !bytes.Equal(coll, ind) {
		t.Fatal("collective and independent writes differ")
	}
	if len(coll) != 4*64 {
		t.Fatalf("file size %d", len(coll))
	}
}

func TestCollectiveReadMatchesWrite(t *testing.T) {
	sys := freeSys()
	world := fastWorld(3)
	var wrote, read [3][]byte
	_ = world.Run(func(c *mpi.Comm) {
		f, _ := Open(c, sys, "f", pfs.CreateMode, Hints{})
		defer f.Close()
		displs := make([]int, 10)
		for i := range displs {
			displs[i] = i*3 + c.Rank()
		}
		f.SetView(0, IndexedBlock(1, displs, Bytes(8)))
		buf := make([]byte, 80)
		for i := range buf {
			buf[i] = byte(c.Rank()*91 + i)
		}
		wrote[c.Rank()] = buf
		if err := writeAll(f, 0, buf); err != nil {
			t.Error(err)
		}
		got := make([]byte, 80)
		if err := readAll(f, 0, got); err != nil {
			t.Error(err)
		}
		read[c.Rank()] = got
	})
	for r := range wrote {
		if !bytes.Equal(wrote[r], read[r]) {
			t.Fatalf("rank %d read back different data", r)
		}
	}
}

func TestCollectiveWithIdleRanks(t *testing.T) {
	// Ranks with no data still participate in the collective.
	sys := freeSys()
	runIO(t, 4, sys, func(c *mpi.Comm) {
		f, _ := Open(c, sys, "f", pfs.CreateMode, Hints{})
		defer f.Close()
		if c.Rank() == 2 {
			f.SetView(0, Bytes(16))
			if err := writeAll(f, 0, []byte("0123456789abcdef")); err != nil {
				t.Error(err)
			}
		} else {
			f.SetView(0, Bytes(16))
			if err := writeAll(f, 0, nil); err != nil {
				t.Error(err)
			}
		}
	})
	data, _ := sys.ReadFile("f")
	if string(data) != "0123456789abcdef" {
		t.Fatalf("file = %q", data)
	}
}

func TestCollectiveAllEmpty(t *testing.T) {
	sys := freeSys()
	runIO(t, 3, sys, func(c *mpi.Comm) {
		f, _ := Open(c, sys, "f", pfs.CreateMode, Hints{})
		defer f.Close()
		if err := writeAll(f, 0, nil); err != nil {
			t.Error(err)
		}
		if err := readAll(f, 0, nil); err != nil {
			t.Error(err)
		}
	})
}

func TestReadAtAllZeroFillsPastEOF(t *testing.T) {
	sys := freeSys()
	_ = sys.WriteFile("f", bytes.NewReader([]byte{9, 9}))
	runIO(t, 2, sys, func(c *mpi.Comm) {
		f, _ := Open(c, sys, "f", pfs.ReadOnly, Hints{})
		defer f.Close()
		buf := []byte{7, 7, 7, 7}
		if err := readAll(f, int64(c.Rank())*4, buf); err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 && (buf[0] != 9 || buf[2] != 0) {
			t.Errorf("rank 0 buf = %v", buf)
		}
		if c.Rank() == 1 {
			for _, b := range buf {
				if b != 0 {
					t.Errorf("rank 1 buf = %v", buf)
					break
				}
			}
		}
	})
}

func TestFewerAggregatorsThanRanks(t *testing.T) {
	sys := freeSys()
	runIO(t, 4, sys, func(c *mpi.Comm) {
		f, _ := Open(c, sys, "f", pfs.CreateMode, Hints{CBNodes: 2})
		defer f.Close()
		buf := make([]byte, 1000)
		for i := range buf {
			buf[i] = byte(c.Rank() + 1)
		}
		if err := writeAll(f, int64(c.Rank())*1000, buf); err != nil {
			t.Error(err)
		}
	})
	data, _ := sys.ReadFile("f")
	if len(data) != 4000 {
		t.Fatalf("size %d", len(data))
	}
	for r := 0; r < 4; r++ {
		if data[r*1000] != byte(r+1) || data[r*1000+999] != byte(r+1) {
			t.Fatalf("rank %d region corrupted", r)
		}
	}
}

func TestAggregatorRunIsOneRequest(t *testing.T) {
	// With the vectored file-system interface, an aggregator run is one
	// request however large it is: the run reaches the file system as a
	// single contiguous stripe span, not as staging-buffer-sized chunks.
	sys := freeSys()
	runIO(t, 2, sys, func(c *mpi.Comm) {
		f, _ := Open(c, sys, "f", pfs.CreateMode, Hints{})
		defer f.Close()
		buf := make([]byte, 4096)
		for i := range buf {
			buf[i] = byte(c.Rank()*3 + 1)
		}
		if err := writeAll(f, int64(c.Rank())*4096, buf); err != nil {
			t.Error(err)
		}
	})
	st := sys.Stats()
	if st.WriteReqs > 4 { // one vectored request per aggregator run
		t.Fatalf("WriteReqs = %d, want <= 4 with vectored aggregator writes", st.WriteReqs)
	}
	data, _ := sys.ReadFile("f")
	if len(data) != 8192 || data[0] != 1 || data[8191] != 4 {
		t.Fatalf("content corrupted: len=%d", len(data))
	}
}

func TestCollectiveCoalescesRequests(t *testing.T) {
	// 4 ranks interleave 8-byte elements. Independent I/O would make
	// hundreds of requests; two-phase should make only a few large ones.
	countReqs := func(disable bool) int64 {
		sys := freeSys()
		_ = fastWorld(4).Run(func(c *mpi.Comm) {
			f, _ := Open(c, sys, "f", pfs.CreateMode, Hints{DisableCollective: disable})
			defer f.Close()
			displs := make([]int, 128)
			for i := range displs {
				displs[i] = i*4 + c.Rank()
			}
			f.SetView(0, IndexedBlock(1, displs, Bytes(8)))
			_ = writeAll(f, 0, make([]byte, 1024))
		})
		return sys.Stats().WriteReqs
	}
	coll := countReqs(false)
	ind := countReqs(true)
	if coll*10 > ind {
		t.Fatalf("two-phase made %d requests vs %d independent; expected >=10x reduction", coll, ind)
	}
}

func TestViewCostCharged(t *testing.T) {
	cfg := pfs.Config{NumServers: 1, StripeSize: 1024, ViewCost: 1000}
	sys := pfs.NewSystem(cfg)
	runIO(t, 1, sys, func(c *mpi.Comm) {
		f, _ := Open(c, sys, "f", pfs.CreateMode, Hints{})
		defer f.Close()
		before := c.Now()
		f.SetView(0, Bytes(8))
		if c.Now()-before != 1000 {
			t.Errorf("view cost not charged: %v", c.Now()-before)
		}
	})
}

// TestViewFlattenedOncePerRank: a rank pays the view-definition cost the
// first time it installs a datatype, whatever file and displacement it
// installs it on, and only then; a second datatype is a second flatten,
// and a contiguous view (nil filetype) is charged at every install. A
// datatype shared by rank goroutines is charged to each rank exactly
// once, and installing one allocates nothing, the first time or later.
func TestViewFlattenedOncePerRank(t *testing.T) {
	const cost = 1000
	traced := func() (*pfs.System, *obs.Tracer) {
		sys := pfs.NewSystem(pfs.Config{NumServers: 2, StripeSize: 1024, ViewCost: cost})
		tr := obs.NewTracer()
		sys.SetTracer(tr)
		return sys, tr
	}
	viewSpans := func(tr *obs.Tracer) map[int]int { // per rank lane
		n := map[int]int{}
		for _, sp := range tr.Spans() {
			if sp.Cat == "mpiio" && sp.Name == "view" {
				if sp.Dur() != cost {
					t.Errorf("view span lasts %v, want %v", sp.Dur(), sim.Duration(cost))
				}
				n[sp.Pid]++
			}
		}
		return n
	}
	openN := func(c *mpi.Comm, sys *pfs.System, n int) []*File {
		files := make([]*File, n)
		for i := range files {
			f, err := Open(c, sys, fmt.Sprintf("f%d", i), pfs.CreateMode, Hints{})
			if err != nil {
				panic(err)
			}
			files[i] = f
		}
		return files
	}

	t.Run("one rank", func(t *testing.T) {
		sys, tr := traced()
		runIO(t, 1, sys, func(c *mpi.Comm) {
			files := openN(c, sys, 4)
			dt := IndexedBlock(1, []int{0, 2}, Bytes(8))
			for i, f := range files {
				before := c.Now()
				f.SetView(int64(i)*4096, dt)
				want := sim.Duration(0)
				if i == 0 {
					want = cost
				}
				if got := c.Now().Sub(before); got != want {
					t.Errorf("install %d of one datatype charged %v, want %v", i, got, want)
				}
			}
			if v := sys.Stats().Views; v != 1 {
				t.Errorf("one datatype over 4 files: %d views, want 1", v)
			}
			before := c.Now()
			files[0].SetView(0, Resized(dt, 64))
			files[1].SetView(0, Resized(dt, 64))
			if got := c.Now().Sub(before); got != 2*cost {
				t.Errorf("two new datatypes charged %v, want %v", got, sim.Duration(2*cost))
			}
			before = c.Now()
			files[2].SetView(0, nil)
			files[2].SetView(0, nil)
			files[3].SetView(0, nil)
			if got := c.Now().Sub(before); got != 3*cost {
				t.Errorf("three contiguous views charged %v, want %v", got, sim.Duration(3*cost))
			}
			for _, f := range files {
				_ = f.Close()
			}
		})
		if v := sys.Stats().Views; v != 6 {
			t.Errorf("%d views counted, want 6", v)
		}
		if n := viewSpans(tr); n[obs.PidRank(0)] != 6 || len(n) != 1 {
			t.Errorf("view spans %v, want 6 on rank 0's lane", n)
		}
	})

	t.Run("shared by two ranks", func(t *testing.T) {
		sys, tr := traced()
		dt := IndexedBlock(1, []int{1, 3}, Bytes(8))
		runIO(t, 2, sys, func(c *mpi.Comm) {
			files := openN(c, sys, 3)
			for i, f := range files {
				f.SetView(int64(i)*64, dt)
			}
			if c.Now() != cost {
				t.Errorf("rank %d: charged %v for one datatype on 3 files, want %v", c.Rank(), c.Now(), sim.Duration(cost))
			}
			for _, f := range files {
				_ = f.Close()
			}
		})
		if v := sys.Stats().Views; v != 2 {
			t.Errorf("%d views counted, want 2 (one per rank)", v)
		}
		if n := viewSpans(tr); n[obs.PidRank(0)] != 1 || n[obs.PidRank(1)] != 1 || len(n) != 2 {
			t.Errorf("view spans %v, want one per rank", n)
		}
	})

	t.Run("allocation-free", func(t *testing.T) {
		sys := pfs.NewSystem(pfs.Config{NumServers: 2, StripeSize: 1024, ViewCost: cost})
		fresh := make([]*Datatype, 201)
		for i := range fresh {
			fresh[i] = Bytes(8)
		}
		runIO(t, 1, sys, func(c *mpi.Comm) {
			f := openN(c, sys, 1)[0]
			defer f.Close()
			next := 0
			if n := testing.AllocsPerRun(100, func() { f.SetView(0, fresh[next]); next++ }); n != 0 {
				t.Errorf("a first install allocates %v times", n)
			}
			if n := testing.AllocsPerRun(100, func() { f.SetView(0, fresh[0]) }); n != 0 {
				t.Errorf("a repeat install allocates %v times", n)
			}
		})
	})
}

func TestOpenMissing(t *testing.T) {
	sys := freeSys()
	w := fastWorld(1)
	err := w.Run(func(c *mpi.Comm) {
		if _, err := Open(c, sys, "missing", pfs.ReadOnly, Hints{}); err == nil {
			t.Error("open of missing file succeeded")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: for random interleaved layouts and rank counts, collective
// write followed by collective read is the identity, and the physical
// file equals a serially computed reference.
func TestTwoPhaseRandomLayoutsProperty(t *testing.T) {
	f := func(seed int64, nRanksRaw, elemsRaw uint8) bool {
		nRanks := int(nRanksRaw%4) + 1
		elemsPerRank := int(elemsRaw%32) + 1
		total := nRanks * elemsPerRank
		// Build a random permutation of global slots deterministically.
		perm := make([]int, total)
		for i := range perm {
			perm[i] = i
		}
		s := seed
		for i := total - 1; i > 0; i-- {
			s = s*6364136223846793005 + 1442695040888963407
			j := int(uint64(s) % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		ref := make([]byte, total*8)
		sys := freeSys()
		world := fastWorld(nRanks)
		ok := true
		err := world.Run(func(c *mpi.Comm) {
			f, _ := Open(c, sys, "f", pfs.CreateMode, Hints{})
			defer f.Close()
			displs := perm[c.Rank()*elemsPerRank : (c.Rank()+1)*elemsPerRank]
			f.SetView(0, IndexedBlock(1, displs, Bytes(8)))
			buf := make([]byte, elemsPerRank*8)
			// Value = global slot index, so the reference is easy: the
			// sorted displacements determine which value lands where.
			sorted := append([]int{}, displs...)
			for i := 0; i < len(sorted); i++ {
				for j := i + 1; j < len(sorted); j++ {
					if sorted[j] < sorted[i] {
						sorted[i], sorted[j] = sorted[j], sorted[i]
					}
				}
			}
			for i, g := range sorted {
				binary.LittleEndian.PutUint64(buf[i*8:], uint64(g))
			}
			if err := writeAll(f, 0, buf); err != nil {
				ok = false
			}
			got := make([]byte, len(buf))
			if err := readAll(f, 0, got); err != nil {
				ok = false
			}
			if !bytes.Equal(got, buf) {
				ok = false
			}
		})
		if err != nil || !ok {
			return false
		}
		for g := 0; g < total; g++ {
			binary.LittleEndian.PutUint64(ref[g*8:], uint64(g))
		}
		data, _ := sys.ReadFile("f")
		return bytes.Equal(data, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReopenMatchesFreshOpen runs one sequence of opens, each a file
// with its own name, placement, mode, aggregator set and view, on two
// twin systems: on one every rank reopens a single File after closing
// it, on the other every open is a fresh OpenAt. The file contents, the
// bytes each read returns, every rank's clock and the file systems'
// counters must be the same.
func TestReopenMatchesFreshOpen(t *testing.T) {
	const p, elems = 6, 300
	type access struct {
		name  string
		mode  pfs.Mode
		hints Hints
		at    Placement
		disp  int64
		block bool // each rank's elements are one block, not round-robin
		write bool
		indep bool // one rank outside the set also writes independently
	}
	seq := []access{
		{name: "a", mode: pfs.CreateMode, hints: Hints{CBNodes: 2, StripingUnit: 4096}, at: Placement{Rank: 1, Server: 2}, write: true},
		{name: "b", mode: pfs.CreateMode, hints: Hints{CBNodes: 3}, at: Placement{Rank: 4, Server: 0}, disp: 512, block: true, write: true, indep: true},
		{name: "a", mode: pfs.ReadOnly, at: Placement{Rank: 2, Server: 1}},
		{name: "b", mode: pfs.ReadWrite, hints: Hints{CBNodes: 1}, at: Placement{Rank: 0, Server: 3}, disp: 512, block: true},
	}
	view := func(c *mpi.Comm, a access) *Datatype {
		displs := make([]int, elems)
		for k := range displs {
			if a.block {
				displs[k] = c.Rank()*elems + k
			} else {
				displs[k] = k*c.Size() + c.Rank()
			}
		}
		return IndexedBlock(1, displs, Bytes(8))
	}
	type result struct {
		clocks [p]sim.Time
		reads  [p][][]byte
		stats  pfs.Stats
		files  map[string][]byte
	}
	run := func(reopen bool) result {
		cfg := pfs.DefaultConfig()
		cfg.NumServers = 4
		sys := pfs.NewSystem(cfg)
		var res result
		err := mpi.NewWorld(p, mpi.DefaultConfig()).Run(func(c *mpi.Comm) {
			var sc Scratch
			var f *File
			for i, a := range seq {
				var err error
				if reopen && f != nil {
					err = f.Reopen(a.name, a.mode, a.hints, a.at)
				} else if f, err = OpenAt(c, sys, a.name, a.mode, a.hints, a.at); err == nil {
					f.UseScratch(&sc)
				}
				if err != nil {
					t.Errorf("rank %d, access %d: %v", c.Rank(), i, err)
					return
				}
				dt := view(c, a)
				f.SetView(a.disp, dt)
				buf := make([]byte, elems*8)
				if a.write {
					for k := range buf {
						buf[k] = byte(i*31 + c.Rank()*7 + k)
					}
					err = f.WriteAtAllOps([]BatchOp{{Disp: a.disp, Type: dt, Data: buf}})
					if err == nil && a.indep && c.Rank() == (a.at.Rank+a.hints.CBNodes)%p {
						err = f.WriteAt(int64(len(buf)), buf[:64])
					}
				} else {
					err = f.ReadAtAllOps([]BatchOp{{Disp: a.disp, Type: dt, Data: buf}})
					res.reads[c.Rank()] = append(res.reads[c.Rank()], buf)
				}
				if err == nil {
					err = f.Close()
				}
				if err != nil {
					t.Errorf("rank %d, access %d: %v", c.Rank(), i, err)
					return
				}
			}
			res.clocks[c.Rank()] = c.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		res.stats = sys.Stats()
		res.files = map[string][]byte{}
		for _, name := range sys.List() {
			if res.files[name], err = sys.ReadFile(name); err != nil {
				t.Fatal(err)
			}
		}
		return res
	}
	fresh, reused := run(false), run(true)
	if reused.clocks != fresh.clocks {
		t.Errorf("rank clocks: reopened %v, fresh %v", reused.clocks, fresh.clocks)
	}
	if reused.stats != fresh.stats {
		t.Errorf("pfs.Stats: reopened %+v, fresh %+v", reused.stats, fresh.stats)
	}
	if len(fresh.files) != 2 || !reflect.DeepEqual(reused.files, fresh.files) {
		t.Errorf("files differ: reopened %d, fresh %d", len(reused.files), len(fresh.files))
	}
	if !reflect.DeepEqual(reused.reads, fresh.reads) {
		t.Error("reads through a reopened File returned other bytes than through fresh ones")
	}
}
