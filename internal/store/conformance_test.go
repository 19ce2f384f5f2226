// The conformance suite lives in an external test package so it can
// drive the objstore adapter (which imports store) next to the
// in-package backends without an import cycle.
package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"sdm/internal/store"
	"sdm/internal/store/objstore"
)

// newObjBackend builds an objstore adapter over svc, with a small part
// size so ordinary test objects cross multipart boundaries and a tiny
// list page so List paginates.
func newObjBackend(svc *objstore.Service) *objstore.Backend {
	return objstore.New(svc, objstore.Options{PartSize: 1024, PageSize: 3})
}

// backendsUnderTest builds one of every backend flavor, including a
// cas with a deliberately small chunk size so op sequences cross chunk
// boundaries, a disk-rooted compressed cas, a host dir (twice: once
// opened through the compatibility DirOptions entry point), a Mem over
// an empty host dir (an opened bundle's store), and the simulated remote
// object store (write-back staging + multipart flush) twice: once over a
// clean remote and once over a remote that fails requests transiently,
// which the backend's retry loop must hide — the conformance suite
// demands that flavor behave byte- and error-identically to the clean
// backends. The second result is that faulting remote.
func backendsUnderTest(t *testing.T) (map[string]store.Backend, *objstore.Service) {
	t.Helper()
	diskDir, err := store.NewDir(filepath.Join(t.TempDir(), "dir"))
	if err != nil {
		t.Fatal(err)
	}
	atomicDir, err := store.NewDirOpts(filepath.Join(t.TempDir(), "adir"), store.DirOptions{AtomicWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	overDir, err := store.NewDir(filepath.Join(t.TempDir(), "base"))
	if err != nil {
		t.Fatal(err)
	}
	openCAS := func(opts store.CASOptions) store.Backend {
		c, err := store.OpenCAS(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	faulting := objstore.NewService(objstore.CostModel{})
	faulting.SetFaults(0.05, 14)
	return map[string]store.Backend{
		"mem":              store.NewMem(),
		"dir":              diskDir,
		"dir-atomic":       atomicDir,
		"mem-over-dir":     store.NewMemOver(overDir),
		"cas":              openCAS(store.CASOptions{ChunkSize: 512}),
		"cas-disk-zip":     openCAS(store.CASOptions{ChunkSize: 512, Compress: true}),
		"obj":              newObjBackend(objstore.NewService(objstore.CostModel{})),
		"obj-faulty-retry": newObjBackend(faulting),
	}, faulting
}

// requireInjected fails t unless the faulting remote of
// backendsUnderTest injected faults. The op sequences and the remote's
// injection PRNG are both seeded, so the count is deterministic: the
// check cannot flake, only catch a test too short to exercise the
// retry loop.
func requireInjected(t *testing.T, faulting *objstore.Service) {
	t.Helper()
	if n := faulting.Stats().TransientInjected; n == 0 {
		t.Error("the faulting remote injected zero faults — its flavor was not exercised under failure")
	} else {
		t.Logf("the faulting remote injected %d faults", n)
	}
}

// TestConformanceScripted runs one fixed op sequence — extending
// writes, overwrites, holes, truncations both ways, short reads, a
// mid-script flush with clean rereads and re-dirtying — against every
// backend and demands byte- and error-identical results.
func TestConformanceScripted(t *testing.T) {
	backends, _ := backendsUnderTest(t)
	for name, b := range backends {
		t.Run(name, func(t *testing.T) {
			if _, err := b.Open("missing"); !errors.Is(err, store.ErrNotExist) {
				t.Fatalf("Open(missing) = %v, want ErrNotExist", err)
			}
			if _, err := b.Stat("missing"); !errors.Is(err, store.ErrNotExist) {
				t.Fatalf("Stat(missing) = %v, want ErrNotExist", err)
			}
			o, err := b.Create("a")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Create("a"); !errors.Is(err, store.ErrExist) {
				t.Fatalf("second Create = %v, want ErrExist", err)
			}

			// Zero-length ops are no-ops.
			if n, err := o.ReadAt(nil, 0); n != 0 || err != nil {
				t.Fatalf("empty read = (%d, %v)", n, err)
			}
			if n, err := o.WriteAt(nil, 10); n != 0 || err != nil || o.Size() != 0 {
				t.Fatalf("empty write = (%d, %v), size %d", n, err, o.Size())
			}

			// Read on an empty object hits EOF immediately.
			buf := make([]byte, 4)
			if n, err := o.ReadAt(buf, 0); n != 0 || err != io.EOF {
				t.Fatalf("read empty = (%d, %v), want (0, EOF)", n, err)
			}

			// A write beyond the start leaves a zero hole.
			if _, err := o.WriteAt([]byte("XYZ"), 1000); err != nil {
				t.Fatal(err)
			}
			if o.Size() != 1003 {
				t.Fatalf("size = %d, want 1003", o.Size())
			}
			hole := make([]byte, 1003)
			if n, err := o.ReadAt(hole, 0); n != 1003 || err != nil {
				t.Fatalf("full read = (%d, %v)", n, err)
			}
			if !bytes.Equal(hole[:1000], make([]byte, 1000)) || string(hole[1000:]) != "XYZ" {
				t.Fatal("hole not zero-filled or payload wrong")
			}

			// Short read past EOF.
			if n, err := o.ReadAt(buf, 1001); n != 2 || err != io.EOF || string(buf[:2]) != "YZ" {
				t.Fatalf("short read = (%d, %v, %q)", n, err, buf[:n])
			}

			// Overwrite straddling the old end.
			if _, err := o.WriteAt([]byte("abcdef"), 1001); err != nil {
				t.Fatal(err)
			}
			if o.Size() != 1007 {
				t.Fatalf("size after straddle = %d", o.Size())
			}

			// A negative offset is an error, and the object is unchanged.
			if n, err := o.ReadAt(buf, -1); n != 0 || err == nil {
				t.Fatalf("read at -1 = (%d, %v), want an error", n, err)
			}
			if n, err := o.WriteAt([]byte("Q"), -1); n != 0 || err == nil || o.Size() != 1007 {
				t.Fatalf("write at -1 = (%d, %v), size %d; want an error, size 1007", n, err, o.Size())
			}
			// So is a write whose end would pass the largest offset. Only
			// overflowing ends are tried: a large valid offset would make a
			// backend allocate up to it.
			for _, off := range []int64{math.MaxInt64 - 10, math.MaxInt64} {
				if n, err := o.WriteAt(make([]byte, 100), off); n != 0 || err == nil || o.Size() != 1007 {
					t.Fatalf("write of 100 bytes at %d = (%d, %v), size %d; want an error, size 1007", off, n, err, o.Size())
				}
			}

			// Flush, then reread clean — on write-back backends this is
			// the staged-to-remote transition and the read is a ranged
			// GET — then dirty the object again and check the re-staged
			// contents merge with what was flushed.
			if err := b.Sync(); err != nil {
				t.Fatal(err)
			}
			if n, err := o.ReadAt(buf, 1001); n != 4 || err != nil || string(buf) != "abcd" {
				t.Fatalf("post-sync read = (%d, %v, %q)", n, err, buf[:n])
			}
			if sz, err := b.Stat("a"); err != nil || sz != 1007 {
				t.Fatalf("post-sync Stat = (%d, %v)", sz, err)
			}
			if _, err := o.WriteAt([]byte("AB"), 1001); err != nil {
				t.Fatal(err)
			}
			if n, err := o.ReadAt(buf, 1001); n != 4 || err != nil || string(buf) != "ABcd" {
				t.Fatalf("re-dirtied read = (%d, %v, %q)", n, err, buf[:n])
			}

			// Namespace bookkeeping.
			if _, err := b.Create("b"); err != nil {
				t.Fatal(err)
			}
			names, err := b.List()
			if err != nil || fmt.Sprint(names) != "[a b]" {
				t.Fatalf("List = %v (%v)", names, err)
			}
			if sz, err := b.Stat("a"); err != nil || sz != 1007 {
				t.Fatalf("Stat(a) = (%d, %v)", sz, err)
			}
			if err := b.Remove("b"); err != nil {
				t.Fatal(err)
			}
			if err := b.Remove("b"); !errors.Is(err, store.ErrNotExist) {
				t.Fatalf("double Remove = %v, want ErrNotExist", err)
			}
			if err := b.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConformanceRandomized drives every backend through one long
// seeded random op sequence — writes, reads, truncates, and flushes —
// while mirroring each object in a plain byte-slice reference model,
// then compares all contents.
func TestConformanceRandomized(t *testing.T) {
	const (
		ops      = 2000
		nObjects = 5
		maxSize  = 10000
	)
	backends, faulting := backendsUnderTest(t)
	for name, b := range backends {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			type modelObj struct {
				obj  store.Object
				data []byte
			}
			model := make(map[string]*modelObj)
			for i := 0; i < nObjects; i++ {
				name := fmt.Sprintf("obj%d", i)
				o, err := b.Create(name)
				if err != nil {
					t.Fatal(err)
				}
				model[name] = &modelObj{obj: o}
			}
			pick := func() *modelObj {
				return model[fmt.Sprintf("obj%d", rng.Intn(nObjects))]
			}
			for i := 0; i < ops; i++ {
				m := pick()
				switch rng.Intn(4) {
				case 0, 1: // write
					off := rng.Intn(maxSize)
					n := rng.Intn(2000) + 1
					p := make([]byte, n)
					// Half the writes are highly duplicated content, so
					// the cas path exercises both dedup and unique chunks.
					if rng.Intn(2) == 0 {
						for j := range p {
							p[j] = 0x5a
						}
					} else {
						rng.Read(p)
					}
					if _, err := m.obj.WriteAt(p, int64(off)); err != nil {
						t.Fatal(err)
					}
					if end := off + n; end > len(m.data) {
						m.data = append(m.data, make([]byte, end-len(m.data))...)
					}
					copy(m.data[off:], p)
				case 2: // read and compare
					off := rng.Intn(maxSize)
					n := rng.Intn(3000) + 1
					got := make([]byte, n)
					gn, gerr := m.obj.ReadAt(got, int64(off))
					want := make([]byte, n)
					wn := 0
					if off < len(m.data) {
						wn = copy(want, m.data[off:])
					}
					wantErr := wn < n
					if gn != wn || (gerr == io.EOF) != wantErr || (gerr != nil && gerr != io.EOF) {
						t.Fatalf("op %d: ReadAt(%d,%d) = (%d, %v), want (%d, eof=%v)",
							i, off, n, gn, gerr, wn, wantErr)
					}
					if !bytes.Equal(got[:gn], want[:wn]) {
						t.Fatalf("op %d: read bytes diverge from model", i)
					}
				case 3: // flush — write-back backends push staged state remote
					if err := b.Sync(); err != nil {
						t.Fatalf("op %d: Sync: %v", i, err)
					}
				}
				if m.obj.Size() != int64(len(m.data)) {
					t.Fatalf("op %d: size %d, model %d", i, m.obj.Size(), len(m.data))
				}
			}
			for name, m := range model {
				got := make([]byte, len(m.data))
				if len(got) > 0 {
					if _, err := m.obj.ReadAt(got, 0); err != nil && err != io.EOF {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got, m.data) {
					t.Fatalf("%s: final contents diverge from model", name)
				}
			}
			if b == backends["obj-faulty-retry"] {
				requireInjected(t, faulting)
			}
		})
	}
}

// TestCrossBackendIdenticalBytes replays the same op sequence on every
// backend and checks the backends agree with each other byte for byte
// — the bundle guarantee that data written under one backend reads
// back the same under another.
func TestCrossBackendIdenticalBytes(t *testing.T) {
	backends, faulting := backendsUnderTest(t)
	results := make(map[string][]byte)
	for name, b := range backends {
		o, err := b.Create("x")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			p := make([]byte, rng.Intn(1500)+1)
			rng.Read(p)
			if _, err := o.WriteAt(p, int64(rng.Intn(20000))); err != nil {
				t.Fatal(err)
			}
			if i%53 == 0 {
				if err := b.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, o.Size())
		if _, err := o.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		results[name] = buf
	}
	ref := results["mem"]
	for name, got := range results {
		if !bytes.Equal(got, ref) {
			t.Errorf("%s bytes differ from mem reference (%d vs %d bytes)", name, len(got), len(ref))
		}
	}
	requireInjected(t, faulting)
}

// TestConformanceSelfRename: renaming an object onto its own name
// leaves it as it was, and renaming a missing one onto itself is
// ErrNotExist. On the object store this is checked twice, through the
// Backend that holds the object's handle and through a fresh Backend
// over the same remote, which knows the object only remotely.
func TestConformanceSelfRename(t *testing.T) {
	check := func(t *testing.T, b store.Backend) {
		t.Helper()
		if err := b.Rename("x", "x"); err != nil {
			t.Fatalf("Rename(x, x) = %v", err)
		}
		if sz, err := b.Stat("x"); sz != 5 || err != nil {
			t.Fatalf("Stat(x) after self-rename = (%d, %v)", sz, err)
		}
		o, err := b.Open("x")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 5)
		if n, err := o.ReadAt(buf, 0); n != 5 || err != nil || string(buf) != "hello" {
			t.Fatalf("read after self-rename = (%d, %v, %q)", n, err, buf[:n])
		}
		if names, err := b.List(); err != nil || fmt.Sprint(names) != "[x]" {
			t.Fatalf("List after self-rename = %v (%v)", names, err)
		}
		if err := b.Rename("missing", "missing"); !errors.Is(err, store.ErrNotExist) {
			t.Fatalf("Rename(missing, missing) = %v, want ErrNotExist", err)
		}
	}
	create := func(t *testing.T, b store.Backend) {
		t.Helper()
		o, err := b.Create("x")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.WriteAt([]byte("hello"), 0); err != nil {
			t.Fatal(err)
		}
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	backends, _ := backendsUnderTest(t)
	for name, b := range backends {
		t.Run(name, func(t *testing.T) {
			create(t, b)
			check(t, b)
		})
	}
	t.Run("obj-fresh-backend", func(t *testing.T) {
		svc := objstore.NewService(objstore.CostModel{})
		create(t, newObjBackend(svc))
		check(t, newObjBackend(svc))
	})
}

// TestConformanceFarWrite: on the in-memory flavours, a write at 1 TiB
// holds one page, not the hole before it, and reads back beside a
// zero-filled hole. (The other flavours are left out on purpose: a cas
// keeps a slot per chunk of the hole, and a host file or a staged remote
// object may not be sparse.)
func TestConformanceFarWrite(t *testing.T) {
	const off = 1 << 40
	backends, _ := backendsUnderTest(t)
	for _, name := range []string{"mem", "mem-over-dir"} {
		b := backends[name]
		t.Run(name, func(t *testing.T) {
			o, err := b.Create("far")
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := o.WriteAt([]byte("far"), off); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2*64<<10 {
				t.Errorf("a 3-byte write at %d allocated %d bytes, want one 64 KiB page", off, grew)
			}
			if sz := o.Size(); sz != off+3 {
				t.Fatalf("size = %d, want %d", sz, off+3)
			}
			buf := make([]byte, 8)
			if n, err := o.ReadAt(buf, off-5); n != 8 || err != nil || string(buf) != "\x00\x00\x00\x00\x00far" {
				t.Fatalf("read across the hole's end = (%d, %v, %q)", n, err, buf[:n])
			}
		})
	}
}
