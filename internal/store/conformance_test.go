// The conformance suite lives in an external test package so it can
// drive the objstore adapter (which imports store) next to the
// in-package backends without an import cycle.
package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"sdm/internal/store"
	"sdm/internal/store/objstore"
)

func noSleep(time.Duration) {}

// newObjBackend builds an objstore adapter over a fresh simulated
// remote, with a small part size so ordinary test objects cross
// multipart boundaries and a tiny list page so List paginates.
func newObjBackend() *objstore.Backend {
	return objstore.New(objstore.NewService(objstore.CostModel{}), objstore.Options{
		PartSize: 1024,
		PageSize: 3,
		Retry:    &store.RetryPolicy{MaxAttempts: 8, Sleep: noSleep},
	})
}

// backendsUnderTest builds one of every backend flavor, including a
// cas with a deliberately small chunk size so op sequences cross chunk
// boundaries, a disk-rooted compressed cas, a host dir (twice: once
// opened through the compatibility DirOptions entry point), the
// simulated remote object store (write-back staging + multipart
// flush), and fault-injected flavors of each family behind a retry
// layer — the conformance suite demands those behave byte- and
// error-identically to the clean backends.
func backendsUnderTest(t *testing.T) map[string]store.Backend {
	t.Helper()
	diskDir, err := store.NewDir(filepath.Join(t.TempDir(), "dir"))
	if err != nil {
		t.Fatal(err)
	}
	atomicDir, err := store.NewDirOpts(filepath.Join(t.TempDir(), "adir"), store.DirOptions{AtomicWrites: true})
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
	m := map[string]store.Backend{
		"mem":          store.NewMem(),
		"dir":          diskDir,
		"dir-atomic":   atomicDir,
		"cas":          openCAS(store.CASOptions{ChunkSize: 512}),
		"cas-disk-zip": openCAS(store.CASOptions{ChunkSize: 512, Compress: true}),
		"obj":          newObjBackend(),
	}

	// The op sequences and the injection PRNGs are both seeded, so the
	// number of injected faults per test is deterministic — the cleanup
	// assertion below cannot flake, only catch a vacuous configuration.
	var injected []*store.Faulty
	addFaulty := func(name string, inner store.Backend, seed int64) {
		f := store.NewFaulty(inner, store.FaultConfig{
			Seed:        seed,
			Transient:   0.05,
			TornWrite:   0.1,
			PartialRead: 0.1,
			Ops:         store.AllOps(),
		})
		injected = append(injected, f)
		m[name+"-faulty-retry"] = store.WithRetry(f, store.RetryPolicy{MaxAttempts: 25, NamespaceOps: true, Sleep: noSleep})
	}
	addFaulty("mem", store.NewMem(), 11)
	faultyDir, err := store.NewDir(filepath.Join(t.TempDir(), "fdir"))
	if err != nil {
		t.Fatal(err)
	}
	addFaulty("dir", faultyDir, 12)
	addFaulty("cas", openCAS(store.CASOptions{ChunkSize: 512}), 13)
	addFaulty("obj", newObjBackend(), 14)
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		var total int64
		for _, f := range injected {
			total += f.Stats().Transient
		}
		if total == 0 {
			t.Error("fault-injected flavors saw zero injected faults — conformance coverage is vacuous")
		}
	})
	return m
}

// TestConformanceScripted runs one fixed op sequence — extending
// writes, overwrites, holes, truncations both ways, short reads, a
// mid-script flush with clean rereads and re-dirtying — against every
// backend and demands byte- and error-identical results.
func TestConformanceScripted(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
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
	for name, b := range backendsUnderTest(t) {
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
		})
	}
}

// TestCrossBackendIdenticalBytes replays the same op sequence on every
// backend and checks the backends agree with each other byte for byte
// — the bundle guarantee that data written under one backend reads
// back the same under another.
func TestCrossBackendIdenticalBytes(t *testing.T) {
	backends := backendsUnderTest(t)
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
}
