package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sdm/internal/store"
	"sdm/internal/store/objstore"
)

// durableBases builds, per kind, a function that opens a fresh instance
// of one durable store: a Dir and a CAS over one root, an objstore
// adapter over one simulated remote. A fresh instance sees exactly what
// earlier instances made durable.
func durableBases(t *testing.T) map[string]func() store.Backend {
	t.Helper()
	dirRoot, casRoot := t.TempDir(), t.TempDir()
	svc := objstore.NewService(objstore.CostModel{})
	return map[string]func() store.Backend{
		"dir": func() store.Backend {
			d, err := store.NewDir(dirRoot)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"cas": func() store.Backend {
			c, err := store.OpenCAS(casRoot, store.CASOptions{ChunkSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
		"obj": func() store.Backend {
			return objstore.New(svc, objstore.Options{PartSize: 8})
		},
	}
}

// contents reads every object of b by name.
func contents(t *testing.T, b store.Backend) map[string]string {
	t.Helper()
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, n := range names {
		o, err := b.Open(n)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, o.Size())
		if _, err := o.ReadAt(buf, 0); err != nil && len(buf) > 0 {
			t.Fatal(err)
		}
		if sz, err := b.Stat(n); err != nil || sz != int64(len(buf)) {
			t.Fatalf("Stat(%q) = (%d, %v), Open sees %d bytes", n, sz, err, len(buf))
		}
		out[n] = string(buf)
	}
	return out
}

// TestMemOverBaseLeavesBase: a Mem over a Dir, a CAS or an objstore base
// shows a Create, an append to and an overwrite of base objects, a
// Remove, and a Rename of a base object and of a new one through Stat,
// List and Open — while the base is only ever opened, listed, statted
// and read: its List and bytes, seen by a fresh instance (for obj, the
// remote's blobs), stay as saved, and nothing is synced.
func TestMemOverBaseLeavesBase(t *testing.T) {
	saved := map[string]string{"a": "a-saved-bytes", "b": "b-saved-bytes", "c": "c-saved", "d": "d-saved-bytes"}
	for kind, open := range durableBases(t) {
		t.Run(kind, func(t *testing.T) {
			seed := open()
			for name, data := range saved {
				o, err := seed.Create(name)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := o.WriteAt([]byte(data), 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := seed.Sync(); err != nil {
				t.Fatal(err)
			}

			base := open()
			m := store.NewMemOver(store.Wrap(base, func(c store.Call) (int, error) {
				switch c.Op {
				case store.OpCreate, store.OpWrite, store.OpRemove, store.OpRename, store.OpSync:
					t.Errorf("the Mem ran %v on its base", c.Op)
				}
				return c.Do()
			}))
			o, err := m.Create("new")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.WriteAt([]byte("new-bytes"), 0); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Create("a"); !errors.Is(err, store.ErrExist) {
				t.Fatalf("Create of a base name = %v, want ErrExist", err)
			}
			a, err := m.Open("a")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.WriteAt([]byte("+more"), a.Size()); err != nil {
				t.Fatal(err)
			}
			b, err := m.Open("b")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.WriteAt([]byte("B"), 0); err != nil {
				t.Fatal(err)
			}
			if err := m.Remove("c"); err != nil {
				t.Fatal(err)
			}
			if err := m.Rename("d", "d2"); err != nil {
				t.Fatal(err)
			}
			if err := m.Rename("new", "new2"); err != nil {
				t.Fatal(err)
			}
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}

			want := map[string]string{"a": "a-saved-bytes+more", "b": "B-saved-bytes", "d2": "d-saved-bytes", "new2": "new-bytes"}
			if got := contents(t, m); !reflect.DeepEqual(got, want) {
				t.Errorf("the Mem shows %v, want %v", got, want)
			}
			for _, gone := range []string{"c", "d", "new"} {
				if _, err := m.Stat(gone); !errors.Is(err, store.ErrNotExist) {
					t.Errorf("Stat(%q) = %v, want ErrNotExist", gone, err)
				}
				if _, err := m.Open(gone); !errors.Is(err, store.ErrNotExist) {
					t.Errorf("Open(%q) = %v, want ErrNotExist", gone, err)
				}
				if err := m.Remove(gone); !errors.Is(err, store.ErrNotExist) {
					t.Errorf("Remove(%q) = %v, want ErrNotExist", gone, err)
				}
			}
			if _, err := m.Create("c"); err != nil {
				t.Errorf("Create over a removed base name = %v", err)
			}

			if names, err := base.List(); err != nil || fmt.Sprint(names) != "[a b c d]" {
				t.Errorf("the base lists %v (%v), want [a b c d]", names, err)
			}
			if got := contents(t, open()); !reflect.DeepEqual(got, saved) {
				t.Errorf("the base holds %v, want %v", got, saved)
			}
		})
	}
}

// TestMemOverCopyUpBesideReader: a reader of a base object beside its
// first write sees the saved bytes or the written ones, never a mix, and
// the swap from base object to memory copy is race-free.
func TestMemOverCopyUpBesideReader(t *testing.T) {
	base, err := store.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	saved := bytes.Repeat([]byte("s"), 3<<16+100)
	o, err := base.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt(saved, 0); err != nil {
		t.Fatal(err)
	}
	m := store.NewMemOver(base)
	f, err := m.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	written := bytes.Clone(saved)
	written[len(written)-1] = 'w'
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, len(saved))
		for range 50 {
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf, saved) && !bytes.Equal(buf, written) {
				t.Error("a read beside the first write saw neither the saved nor the written bytes")
				return
			}
		}
	}()
	if _, err := f.WriteAt([]byte("w"), int64(len(saved)-1)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestMemAllocsPerOp: a Mem without a base allocates nothing to open,
// stat or remove an object it holds.
func TestMemAllocsPerOp(t *testing.T) {
	const runs = 100
	m := store.NewMem()
	names := make([]string, runs+2)
	for i := range names {
		names[i] = fmt.Sprint(i)
		if _, err := m.Create(names[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	for op, f := range map[string]func(){
		"Open": func() { m.Open("0") },
		"Stat": func() { m.Stat("0") },
		"Remove": func() {
			i++
			m.Remove(names[i])
		},
	} {
		if n := testing.AllocsPerRun(runs, f); n != 0 {
			t.Errorf("%s allocates %v times, want 0", op, n)
		}
	}
}

// TestMemOnePageObjectAllocs: a Mem object of one page costs two
// allocations, the object and its page; the page map comes only with a
// page past the first.
func TestMemOnePageObjectAllocs(t *testing.T) {
	const runs = 100
	m := store.NewMem()
	names := make([]string, runs+1)
	for i := range names {
		names[i] = fmt.Sprint(i)
	}
	p := bytes.Repeat([]byte{1}, 39<<10)
	i := 0
	n := testing.AllocsPerRun(runs, func() {
		o, err := m.Create(names[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.WriteAt(p, 0); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n != 2 {
		t.Errorf("a one-page object allocates %v times, want 2", n)
	}
}
