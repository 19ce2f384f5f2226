package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestDirSyncMakesRenamesAndRemovesDurable pins the directory fsync of
// a Dir to namespace changes, not to pending objects: a bundle
// save's apply phase renames and removes objects its staging phase
// already promoted, and those entries are durable only if the Sync
// that follows still fsyncs the root.
func TestDirSyncMakesRenamesAndRemovesDurable(t *testing.T) {
	calls := 0
	real := Fsync
	Fsync = func(dir string) error { calls++; return real(dir) }
	defer func() { Fsync = real }()

	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sync := func(what string, want int) {
		t.Helper()
		calls = 0
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if calls != want {
			t.Errorf("Sync after %s fsynced the root %d time(s), want %d", what, calls, want)
		}
	}
	for _, name := range []string{"staged", "stale"} {
		o, err := d.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.WriteAt([]byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	sync("Create", 1)
	if err := d.Rename("staged", "final"); err != nil {
		t.Fatal(err)
	}
	sync("Rename of a promoted object", 1)
	sync("no change", 0)
	if err := d.Remove("stale"); err != nil {
		t.Fatal(err)
	}
	sync("Remove of a promoted object", 1)
	sync("no change", 0)
}

// TestDirWritesReachFilesOnlyAtSync: a Dir reopened over saved files —
// a later process — reads them in place, but its first write to one
// stages a copy, so the file keeps its bytes until Sync; until then the
// Dir itself sees the staged bytes and lists the object once.
func TestDirWritesReachFilesOnlyAtSync(t *testing.T) {
	root := t.TempDir()
	saved, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		o, err := saved.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.WriteAt([]byte(name+"-saved"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := saved.Sync(); err != nil {
		t.Fatal(err)
	}
	onDisk := func(name string) string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	d, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	o, err := d.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt([]byte("+more"), o.Size()); err != nil {
		t.Fatal(err)
	}
	if got := onDisk("a"); got != "a-saved" {
		t.Fatalf("a write before Sync reached the file: %q", got)
	}
	got := make([]byte, o.Size())
	if _, err := o.ReadAt(got, 0); err != nil || string(got) != "a-saved+more" {
		t.Fatalf("staged read = %q (%v)", got, err)
	}
	if again, err := d.Open("a"); err != nil || again != o {
		t.Fatalf("Open of a staged object = %v (%v), want the staged object", again, err)
	}
	if sz, err := d.Stat("a"); err != nil || sz != int64(len("a-saved+more")) {
		t.Fatalf("Stat(a) = (%d, %v)", sz, err)
	}
	if names, err := d.List(); err != nil || fmt.Sprint(names) != "[a b]" {
		t.Fatalf("List = %v (%v)", names, err)
	}
	if _, err := o.WriteAt([]byte("A"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := onDisk("a"); got != "A-saved+more" {
		t.Fatalf("after Sync the file holds %q, want %q", got, "A-saved+more")
	}

	// Removing a staged object removes its saved file too.
	if o, err = d.Open("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt([]byte("B"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Stat("b"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Stat of a removed object = %v, want ErrNotExist", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "a" {
		t.Fatalf("root holds %v, want only a", entries)
	}
}
