package store

import "testing"

// TestDirSyncMakesRenamesAndRemovesDurable pins the directory fsync of
// a Dir to namespace changes: a bundle save's apply phase renames and
// removes objects its staging phase already synced, and those entries
// are durable only if the Sync that follows still fsyncs the root.
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
