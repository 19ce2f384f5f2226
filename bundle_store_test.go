package sdm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdm/internal/obs"
	"sdm/internal/store"
	"sdm/internal/store/objstore"
)

// TestMeteredObjectIOAllocatesNothing pins the one wrapper's data path:
// the meter stays installed beneath an opened bundle's file system, so
// every restart and serve read goes through it.
func TestMeteredObjectIOAllocatesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	b := store.Wrap(store.NewMem(), meterHook(reg))
	o, err := b.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := o.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := o.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := o.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a metered WriteAt + ReadAt allocates %.0f objects, want 0", allocs)
	}
	snap := reg.Snapshot()
	// AllocsPerRun runs its function once to warm up, then 100 times.
	if w, r := snap["bundle.store.bytes-written"], snap["bundle.store.bytes-read"]; w != 102*4096 || r != 101*4096 {
		t.Errorf("counted %d bytes written and %d read, want %d and %d", w, r, 102*4096, 101*4096)
	}
	if ops := snap["bundle.store.ops"]; ops != 1 {
		t.Errorf("bundle.store.ops = %d, want 1: the create, and no read or write", ops)
	}
}

// TestRollbackTornLogGuessesStore: a first save (no manifest to consult)
// killed after staging, whose log was then torn before its begin record,
// still has its staged objects swept — the store is learnt from the data
// dir's shape. Guessing a cas root to be a plain directory would leave
// them in objects.json for ever.
func TestRollbackTornLogGuessesStore(t *testing.T) {
	for _, kind := range []string{"dir", "cas"} {
		t.Run(kind, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "bundle")
			opts := goldenOpts[kind]
			opts.crashFn = func(point string) error {
				if point == "data-synced" {
					return errInjectedCrash
				}
				return nil
			}
			if err := crashCluster(t, crashOldFiles(), "old").SaveBundleOpts(dir, opts); err != errInjectedCrash {
				t.Fatalf("save = %v, want the injected crash", err)
			}
			if err := os.Truncate(filepath.Join(dir, bundleWALName), 3); err != nil {
				t.Fatal(err)
			}
			if err := RecoverBundle(dir); err != nil {
				t.Fatal(err)
			}
			for _, gone := range []string{bundleWALName, bundleCatalogStage} {
				if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
					t.Errorf("%s survived the rollback (stat: %v)", gone, err)
				}
			}
			b, err := openBundleStore(dir, opts.spec(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if names, err := b.List(); err != nil || len(names) != 0 {
				t.Errorf("after the rollback the store lists %v (err %v), want nothing", names, err)
			}
		})
	}
}

// TestFsckAbandonedUploads: a multipart session nobody owns is an fsck
// error on a remote bundle, and repair aborts it.
func TestFsckAbandonedUploads(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	opts := goldenOpts["obj"]
	opts.Endpoint = "sim://fsck-abandoned"
	defer objstore.Drop(opts.Endpoint)
	if err := crashCluster(t, crashOldFiles(), "v").SaveBundleOpts(dir, opts); err != nil {
		t.Fatal(err)
	}
	assertFsckClean(t, dir, "fresh remote bundle")
	id, err := objstore.Dial(opts.Endpoint).BeginUpload(bundleStagePrefix + "a.dat")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := FsckBundle(dir, false)
	if err != nil || len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0], "abandoned multipart upload "+id) {
		t.Fatalf("fsck with an abandoned session: errors %v (err %v), want one naming upload %s", rep.Errors, err, id)
	}
	rep, err = FsckBundle(dir, true)
	if err != nil || len(rep.Errors) != 0 || len(rep.Repaired) != 1 {
		t.Fatalf("fsck -repair: %+v (err %v), want one repair and no error", rep, err)
	}
	assertFsckClean(t, dir, "after repair")
}
