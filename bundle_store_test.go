package sdm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
			rep, err := FsckBundle(dir, true)
			if err != nil || rep.WALAction != "rolled-back" {
				t.Fatalf("fsck -repair: %+v (err %v), want a rollback", rep, err)
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

// TestFsckNamesLostCASChunk: fsck names the file whose cas chunk file is
// gone — and only it — in verify and in repair mode alike, since no
// repair brings the bytes back.
func TestFsckNamesLostCASChunk(t *testing.T) {
	const chunk = 4096
	dir := filepath.Join(t.TempDir(), "bundle")
	cl := NewCluster(ClusterConfig{Procs: 1})
	for _, name := range []string{"a.dat", "b.dat"} {
		if err := cl.StageFile(name, bytes.NewReader(bytes.Repeat([]byte(name[:1]), chunk))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.SaveBundleOpts(dir, BundleOptions{Backend: "cas", ChunkSize: chunk}); err != nil {
		t.Fatal(err)
	}
	assertFsckClean(t, dir, "fresh cas bundle")
	key := sha256.Sum256(bytes.Repeat([]byte("a"), chunk))
	h := hex.EncodeToString(key[:])
	if err := os.Remove(filepath.Join(dir, bundleDataDir, "chunks", h[:2], h)); err != nil {
		t.Fatal(err)
	}
	for _, repair := range []bool{false, true} {
		rep, err := FsckBundle(dir, repair)
		if err != nil || len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0], `objects ["a.dat"]`) {
			t.Fatalf("fsck (repair %v) with a.dat's chunk file gone: errors %v (err %v), want one naming a.dat", repair, rep.Errors, err)
		}
	}
}

// TestDirBundleSweepsOldStaging: a dir bundle whose data dir holds a
// staging file an earlier build's store left unpromoted opens, lists
// only the manifest's files and fscks clean; opening the store removes
// the file.
func TestDirBundleSweepsOldStaging(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	cl := NewCluster(ClusterConfig{Procs: 1})
	if err := cl.StageFile("a.dat", strings.NewReader("saved")); err != nil {
		t.Fatal(err)
	}
	if err := cl.SaveBundleOpts(dir, BundleOptions{Backend: "dir"}); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, bundleDataDir, "%tmp%x")
	if err := os.WriteFile(stale, []byte("unpromoted"), 0o644); err != nil {
		t.Fatal(err)
	}
	run, err := OpenBundle(dir, ClusterConfig{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := run.ListFiles(); len(got) != 1 || got[0] != "a.dat" {
		t.Errorf("the reopened bundle lists %v, want [a.dat]", got)
	}
	assertFsckClean(t, dir, "after an earlier build's staging file")
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("the staging file is still there (%v)", err)
	}
}
