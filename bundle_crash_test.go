package sdm

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sdm/internal/store"
)

// The crash suite simulates a process killed mid-SaveBundle — at every
// WAL boundary, and at every byte offset of the log itself — and
// demands the recovery invariant: reopening the bundle always yields
// exactly the old state or exactly the new one, files and catalog
// agreeing on which, with fsck finding nothing to complain about.

// errInjectedCrash is what the crash hook kills a save with.
var errInjectedCrash = errors.New("injected crash")

// crashPattern builds deterministic file contents: version-tagged so
// old and new bytes are distinguishable, sized to cross cas chunk
// boundaries.
func crashPattern(tag byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag ^ byte(i*31)
	}
	return p
}

// crashCluster stages a file set and a catalog marker row recording
// which version of the state this cluster holds.
func crashCluster(t *testing.T, files map[string][]byte, marker string) *Cluster {
	t.Helper()
	cl := NewCluster(ClusterConfig{Procs: 2})
	for name, data := range files {
		if err := cl.StageFile(name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.DB.Exec(`CREATE TABLE IF NOT EXISTS crash_marker (version TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DB.Exec(`INSERT INTO crash_marker VALUES (?)`, marker); err != nil {
		t.Fatal(err)
	}
	return cl
}

// readBundleState opens the bundle (running recovery) and returns its
// files and the catalog's version marker.
func readBundleState(t *testing.T, dir string) (map[string][]byte, string) {
	t.Helper()
	cl, err := OpenBundle(dir, ClusterConfig{Procs: 2})
	if err != nil {
		t.Fatalf("opening recovered bundle: %v", err)
	}
	files := map[string][]byte{}
	for _, name := range cl.ListFiles() {
		data, err := cl.ReadFile(name)
		if err != nil {
			t.Fatalf("reading %q from recovered bundle: %v", name, err)
		}
		files[name] = data
	}
	row, err := cl.DB.QueryRow(`SELECT version FROM crash_marker`)
	if err != nil {
		t.Fatalf("reading catalog marker: %v", err)
	}
	return files, row[0].AsText()
}

// sameFiles reports whether two file sets are byte-identical.
func sameFiles(got, want map[string][]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			return false
		}
	}
	return true
}

// assertFsckClean runs the verifier in strict (non-repair) mode and
// fails on anything it finds.
func assertFsckClean(t *testing.T, dir, ctx string) {
	t.Helper()
	rep, err := FsckBundle(dir, false)
	if err != nil {
		t.Fatalf("%s: fsck: %v", ctx, err)
	}
	if len(rep.Errors) > 0 {
		t.Fatalf("%s: fsck found %d error(s): %v", ctx, len(rep.Errors), rep.Errors)
	}
}

// crashOldFiles and crashNewFiles are the two bundle states the matrix
// flips between: one file changes content, one survives unchanged (the
// cas dedup path), one disappears (the sweep path), one is born.
func crashOldFiles() map[string][]byte {
	return map[string][]byte{
		"a.dat":    crashPattern('A', 3000),
		"keep.dat": crashPattern('K', 1500),
		"gone.dat": crashPattern('G', 700),
	}
}

func crashNewFiles() map[string][]byte {
	return map[string][]byte{
		"a.dat":    crashPattern('Z', 3100),
		"keep.dat": crashPattern('K', 1500),
		"new.dat":  crashPattern('N', 900),
	}
}

// runCrashMatrix kills a save at WAL boundary #k for k = 0, 1, 2, ...
// until a run completes uncrashed, asserting after every kill that
// recovery lands the bundle on exactly-old or exactly-new — and on the
// side of the commit point the kill dictates.
func runCrashMatrix(t *testing.T, opts BundleOptions) {
	oldFiles, newFiles := crashOldFiles(), crashNewFiles()
	var points []string
	for k := 0; ; k++ {
		dir := filepath.Join(t.TempDir(), "bundle")
		if err := crashCluster(t, oldFiles, "old").SaveBundleOpts(dir, opts); err != nil {
			t.Fatalf("boundary %d: seeding old bundle: %v", k, err)
		}
		calls := 0
		crashed := ""
		copts := opts
		copts.crashFn = func(point string) error {
			if calls == k {
				crashed = point
				calls++
				return fmt.Errorf("at %s: %w", point, errInjectedCrash)
			}
			calls++
			return nil
		}
		err := crashCluster(t, newFiles, "new").SaveBundleOpts(dir, copts)
		if err == nil {
			// k is past the last boundary: the save ran to completion.
			files, marker := readBundleState(t, dir)
			if marker != "new" || !sameFiles(files, newFiles) {
				t.Fatalf("uncrashed save: marker %q, files match new: %v", marker, sameFiles(files, newFiles))
			}
			if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) {
				t.Fatal("completed save left wal.log behind")
			}
			assertFsckClean(t, dir, "uncrashed save")
			break
		}
		if !errors.Is(err, errInjectedCrash) {
			t.Fatalf("boundary %d: save failed for real: %v", k, err)
		}
		points = append(points, crashed)

		files, marker := readBundleState(t, dir)
		var want map[string][]byte
		switch marker {
		case "old":
			want = oldFiles
		case "new":
			want = newFiles
		default:
			t.Fatalf("killed at %q: marker %q is neither old nor new", crashed, marker)
		}
		if !sameFiles(files, want) {
			t.Fatalf("killed at %q: files do not match the %q state the catalog claims", crashed, marker)
		}
		// The commit point divides the outcomes exactly: a sealed log
		// rolls forward, anything earlier rolls back.
		wantNew := crashed == "wal-committed" || strings.HasPrefix(crashed, "apply-")
		if wantNew != (marker == "new") {
			t.Fatalf("killed at %q: recovered to %q, want new=%v", crashed, marker, wantNew)
		}
		if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) {
			t.Fatalf("killed at %q: recovery left wal.log behind", crashed)
		}
		assertFsckClean(t, dir, fmt.Sprintf("killed at %q", crashed))
	}
	// The matrix must have actually walked the whole protocol.
	if len(points) < 12 {
		t.Fatalf("only %d crash boundaries exercised: %v", len(points), points)
	}
	for _, must := range []string{"wal-begin", "wal-intents-synced", "data-synced", "wal-committed", "apply-sweep", "apply-manifest"} {
		found := false
		for _, p := range points {
			if p == must {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("crash matrix never hit boundary %q (saw %v)", must, points)
		}
	}
	t.Logf("survived kills at %d boundaries: %v", len(points), points)
}

func TestBundleCrashMatrixDir(t *testing.T) {
	runCrashMatrix(t, BundleOptions{Backend: "dir"})
}

func TestBundleCrashMatrixCAS(t *testing.T) {
	runCrashMatrix(t, BundleOptions{Backend: "cas", Compress: true, ChunkSize: 512})
}

// copyTree clones a bundle directory for destructive surgery.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBundleCrashWALTruncation builds a bundle whose save was killed
// right after the commit record, then replays recovery against the log
// truncated at EVERY byte offset — the "kill at any byte offset"
// guarantee. A whole commit record rolls forward to the new state; any
// shorter prefix rolls back to the old one; nothing in between.
func TestBundleCrashWALTruncation(t *testing.T) {
	oldFiles, newFiles := crashOldFiles(), crashNewFiles()
	opts := BundleOptions{Backend: "dir"}
	fixture := filepath.Join(t.TempDir(), "fixture")
	if err := crashCluster(t, oldFiles, "old").SaveBundleOpts(fixture, opts); err != nil {
		t.Fatal(err)
	}
	copts := opts
	copts.crashFn = func(point string) error {
		if point == "wal-committed" {
			return errInjectedCrash
		}
		return nil
	}
	if err := crashCluster(t, newFiles, "new").SaveBundleOpts(fixture, copts); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("fixture save = %v, want injected crash", err)
	}
	wal, err := os.ReadFile(filepath.Join(fixture, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}

	sawOld, sawNew := 0, 0
	for n := 0; n <= len(wal); n++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut%d", n))
		copyTree(t, fixture, dir)
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		files, marker := readBundleState(t, dir)
		var want map[string][]byte
		switch marker {
		case "old":
			want = oldFiles
			sawOld++
		case "new":
			want = newFiles
			sawNew++
		default:
			t.Fatalf("wal cut at %d/%d bytes: marker %q", n, len(wal), marker)
		}
		if !sameFiles(files, want) {
			t.Fatalf("wal cut at %d/%d bytes: files do not match the %q state", n, len(wal), marker)
		}
		if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) {
			t.Fatalf("wal cut at %d bytes: recovery left wal.log behind", n)
		}
	}
	// Only the untruncated log carries the whole commit record.
	if sawNew != 1 || sawOld != len(wal) {
		t.Fatalf("recovery outcomes: %d old, %d new over %d offsets — want exactly one roll-forward", sawOld, sawNew, len(wal)+1)
	}
}

// TestBundleCrashRepairSaveRace: fsck's repair removes what the
// manifest does not name, so it must never remove a concurrent save's
// freshly staged objects. A save and a repair race on the same
// directory, and whichever order the lock serializes them in, the
// save's state must land intact and the repair find nothing wrong.
func TestBundleCrashRepairSaveRace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	opts := BundleOptions{Backend: "cas", ChunkSize: 512}
	if err := crashCluster(t, crashOldFiles(), "v0").SaveBundleOpts(dir, opts); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 15; i++ {
		files := map[string][]byte{
			"a.dat":                     crashPattern(byte(i), 3000),
			"keep.dat":                  crashPattern('K', 1500),
			fmt.Sprintf("gen%d.dat", i): crashPattern(byte(i), 800),
		}
		marker := fmt.Sprintf("v%d", i)
		cl := crashCluster(t, files, marker)
		var wg sync.WaitGroup
		var saveErr, fsckErr error
		var rep *FsckReport
		wg.Add(2)
		go func() {
			defer wg.Done()
			saveErr = cl.SaveBundleOpts(dir, opts)
		}()
		go func() {
			defer wg.Done()
			rep, fsckErr = FsckBundle(dir, true)
		}()
		wg.Wait()
		if saveErr != nil {
			t.Fatalf("round %d: save: %v", i, saveErr)
		}
		if fsckErr != nil || len(rep.Errors) != 0 || rep.Orphans != 0 {
			t.Fatalf("round %d: fsck -repair: %+v (err %v), want nothing to repair", i, rep, fsckErr)
		}
		got, gotMarker := readBundleState(t, dir)
		if gotMarker != marker || !sameFiles(got, files) {
			t.Fatalf("round %d: bundle lost the racing save's state (marker %q)", i, gotMarker)
		}
		assertFsckClean(t, dir, fmt.Sprintf("race round %d", i))
	}
}

// TestBundleCrashSaveUnderFaults saves over an old bundle through a
// backend that injects transient failures, torn writes and partial
// reads, which nothing masks, once per injection seed of a sweep.
// Whatever the faults do to a save, the bundle stays whole: once a
// repairing fsck has run it is fsck-clean, and it holds either the new
// state, equal to a clean save of it, or — only if the save failed —
// the old one.
func TestBundleCrashSaveUnderFaults(t *testing.T) {
	const seeds = 20
	oldFiles, newFiles := crashOldFiles(), crashNewFiles()
	for _, backend := range []string{"dir", "cas"} {
		t.Run(backend, func(t *testing.T) {
			cleanDir := filepath.Join(t.TempDir(), "clean")
			if err := crashCluster(t, newFiles, "new").SaveBundleOpts(cleanDir, BundleOptions{Backend: backend}); err != nil {
				t.Fatal(err)
			}
			cleanFiles, cleanMarker := readBundleState(t, cleanDir)
			var injected, failed int64
			for seed := int64(21); seed < 21+seeds; seed++ {
				dir := filepath.Join(t.TempDir(), "faulty")
				if err := crashCluster(t, oldFiles, "old").SaveBundleOpts(dir, BundleOptions{Backend: backend}); err != nil {
					t.Fatal(err)
				}
				// Ops nil = the idempotent set: open, stat, list, sync,
				// read and write.
				var faulty *store.Faulty
				opts := BundleOptions{Backend: backend}
				opts.faults = func(b store.Backend) store.Backend {
					faulty = store.NewFaulty(b, store.FaultConfig{Seed: seed, Transient: 0.05, TornWrite: 0.1, PartialRead: 0.1})
					return faulty
				}
				saveErr := crashCluster(t, newFiles, "new").SaveBundleOpts(dir, opts)
				injected += faulty.Stats().Transient
				if saveErr != nil {
					failed++
				}

				rep, err := FsckBundle(dir, true)
				if err != nil || len(rep.Errors) != 0 {
					t.Fatalf("seed %d: fsck -repair after the save: %+v (err %v)", seed, rep, err)
				}
				assertFsckClean(t, dir, fmt.Sprintf("seed %d", seed))
				got, marker := readBundleState(t, dir)
				switch {
				case marker == cleanMarker && sameFiles(got, cleanFiles):
				case saveErr != nil && marker == "old" && sameFiles(got, oldFiles):
				default:
					t.Fatalf("seed %d: save (err %v) left marker %q and a file set equal to neither state", seed, saveErr, marker)
				}
			}
			if injected == 0 || failed == 0 {
				t.Fatalf("%d injected faults failed %d of %d saves — the sweep never exercised a failed save", injected, failed, seeds)
			}
			t.Logf("%d injected faults failed %d of %d saves", injected, failed, seeds)
		})
	}
}

// TestBundleCrashFsck covers the verifier itself: strict mode flags a
// pending WAL, orphan objects, and orphan cas chunks; repair mode fixes
// all three and leaves a bundle strict mode then blesses.
func TestBundleCrashFsck(t *testing.T) {
	t.Run("pending-wal", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "bundle")
		opts := BundleOptions{Backend: "dir"}
		if err := crashCluster(t, crashOldFiles(), "old").SaveBundleOpts(dir, opts); err != nil {
			t.Fatal(err)
		}
		copts := opts
		copts.crashFn = func(point string) error {
			if point == "stage-catalog" {
				return errInjectedCrash
			}
			return nil
		}
		if err := crashCluster(t, crashNewFiles(), "new").SaveBundleOpts(dir, copts); !errors.Is(err, errInjectedCrash) {
			t.Fatalf("fixture save = %v", err)
		}
		rep, err := FsckBundle(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.WALPending || rep.WALSealed || len(rep.Errors) == 0 {
			t.Fatalf("strict fsck on crashed bundle: %+v", rep)
		}
		rep, err = FsckBundle(dir, true)
		if err != nil {
			t.Fatal(err)
		}
		if rep.WALAction != "rolled-back" || len(rep.Errors) != 0 {
			t.Fatalf("repair fsck: action %q, errors %v", rep.WALAction, rep.Errors)
		}
		assertFsckClean(t, dir, "after repair")
		if _, marker := readBundleState(t, dir); marker != "old" {
			t.Fatalf("rolled-back bundle has marker %q", marker)
		}
	})

	t.Run("orphans", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "bundle")
		if err := crashCluster(t, crashOldFiles(), "old").SaveBundleOpts(dir, BundleOptions{Backend: "cas", ChunkSize: 512}); err != nil {
			t.Fatal(err)
		}
		orphan := filepath.Join(dir, "data", "chunks", "zz", strings.Repeat("cd", 32))
		if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(orphan, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := FsckBundle(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Orphans == 0 || len(rep.Errors) == 0 {
			t.Fatalf("strict fsck missed the planted orphan: %+v", rep)
		}
		if rep, err = FsckBundle(dir, true); err != nil || len(rep.Errors) != 0 {
			t.Fatalf("repair fsck: %v %+v", err, rep)
		}
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Fatal("orphan chunk survived repair")
		}
		assertFsckClean(t, dir, "after orphan repair")
	})
}
