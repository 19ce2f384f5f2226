package sdm

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// MigrateBundle moves a saved bundle between storage tiers — hot
// (dir/cas) to cold (obj) and back — by committing the source's
// catalog and file bytes into dstDir under opts' backend through the
// same 3-phase WAL protocol as SaveBundle, so a crash mid-migration
// leaves the destination exactly-old-or-new.
//
// A migration copies every file the source manifest names, as a save
// copies every file of the cluster: nothing records whether a file's
// bytes changed since an earlier migration (a file rewritten in place
// at the same size lands no execution row), so keeping a destination
// file could leave stale bytes in the tier. Each file streams from the
// source store into the destination's piece by piece, once the source
// store confirms the size the manifest gives it. The catalog is copied
// verbatim, so a migrated bundle answers every metadata query
// identically to its source.
//
// All byte movement happens in host time plus (for "obj" ends) the
// remote's own timeline — no simulated rank clock is touched, so
// tiering never changes an application's simulated metrics.

// MigrateStats reports what a migration moved.
type MigrateStats struct {
	FilesCopied int
	BytesCopied int64
}

// MigrateBundle migrates the bundle in srcDir into dstDir under opts'
// backend (the default kind if unset); see the package comment above for the
// copy and crash-consistency contract. The source is never modified.
func MigrateBundle(srcDir, dstDir string, opts BundleOptions) (MigrateStats, error) {
	var st MigrateStats
	absSrc, absDst := bundlePath(srcDir), bundlePath(dstDir)
	if absSrc == absDst {
		return st, fmt.Errorf("sdm: migrate: source and destination are the same bundle %q", absSrc)
	}
	// Both bundle locks, in path order, so concurrent migrations
	// between the same pair cannot deadlock.
	locks := []*sync.Mutex{bundleLock(srcDir), bundleLock(dstDir)}
	if absDst < absSrc {
		locks[0], locks[1] = locks[1], locks[0]
	}
	locks[0].Lock()
	defer locks[0].Unlock()
	locks[1].Lock()
	defer locks[1].Unlock()

	// Finish or roll back interrupted saves on both ends first.
	if err := recoverBundleLocked(srcDir, nil); err != nil {
		return st, fmt.Errorf("sdm: migrate: recovering source: %w", err)
	}
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return st, fmt.Errorf("sdm: migrate: creating destination: %w", err)
	}
	if err := recoverBundleLocked(dstDir, nil); err != nil {
		return st, fmt.Errorf("sdm: migrate: recovering destination: %w", err)
	}

	// Source inventory and catalog.
	srcM, err := readManifest(srcDir)
	if err != nil {
		return st, fmt.Errorf("sdm: migrate: source bundle: %w", err)
	}
	srcB, err := openBundleStore(srcDir, srcM.Spec, nil)
	if err != nil {
		return st, err
	}
	cat, err := os.Open(filepath.Join(srcDir, bundleCatalogName))
	if err != nil {
		return st, fmt.Errorf("sdm: migrate: reading source catalog: %w", err)
	}
	defer cat.Close()

	// An existing destination this build cannot read, or of another
	// kind, is never swept.
	dstM, err := readManifest(dstDir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return st, fmt.Errorf("sdm: migrate: destination bundle: %w", err)
	}
	if want := opts.spec().Backend; err == nil && dstM.Backend != want {
		return st, fmt.Errorf("sdm: migrate: destination bundle is %q, asked for %q — use a fresh directory",
			dstM.Backend, want)
	}

	st.FilesCopied = len(srcM.Files)
	for _, f := range srcM.Files {
		st.BytesCopied += f.Size
	}
	dstB, err := openBundleStore(dstDir, opts.spec(), &opts)
	if err != nil {
		return st, err
	}
	copyCatalog := func(w io.Writer) error { _, err := io.Copy(w, cat); return err }
	if err := writeBundleWAL(dstDir, dstB, srcB, srcM.Files, copyCatalog, &opts); err != nil {
		return st, err
	}
	opts.Metrics.Counter("bundle.migrations").Add(1)
	opts.Metrics.Counter("bundle.migrate.files_copied").Add(int64(st.FilesCopied))
	opts.Metrics.Counter("bundle.migrate.bytes_copied").Add(st.BytesCopied)
	return st, nil
}
