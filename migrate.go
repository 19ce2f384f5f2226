package sdm

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"sdm/internal/metadb"
	"sdm/internal/store"
)

// MigrateBundle moves a saved bundle between storage tiers — hot
// (dir/cas) to cold (obj) and back — by committing the source's
// catalog and file bytes into dstDir under opts' backend through the
// same 3-phase WAL protocol as SaveBundle, so a crash mid-migration
// leaves the destination exactly-old-or-new.
//
// Migration is incremental by execution-table delta: when the
// destination already holds a bundle, the two catalogs' execution
// tables are diffed, and only files that new execution rows landed in
// (plus files missing from or size-mismatched against the destination
// manifest) are copied; everything else is kept in place and protected
// from the apply sweep by the manifest inventory. The catalog is
// copied verbatim, so a migrated bundle answers every metadata query
// identically to its source.
//
// All byte movement happens in host time plus (for "obj" ends) the
// remote's own timeline — no simulated rank clock is touched, so
// tiering never changes an application's simulated metrics.

// MigrateStats reports what a migration moved.
type MigrateStats struct {
	// Files counts the destination manifest's inventory; FilesCopied
	// of those were staged by this migration and FilesKept were
	// already present and unchanged.
	Files       int
	FilesCopied int
	FilesKept   int
	BytesCopied int64
	// DeltaRecords counts execution-table rows present in the source
	// catalog but not the destination's — the write activity since the
	// last migration. Zero on a full (non-incremental) copy.
	DeltaRecords int
	// Incremental reports whether a destination bundle existed and the
	// copy was delta-driven.
	Incremental bool
}

// execKey identifies one execution-table row for delta comparison.
type execKey struct {
	runid    int64
	dataset  string
	timestep int64
	offset   int64
	file     string
}

// readExecTable loads a serialized catalog and returns its execution
// rows keyed for comparison, mapped to the file each row landed in.
func readExecTable(catBytes []byte) (map[execKey]string, error) {
	db := metadb.New()
	if err := db.Load(bytes.NewReader(catBytes)); err != nil {
		return nil, fmt.Errorf("sdm: loading catalog for delta: %w", err)
	}
	rows, err := db.Query(`SELECT runid, dataset, timestep, file_offset, file_name FROM execution_table`)
	if err != nil {
		return nil, fmt.Errorf("sdm: reading execution table: %w", err)
	}
	out := make(map[execKey]string, rows.Len())
	for _, r := range rows.Data {
		k := execKey{
			runid:    r[0].AsInt(),
			dataset:  r[1].AsText(),
			timestep: r[2].AsInt(),
			offset:   r[3].AsInt(),
			file:     r[4].AsText(),
		}
		out[k] = k.file
	}
	return out, nil
}

// readBundleObject reads one object's full contents from a backend.
func readBundleObject(b store.Backend, name string, size int64) ([]byte, error) {
	obj, err := b.Open(name)
	if err != nil {
		return nil, err
	}
	// The size is the manifest's word; the allocation below trusts only
	// what the store confirms.
	if got := obj.Size(); got != size {
		return nil, fmt.Errorf("store holds %d bytes, manifest says %d", got, size)
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := obj.ReadAt(data, 0); err != nil && err != io.EOF {
			return nil, err
		}
	}
	return data, nil
}

// MigrateBundle migrates the bundle in srcDir into dstDir under opts'
// backend (the default kind if unset); see the package comment above for the
// incremental-delta and crash-consistency contract. The source is
// never modified.
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
	srcB, err := openBundleStore(srcDir, srcM.Spec, &BundleOptions{Faults: opts.Faults, Retry: opts.Retry})
	if err != nil {
		return st, err
	}
	catBytes, err := os.ReadFile(filepath.Join(srcDir, bundleCatalogName))
	if err != nil {
		return st, fmt.Errorf("sdm: migrate: reading source catalog: %w", err)
	}

	// Delta against an existing destination: changed files are those
	// that execution rows new to the destination landed in.
	copyAll := true
	changed := map[string]bool{}
	dstSizes := map[string]int64{}
	dstM, err := readManifest(dstDir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		// An existing destination this build cannot read is never swept.
		return st, fmt.Errorf("sdm: migrate: destination bundle: %w", err)
	}
	if err == nil {
		if want := opts.spec().Backend; dstM.Backend != want {
			return st, fmt.Errorf("sdm: migrate: destination bundle is %q, asked for %q — use a fresh directory",
				dstM.Backend, want)
		}
		dstCat, err := os.ReadFile(filepath.Join(dstDir, bundleCatalogName))
		if err != nil {
			return st, fmt.Errorf("sdm: migrate: reading destination catalog: %w", err)
		}
		srcRows, err := readExecTable(catBytes)
		if err != nil {
			return st, err
		}
		dstRows, err := readExecTable(dstCat)
		if err != nil {
			return st, err
		}
		for k, file := range srcRows {
			if _, ok := dstRows[k]; !ok {
				st.DeltaRecords++
				changed[file] = true
			}
		}
		for _, f := range dstM.Files {
			dstSizes[f.Name] = f.Size
		}
		copyAll = false
		st.Incremental = true
	}

	// Plan: stage files the delta names, plus anything the destination
	// lacks or holds at the wrong size (a GC'd or corrupt tier must
	// heal on the next migration).
	plan := make([]bundlePlanEntry, 0, len(srcM.Files))
	for _, f := range srcM.Files {
		sz, have := dstSizes[f.Name]
		if !copyAll && have && sz == f.Size && !changed[f.Name] {
			st.FilesKept++
			continue
		}
		data, err := readBundleObject(srcB, f.Name, f.Size)
		if err != nil {
			return st, fmt.Errorf("sdm: migrate: reading %q from source: %w", f.Name, err)
		}
		plan = append(plan, bundlePlanEntry{name: f.Name, data: data})
		st.FilesCopied++
		st.BytesCopied += int64(len(data))
	}
	st.Files = len(srcM.Files)

	dstB, err := openBundleStore(dstDir, opts.spec(), &opts)
	if err != nil {
		return st, err
	}
	if err := writeBundleWAL(dstDir, dstB, plan, srcM.Files, catBytes, &opts); err != nil {
		return st, err
	}
	opts.Metrics.Counter("bundle.migrations").Add(1)
	opts.Metrics.Counter("bundle.migrate.files_copied").Add(int64(st.FilesCopied))
	opts.Metrics.Counter("bundle.migrate.bytes_copied").Add(st.BytesCopied)
	return st, nil
}
