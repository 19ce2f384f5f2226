package sdm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sdm/internal/store"
)

// The bundle write-ahead-log protocol: the three-phase commit a save and
// a migration run (writeBundleWAL), its idempotent roll-forward half
// (applyWAL), and what recovery does with a log a dead save left behind
// (recoverBundleLocked: roll forward past the commit record, roll back
// before it).

// writeBundleWAL runs the 3-phase crash-consistent commit of a bundle:
// intents durable in the log before any data moves, all data staged
// under scratch names, a sealed commit record, then the idempotent
// apply. files lists every file of the new bundle, exactly as the
// manifest will; each is streamed from src into dst through one reused
// buffer of bundleCopyPiece bytes, after a check that src holds the
// listed size, and catalog writes the catalog snapshot straight into its
// stage file. Shared verbatim by SaveBundle and MigrateBundle so both get
// the same crash boundaries. With opts.DisableWAL the log is the nil
// *store.WAL, which records nothing: the same staging, syncs and renames
// run without intent records or log fsyncs.
func writeBundleWAL(dir string, dst *bundleStore, src store.Backend, files []bundleFile, catalog func(io.Writer) error, opts *BundleOptions) error {
	m := bundleManifest{Format: bundleFormat, CreatedAt: time.Now().UTC().Format(time.RFC3339), Spec: dst.spec, Files: files}
	manifestJSON, err := m.encode()
	if err != nil {
		return err
	}
	// Intent phase: every record describing the new bundle is durable
	// in the log before a single data byte moves.
	var w *store.WAL
	if !opts.DisableWAL {
		if w, err = store.CreateWAL(filepath.Join(dir, bundleWALName)); err != nil {
			return err
		}
		defer w.Close()
	}
	if err := w.Append(store.WALBegin, store.WALBeginRecord{Format: bundleFormat, Spec: dst.spec}); err != nil {
		return err
	}
	if err := opts.crashFn.at("wal-begin"); err != nil {
		return err
	}
	puts := make([]store.WALPutRecord, len(files))
	var piece int64
	for i, f := range files {
		puts[i] = store.WALPutRecord{Name: f.Name, Stage: bundleStagePrefix + f.Name, Size: f.Size}
		if err := w.Append(store.WALPut, puts[i]); err != nil {
			return err
		}
		if err := opts.crashFn.at("wal-put:" + f.Name); err != nil {
			return err
		}
		piece = max(piece, min(f.Size, bundleCopyPiece))
	}
	if err := w.Append(store.WALCatalog, store.WALCatalogRecord{Stage: bundleCatalogStage}); err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		return err
	}
	if err := opts.crashFn.at("wal-intents-synced"); err != nil {
		return err
	}

	// Staging phase: all data lands under scratch names; the old
	// bundle's objects are never touched.
	buf := make([]byte, piece)
	for i, f := range files {
		obj, err := dst.Create(puts[i].Stage)
		if errors.Is(err, store.ErrExist) {
			// A stage name an earlier, unlogged save left behind.
			if err := dst.Remove(puts[i].Stage); err != nil {
				return fmt.Errorf("sdm: clearing stale stage %q: %w", puts[i].Stage, err)
			}
			obj, err = dst.Create(puts[i].Stage)
		}
		if err == nil {
			err = copyObject(obj, src, f, buf)
		}
		if err != nil {
			return fmt.Errorf("sdm: staging %q in bundle: %w", f.Name, err)
		}
		if err := opts.crashFn.at("stage:" + f.Name); err != nil {
			return err
		}
	}
	catStage := filepath.Join(dir, bundleCatalogStage)
	cf, err := os.OpenFile(catStage, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		err = catalog(cf)
		if cerr := cf.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = store.Fsync(catStage)
	}
	if err != nil {
		return fmt.Errorf("sdm: staging bundle catalog: %w", err)
	}
	if err := opts.crashFn.at("stage-catalog"); err != nil {
		return err
	}
	if err := dst.Sync(); err != nil {
		return fmt.Errorf("sdm: syncing staged bundle data: %w", err)
	}
	if err := opts.crashFn.at("data-synced"); err != nil {
		return err
	}

	// Commit point: once the sealed record is durable, recovery rolls
	// this save forward; before it, recovery rolls it back.
	if err := w.Append(store.WALCommit, store.WALCommitRecord{Manifest: manifestJSON}); err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		return err
	}
	if err := opts.crashFn.at("wal-committed"); err != nil {
		return err
	}
	if err := applyWAL(dir, dst, puts, bundleCatalogStage, manifestJSON, opts.crashFn); err != nil {
		return err
	}
	if w != nil {
		// begin + one put per file + catalog + commit.
		opts.Metrics.Counter("bundle.wal.records").Add(int64(len(puts)) + 3)
	}
	return w.Close()
}

// bundleCopyPiece is the most of one file a save or a migration holds at
// a time. A power of two, so each chunk of a cas destination is written
// whole, once.
const bundleCopyPiece = 8 << 20

// copyObject streams f from src into dst through buf, once src confirms
// f's size: the size is the manifest's word on a migration, and nothing
// is read on it alone.
func copyObject(dst store.Object, src store.Backend, f bundleFile, buf []byte) error {
	obj, err := src.Open(f.Name)
	if err != nil {
		return err
	}
	if got := obj.Size(); got != f.Size {
		return fmt.Errorf("store holds %d bytes, manifest says %d", got, f.Size)
	}
	for off := int64(0); off < f.Size; {
		p := buf[:min(int64(len(buf)), f.Size-off)]
		if n, err := obj.ReadAt(p, off); n < len(p) {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if _, err := dst.WriteAt(p, off); err != nil {
			return err
		}
		off += int64(len(p))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Apply / recovery
// ---------------------------------------------------------------------------

// applyWAL is the roll-forward half of the protocol, run by the save
// itself after its commit record and re-run verbatim by recovery after
// a crash. Every step is idempotent: staged objects still present are
// promoted by rename; already-promoted objects are verified in place;
// sweeps ignore what is already gone.
func applyWAL(dir string, b store.Backend, puts []store.WALPutRecord, catStage string, manifestJSON []byte, crash crashHook) error {
	// The keep-set is the union of this save's puts and the manifest's
	// inventory. A commit this build writes puts every file its manifest
	// names, so the two agree; the union is for recovery of a log an
	// earlier build's incremental migration left pending, whose manifest
	// also names the files that migration kept in place — rolling it
	// forward must not sweep them (testdata/format1/wal-migrate-delta).
	want := make(map[string]bool, len(puts))
	var m bundleManifest
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		return fmt.Errorf("sdm: bundle apply: corrupt manifest in wal commit: %w", err)
	}
	for _, f := range m.Files {
		want[f.Name] = true
	}
	for _, p := range puts {
		want[p.Name] = true
		if err := b.Rename(p.Stage, p.Name); err != nil {
			if !errors.Is(err, store.ErrNotExist) {
				return fmt.Errorf("sdm: promoting %q: %w", p.Name, err)
			}
			// Promoted by an earlier apply pass; verify it landed whole.
			sz, err := b.Stat(p.Name)
			if err != nil {
				return fmt.Errorf("sdm: bundle apply: %q neither staged nor promoted: %w", p.Name, err)
			}
			if sz != p.Size {
				return fmt.Errorf("sdm: bundle apply: %q has size %d, wal intent says %d", p.Name, sz, p.Size)
			}
		}
		if err := crash.at("apply-rename:" + p.Name); err != nil {
			return err
		}
	}
	// Sweep objects the new manifest does not name (and any stray
	// staged leftovers).
	existing, err := b.List()
	if err != nil {
		return fmt.Errorf("sdm: listing bundle contents: %w", err)
	}
	for _, name := range existing {
		if !want[name] {
			if err := b.Remove(name); err != nil && !errors.Is(err, store.ErrNotExist) {
				return fmt.Errorf("sdm: sweeping stale %q: %w", name, err)
			}
		}
	}
	if err := crash.at("apply-sweep"); err != nil {
		return err
	}
	if err := b.Sync(); err != nil {
		return fmt.Errorf("sdm: syncing bundle data: %w", err)
	}
	if err := crash.at("apply-data-synced"); err != nil {
		return err
	}
	// Promote the catalog snapshot, then the manifest — the bundle's
	// commit into the namespace of ordinary readers.
	catPath := filepath.Join(dir, bundleCatalogName)
	stagePath := filepath.Join(dir, catStage)
	if _, err := os.Stat(stagePath); err == nil {
		if err := os.Rename(stagePath, catPath); err != nil {
			return err
		}
	} else if _, err := os.Stat(catPath); err != nil {
		return fmt.Errorf("sdm: bundle apply: catalog neither staged nor promoted: %w", err)
	}
	if err := crash.at("apply-catalog"); err != nil {
		return err
	}
	tmp := filepath.Join(dir, bundleManifestName+".tmp")
	if err := os.WriteFile(tmp, manifestJSON, 0o644); err != nil {
		return err
	}
	if err := store.Fsync(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, bundleManifestName)); err != nil {
		return err
	}
	if err := crash.at("apply-manifest"); err != nil {
		return err
	}
	if err := store.Fsync(dir); err != nil {
		return err
	}
	// A save without a log (BundleOptions.DisableWAL) has none to retire.
	if err := os.Remove(filepath.Join(dir, bundleWALName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// rollbackWAL undoes an uncommitted save: staged objects and the
// staged catalog are deleted; the old bundle was never touched. On a
// remote the sweep also aborts abandoned multipart upload sessions — a
// crashed client's half-staged parts — since the simulated remote
// outlives the process that died.
func rollbackWAL(dir string, haveBegin bool, begin store.WALBeginRecord, catStage string) error {
	sp := begin.Spec
	if !haveBegin {
		// A log torn before its begin record survived names no backend,
		// but the save may still have staged objects (the log could have
		// been torn by corruption, not just an early kill). Learn the
		// backend from the previous manifest, or failing that from the
		// data dir's shape.
		if m, err := readManifest(dir); err == nil {
			sp = m.Spec
		}
		if sp.Backend == "" {
			sp = guessSpec(dir)
		}
	}
	// No data dir means nothing was ever staged — unless the store is
	// reached through an endpoint and never had one.
	if _, err := os.Stat(filepath.Join(dir, bundleDataDir)); err == nil || sp.Endpoint != "" {
		b, err := openBundleStore(dir, sp, nil)
		if err != nil {
			return err
		}
		b.abortUploads()
		names, err := b.List()
		if err != nil {
			return err
		}
		for _, name := range names {
			if strings.HasPrefix(name, bundleStagePrefix) {
				if err := b.Remove(name); err != nil && !errors.Is(err, store.ErrNotExist) {
					return err
				}
			}
		}
		if err := b.Sync(); err != nil {
			return err
		}
	}
	if catStage != "" {
		if err := os.Remove(filepath.Join(dir, catStage)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return os.Remove(filepath.Join(dir, bundleWALName))
}

// recoverBundleLocked replays or rolls back an interrupted save.
// Callers hold the bundle lock. rep, when non-nil, records what
// happened for fsck reporting.
func recoverBundleLocked(dir string, rep *FsckReport) error {
	walPath := filepath.Join(dir, bundleWALName)
	if _, err := os.Stat(walPath); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	recs, sealed, err := store.ReadWAL(walPath)
	if err != nil {
		return err
	}
	var begin store.WALBeginRecord
	haveBegin := false
	var puts []store.WALPutRecord
	catStage := bundleCatalogStage
	var manifestJSON []byte
	for _, r := range recs {
		switch r.Type {
		case store.WALBegin:
			if err := r.Decode(&begin); err != nil {
				return err
			}
			haveBegin = true
		case store.WALPut:
			var p store.WALPutRecord
			if err := r.Decode(&p); err != nil {
				return err
			}
			puts = append(puts, p)
		case store.WALCatalog:
			var c store.WALCatalogRecord
			if err := r.Decode(&c); err != nil {
				return err
			}
			catStage = c.Stage
		case store.WALCommit:
			var c store.WALCommitRecord
			if err := r.Decode(&c); err != nil {
				return err
			}
			manifestJSON = c.Manifest
		}
	}
	if !sealed || manifestJSON == nil {
		if rep != nil {
			rep.WALAction = "rolled-back"
		}
		return rollbackWAL(dir, haveBegin, begin, catStage)
	}
	if rep != nil {
		rep.WALAction = "rolled-forward"
	}
	b, err := openBundleStore(dir, begin.Spec, nil)
	if err != nil {
		return err
	}
	// Sessions left by the crashed save can never complete — the commit
	// record already pins what was staged — so sweep them before rolling
	// forward.
	b.abortUploads()
	return applyWAL(dir, b, puts, catStage, manifestJSON, nil)
}
