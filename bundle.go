package sdm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sdm/internal/catalog"
	"sdm/internal/metadb"
	"sdm/internal/mpi"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/store"
)

// A run bundle is a self-contained on-disk snapshot of everything a
// cluster accumulated: the metadata catalog (runs, datasets, execution
// records, index histories) plus the simulated file system's bytes.
// The paper's SDM promises that a later run can reopen earlier results
// by name through the database; bundles make that hold across OS
// processes — one process writes and saves, another opens the bundle
// and replays an index history or reads datasets back through the
// execution table.
//
// Layout:
//
//	<dir>/MANIFEST.json   format, backend kind, file inventory
//	<dir>/catalog.db      metadb snapshot (the MySQL stand-in's dump)
//	<dir>/wal.log         write-ahead log; present only mid-save or
//	                      after a crash, consumed by recovery
//	<dir>/data/...        file bytes, under a store backend:
//	                      "dir" = one host file per simulated file;
//	                      "cas" = SHA-256-chunked content-addressed
//	                      pool with dedup and optional compression
//
// Saves are crash-consistent: SaveBundle appends intent records (each
// file's final name, staging name and size, and the catalog snapshot's
// staging file) to wal.log and fsyncs them before mutating any data,
// then streams every file into an object under a scratch name, and only
// after a sealed commit record is durable promotes the staged objects
// onto their final names. OpenBundle (and sdmfsck) replays or rolls back the log,
// so a process killed at any byte offset of a save leaves either the
// old bundle or the new one — never a hybrid.

// BundleOptions tunes how a bundle stores file bytes.
type BundleOptions struct {
	// Backend selects the byte store: "dir" (default, one host file
	// per simulated file), "cas" (content-addressed chunks with
	// dedup), or "obj" (a simulated remote object store with S3-like
	// semantics — write-back staging, multipart PUTs, priced requests
	// on its own remote timeline).
	Backend string
	// Compress stores each cas chunk byte-shuffled or plain flate,
	// whichever is smaller (ignored for "dir").
	Compress bool
	// ChunkSize overrides the cas chunk granularity (default 64 KiB).
	ChunkSize int64
	// Endpoint names the simulated remote for "obj" backends, e.g.
	// "sim://archive". Empty derives a per-directory endpoint
	// ("sim://<abs bundle dir>") so reopening the bundle — or
	// recovering it after a crash — reconnects to the same remote.
	// Bundles sharing an explicit endpoint share one keyspace; give
	// each bundle its own.
	Endpoint string
	// PartSize is the "obj" multipart threshold and part size
	// (default 8 MiB): flushes larger than this upload in PartSize
	// pieces through a multipart session with per-part retry.
	PartSize int64
	// DisableWAL skips the write-ahead log and nothing else: the save
	// still stages every object, syncs, and promotes by rename, but
	// writes no intent or commit records and pays no log fsyncs — so a crash mid-save can leave a hybrid bundle that no
	// recovery repairs. Only for pricing the log on ephemeral
	// directories.
	DisableWAL bool
	// Metrics, when non-nil, counts the bundle's store-backend
	// operations (namespace ops, errors, data-plane bytes) and WAL
	// records into the registry under "bundle.*". On open, the metered
	// backend is the base of the cluster's Mem: the run's reads of saved
	// files keep counting, its writes never reach it.
	Metrics *obs.Registry

	// crashFn, set by crash-matrix tests, is called at every WAL
	// boundary of the save; a non-nil return aborts the save on the
	// spot, simulating a process killed at that boundary.
	crashFn crashHook
	// faults, set by fault-injection tests, wraps the bundle's backend
	// (in a store.Faulty) beneath the metering.
	faults func(store.Backend) store.Backend
}

type crashHook func(point string) error

// at fires the hook, if there is one, at a named WAL boundary.
func (h crashHook) at(point string) error {
	if h == nil {
		return nil
	}
	return h(point)
}

const (
	bundleManifestName = "MANIFEST.json"
	bundleCatalogName  = "catalog.db"
	bundleDataDir      = "data"
	bundleWALName      = "wal.log"
	// bundleStagePrefix namespaces staged objects inside the backend
	// during a save. Simulated file names never start with it (they
	// come from the pfs namespace; the prefix is reserved).
	bundleStagePrefix = ".wal~"
	// bundleCatalogStage is the catalog snapshot's host staging file.
	bundleCatalogStage = "catalog.db.wal"
)

// bundleManifest is the bundle's self-description; its atomic rename
// into place is the last step of a save's apply phase.
type bundleManifest struct {
	Format     int          `json:"format"`
	CreatedAt  string       `json:"created_at"`
	store.Spec              // the byte store under data/ (or behind its endpoint)
	Files      []bundleFile `json:"files"`
}

type bundleFile struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// bundleFormat is the manifest format this build reads and writes.
const bundleFormat = 1

// ManifestError reports a MANIFEST.json that cannot be acted on:
// unreadable, not JSON, or of a format this build does not understand.
// Everything that derives a live set from the manifest and then removes
// what is not in it (the migrate and fsck sweeps) stops on it.
type ManifestError struct {
	Path   string
	Format int   // the manifest's format when it parsed but is unsupported
	Err    error // the read or parse failure; nil for an unsupported format
}

func (e *ManifestError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("%s: unsupported bundle format %d (this build reads %d)", e.Path, e.Format, bundleFormat)
	}
	return fmt.Sprintf("manifest: %v", e.Err)
}

// Unwrap exposes the underlying failure, so errors.Is(err,
// os.ErrNotExist) tells "no bundle here" from a bad one.
func (e *ManifestError) Unwrap() error { return e.Err }

// readManifest is the one reader of a bundle's MANIFEST.json: it returns
// the manifest only if it parses and has the supported format.
func readManifest(dir string) (*bundleManifest, error) {
	path := filepath.Join(dir, bundleManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, &ManifestError{Path: path, Err: err}
	}
	var m bundleManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, &ManifestError{Path: path, Err: fmt.Errorf("%s is corrupt: %w", path, err)}
	}
	if m.Format != bundleFormat {
		return nil, &ManifestError{Path: path, Format: m.Format}
	}
	return &m, nil
}

// encode renders the manifest as it is stored: in MANIFEST.json and,
// before that, verbatim in the write-ahead log's commit record.
func (m *bundleManifest) encode() ([]byte, error) {
	raw, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// ---------------------------------------------------------------------------
// Per-directory serialization
// ---------------------------------------------------------------------------

// Bundle mutations (save, migration, recovery, fsck) on one directory
// must not interleave: an fsck repair computing its live set from the
// manifest while a save is staging fresh objects would remove the
// save's data. One mutex per cleaned absolute path serializes them, so
// the manifest snapshot and the live-set computation happen under the
// same lock as any racing save.
var (
	bundleLocksMu sync.Mutex
	bundleLocks   = map[string]*sync.Mutex{}
)

// bundlePath is dir as a bundle is known process-wide — to its lock, to a
// migration comparing its two ends, to a remote's default endpoint:
// absolute and cleaned.
func bundlePath(dir string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	return filepath.Clean(dir)
}

func bundleLock(dir string) *sync.Mutex {
	key := bundlePath(dir)
	bundleLocksMu.Lock()
	defer bundleLocksMu.Unlock()
	mu := bundleLocks[key]
	if mu == nil {
		mu = &sync.Mutex{}
		bundleLocks[key] = mu
	}
	return mu
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

// saveBundle copies the cluster's catalog and file bytes into dir,
// crash-consistently unless opts.DisableWAL. Each file streams from the
// cluster's store into the bundle's piece by piece, and the catalog
// snapshot straight into its stage file: a save holds one piece of one
// file, never the cluster's files.
func saveBundle(cl *Cluster, dir string, opts BundleOptions) error {
	mu := bundleLock(dir)
	mu.Lock()
	defer mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sdm: creating bundle dir: %w", err)
	}
	// Finish or roll back a predecessor's interrupted save before
	// touching anything.
	if err := recoverBundleLocked(dir, nil); err != nil {
		return fmt.Errorf("sdm: recovering interrupted save: %w", err)
	}
	b, err := openBundleStore(dir, opts.spec(), &opts)
	if err != nil {
		return err
	}

	// List through the backend directly so namespace errors surface
	// (pfs.List's no-error signature would silently read as an empty
	// cluster — and the stale-object sweep must never run on a
	// spuriously empty listing).
	src := cl.FS.Backend()
	names, err := src.List()
	if err != nil {
		return fmt.Errorf("sdm: listing cluster files: %w", err)
	}
	files := make([]bundleFile, len(names))
	for i, name := range names {
		size, err := src.Stat(name)
		if err != nil {
			return fmt.Errorf("sdm: reading %q for bundle: %w", name, err)
		}
		files[i] = bundleFile{Name: name, Size: size}
	}
	if err := writeBundleWAL(dir, b, src, files, cl.DB.Save, &opts); err != nil {
		return err
	}
	opts.Metrics.Counter("bundle.saves").Add(1)
	return nil
}

// ---------------------------------------------------------------------------
// Open
// ---------------------------------------------------------------------------

// openBundle assembles a cluster on a saved bundle's storage, after
// replaying or rolling back any interrupted save.
func openBundle(dir string, cfg ClusterConfig, opts BundleOptions) (*Cluster, error) {
	mu := bundleLock(dir)
	mu.Lock()
	if err := recoverBundleLocked(dir, nil); err != nil {
		mu.Unlock()
		return nil, fmt.Errorf("sdm: recovering bundle: %w", err)
	}
	mu.Unlock()
	m, err := readManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("sdm: opening bundle: %w", err)
	}
	b, err := openBundleStore(dir, m.Spec, &opts)
	if err != nil {
		return nil, err
	}
	opts.Metrics.Counter("bundle.opens").Add(1)
	cfg.fill()
	db := metadb.New()
	cf, err := os.Open(filepath.Join(dir, bundleCatalogName))
	if err != nil {
		return nil, fmt.Errorf("sdm: opening bundle catalog: %w", err)
	}
	defer cf.Close()
	if err := db.Load(cf); err != nil {
		return nil, fmt.Errorf("sdm: loading bundle catalog: %w", err)
	}
	cat := catalog.New(db)
	cat.SetAccessCost(cfg.DBAccessCost)
	return &Cluster{
		cfg:     cfg,
		World:   mpi.NewWorld(cfg.Procs, cfg.Network),
		FS:      pfs.NewSystemOn(cfg.Storage, store.NewMemOver(b.Backend)),
		DB:      db,
		Catalog: cat,
	}, nil
}
