package sdm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sdm/internal/catalog"
	"sdm/internal/metadb"
	"sdm/internal/mpi"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/store"
	"sdm/internal/store/objstore"
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
// Saves are crash-consistent: SaveBundle appends intent records (the
// planned file set, staging names, content hashes, the catalog
// snapshot) to wal.log and fsyncs them before mutating any data, then
// stages every object under a scratch name, and only after a sealed
// commit record is durable promotes the staged objects onto their
// final names. OpenBundle (and sdmfsck) replays or rolls back the log,
// so a process killed at any byte offset of a save leaves either the
// old bundle or the new one — never a hybrid.

// RetryPolicy re-exports store.RetryPolicy: bounded, idempotence-aware
// retries for bundle backends (see BundleOptions.Retry).
type RetryPolicy = store.RetryPolicy

// FaultConfig re-exports store.FaultConfig: deterministic seeded fault
// injection for bundle backends (see BundleOptions.Faults).
type FaultConfig = store.FaultConfig

// ObjStoreCost re-exports objstore.CostModel: the latency, bandwidth,
// and per-request pricing of a simulated remote object store (see
// BundleOptions.ObjCost).
type ObjStoreCost = objstore.CostModel

// BundleOptions tunes how a bundle stores file bytes.
type BundleOptions struct {
	// Backend selects the byte store: "dir" (default, one host file
	// per simulated file), "cas" (content-addressed chunks with
	// dedup), or "obj" (a simulated remote object store with S3-like
	// semantics — write-back staging, multipart PUTs, priced requests
	// on its own remote timeline).
	Backend string
	// Compress flate-compresses cas chunks (ignored for "dir").
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
	// ObjCost prices the "obj" remote; nil or zero fields take
	// objstore.DefaultCost. Only the first Dial of an endpoint sets
	// its pricing.
	ObjCost *ObjStoreCost
	// Retry, when non-nil, wraps the bundle's backend in a store.Retry
	// decorator so transient backend faults (store.ErrUnavailable) are
	// masked by bounded backoff instead of failing the save or open.
	Retry *RetryPolicy
	// Faults, when non-nil, wraps the backend in a store.Faulty fault
	// injector beneath the retry layer — the test/bench hook for
	// driving the save/open path through torn writes, partial reads,
	// and transient unavailability.
	Faults *FaultConfig
	// DisableWAL skips the write-ahead log and nothing else: the save
	// still stages every object, syncs, and promotes by rename, but
	// writes no intent or commit records, hashes nothing and pays no log
	// fsyncs — so a crash mid-save can leave a hybrid bundle that no
	// recovery repairs. Only for pricing the log on ephemeral
	// directories.
	DisableWAL bool
	// Metrics, when non-nil, counts the bundle's store-backend
	// operations (namespace ops, errors, data-plane bytes) and WAL
	// records into the registry under "bundle.*". On open, the metered
	// backend stays installed beneath the cluster's file system, so the
	// run's backend traffic keeps counting.
	Metrics *obs.Registry

	// crashFn, set by crash-matrix tests, is called at every WAL
	// boundary of the save; a non-nil return aborts the save on the
	// spot, simulating a process killed at that boundary.
	crashFn func(point string) error
}

// crash fires the test crash hook at a named WAL boundary.
func (o *BundleOptions) crash(point string) error {
	if o.crashFn == nil {
		return nil
	}
	return o.crashFn(point)
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
	Format    int          `json:"format"`
	CreatedAt string       `json:"created_at"`
	Backend   string       `json:"backend"`
	Compress  bool         `json:"compress,omitempty"`
	ChunkSize int64        `json:"chunk_size,omitempty"`
	Endpoint  string       `json:"endpoint,omitempty"`
	PartSize  int64        `json:"part_size,omitempty"`
	Files     []bundleFile `json:"files"`
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
// what is not in it (GC, the migrate and fsck sweeps) stops on it.
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

// ---------------------------------------------------------------------------
// Per-directory serialization
// ---------------------------------------------------------------------------

// Bundle mutations (save, GC, recovery, fsck) on one directory must
// not interleave: a GC computing its live set from the manifest while
// a save is staging fresh objects would reclaim the save's data. One
// mutex per cleaned absolute path serializes them, so the manifest
// snapshot and the live-set computation happen under the same lock as
// any racing save.
var (
	bundleLocksMu sync.Mutex
	bundleLocks   = map[string]*sync.Mutex{}
)

func bundleLock(dir string) *sync.Mutex {
	key := dir
	if abs, err := filepath.Abs(dir); err == nil {
		key = abs
	}
	key = filepath.Clean(key)
	bundleLocksMu.Lock()
	defer bundleLocksMu.Unlock()
	mu := bundleLocks[key]
	if mu == nil {
		mu = &sync.Mutex{}
		bundleLocks[key] = mu
	}
	return mu
}

// bundleSpec pins everything needed to rebuild a bundle's byte store:
// the backend kind plus its kind-specific geometry. It travels in the
// manifest and in the WAL's begin record, so open, GC, fsck, and crash
// recovery all reconstruct the same store a save wrote through.
type bundleSpec struct {
	kind      string
	compress  bool
	chunkSize int64
	endpoint  string
	partSize  int64
	cost      *objstore.CostModel
}

func (o *BundleOptions) spec() bundleSpec {
	return bundleSpec{
		kind: o.Backend, compress: o.Compress, chunkSize: o.ChunkSize,
		endpoint: o.Endpoint, partSize: o.PartSize, cost: o.ObjCost,
	}
}

func (m *bundleManifest) spec() bundleSpec {
	return bundleSpec{
		kind: m.Backend, compress: m.Compress, chunkSize: m.ChunkSize,
		endpoint: m.Endpoint, partSize: m.PartSize,
	}
}

func beginSpec(r store.WALBeginRecord) bundleSpec {
	return bundleSpec{
		kind: r.Backend, compress: r.Compress, chunkSize: r.ChunkSize,
		endpoint: r.Endpoint, partSize: r.PartSize,
	}
}

// bundleEndpoint resolves an "obj" bundle's endpoint, deriving the
// per-directory default when none was chosen. The derivation is a pure
// function of the bundle path, so a save, a crash recovery, and a
// later open all dial the same simulated remote.
func bundleEndpoint(dir, endpoint string) string {
	if endpoint != "" {
		return endpoint
	}
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	return "sim://" + filepath.Clean(dir)
}

// bundleBackend constructs the byte store for a bundle directory,
// wrapped in the requested fault-injection and retry decorators
// (injection sits beneath retry, so retries mask injected faults).
// For "obj" specs the returned Service is the simulated remote behind
// the decorators — the hook for stats, metrics, and upload-session
// sweeps; it is nil for local kinds.
func bundleBackend(dir string, sp bundleSpec, faults *FaultConfig, retry *RetryPolicy) (store.Backend, *objstore.Service, error) {
	dataDir := filepath.Join(dir, bundleDataDir)
	var b store.Backend
	var svc *objstore.Service
	var err error
	switch sp.kind {
	case "dir":
		// Atomic writes: host-dir objects are staged in temp files and
		// promoted by fsync + rename at Sync, so host-dir bundles are
		// torn-write safe even outside the WAL path.
		b, err = store.NewDirOpts(dataDir, store.DirOptions{AtomicWrites: true})
	case "cas":
		b, err = store.OpenCAS(dataDir, store.CASOptions{ChunkSize: sp.chunkSize, Compress: sp.compress})
	case "obj":
		var cost objstore.CostModel
		if sp.cost != nil {
			cost = *sp.cost
		}
		svc = objstore.DialCost(bundleEndpoint(dir, sp.endpoint), cost)
		b = objstore.New(svc, objstore.Options{PartSize: sp.partSize, Retry: retry})
	default:
		return nil, nil, fmt.Errorf("sdm: unknown bundle backend %q (want \"dir\", \"cas\", or \"obj\")", sp.kind)
	}
	if err != nil {
		return nil, nil, err
	}
	if faults != nil {
		b = store.NewFaulty(b, *faults)
	}
	if retry != nil {
		b = store.WithRetry(b, *retry)
	}
	return b, svc, nil
}

// registerObjstoreMetrics publishes a remote's request ledger into the
// registry as objstore.* counters.
func registerObjstoreMetrics(r *obs.Registry, svc *objstore.Service) {
	if r == nil || svc == nil {
		return
	}
	r.RegisterSource("objstore", func(put func(key string, val int64)) {
		st := svc.Stats()
		put("requests", st.Requests)
		put("puts", st.Puts)
		put("gets", st.Gets)
		put("heads", st.Heads)
		put("lists", st.Lists)
		put("deletes", st.Deletes)
		put("copies", st.Copies)
		put("parts", st.Parts)
		put("part_retries", st.PartRetries)
		put("multipart_begun", st.MultipartBegun)
		put("multipart_completed", st.MultipartCompleted)
		put("multipart_aborted", st.MultipartAborted)
		put("condition_failures", st.ConditionFailures)
		put("transient_injected", st.TransientInjected)
		put("bytes_in", st.BytesIn)
		put("bytes_out", st.BytesOut)
		put("remote_ms", st.RemoteTime.Milliseconds())
		put("cost_microcents", st.CostMicrocents)
	})
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renamed entries inside it are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func sha256hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

// saveBundle copies the cluster's catalog and file bytes into dir,
// crash-consistently unless opts.DisableWAL.
func saveBundle(cl *Cluster, dir string, opts BundleOptions) error {
	if opts.Backend == "" {
		opts.Backend = "dir"
	}
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
	b, svc, err := bundleBackend(dir, opts.spec(), opts.Faults, opts.Retry)
	if err != nil {
		return err
	}
	b = meterBackend(b, opts.Metrics)
	registerObjstoreMetrics(opts.Metrics, svc)

	// Snapshot the cluster: file bytes and the catalog dump, hashed so
	// the WAL's intent records pin content, not just names.
	//
	// List through the backend directly so namespace errors surface
	// (pfs.List's no-error signature would silently read as an empty
	// cluster — and the stale-object sweep must never run on a
	// spuriously empty listing).
	names, err := cl.FS.Backend().List()
	if err != nil {
		return fmt.Errorf("sdm: listing cluster files: %w", err)
	}
	plan := make([]bundlePlanEntry, 0, len(names))
	m := bundleManifest{
		Format:    bundleFormat,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Backend:   opts.Backend,
		Compress:  opts.Compress,
		ChunkSize: opts.ChunkSize,
	}
	if opts.Backend == "obj" {
		m.Endpoint = bundleEndpoint(dir, opts.Endpoint)
		m.PartSize = opts.PartSize
	}
	for _, name := range names {
		data, err := cl.FS.ReadFile(name)
		if err != nil {
			return fmt.Errorf("sdm: reading %q for bundle: %w", name, err)
		}
		plan = append(plan, bundlePlanEntry{name: name, data: data})
		m.Files = append(m.Files, bundleFile{Name: name, Size: int64(len(data))})
	}
	var catBuf bytes.Buffer
	if err := cl.DB.Save(&catBuf); err != nil {
		return fmt.Errorf("sdm: saving bundle catalog: %w", err)
	}
	manifestJSON, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return err
	}
	manifestJSON = append(manifestJSON, '\n')

	if err := writeBundleWAL(dir, b, plan, catBuf.Bytes(), manifestJSON, &opts); err != nil {
		return err
	}
	if r := opts.Metrics; r != nil {
		r.Counter("bundle.saves").Add(1)
	}
	return nil
}

// writeBundleWAL runs the 3-phase crash-consistent commit of a bundle:
// intents durable in the log before any data moves, all data staged
// under scratch names, a sealed commit record, then the idempotent
// apply. plan holds the files to (re)write; manifestJSON may name more
// files than plan stages — an incremental commit (MigrateBundle's
// delta) keeps the unchanged ones in place, protected from the apply
// sweep by the manifest inventory. Shared verbatim by SaveBundle and
// MigrateBundle so both get the same crash boundaries. With
// opts.DisableWAL the log is the nil *store.WAL, which records nothing:
// the same staging, syncs and renames run without intent records,
// content hashes or log fsyncs.
func writeBundleWAL(dir string, b store.Backend, plan []bundlePlanEntry, catBytes, manifestJSON []byte, opts *BundleOptions) error {
	// Intent phase: every record describing the new bundle is durable
	// in the log before a single data byte moves.
	var w *store.WAL
	hash := func([]byte) string { return "" }
	if !opts.DisableWAL {
		var err error
		if w, err = store.CreateWAL(filepath.Join(dir, bundleWALName)); err != nil {
			return err
		}
		defer w.Close()
		hash = sha256hex
	}
	beginRec := store.WALBeginRecord{
		Format: bundleFormat, Backend: opts.Backend, Compress: opts.Compress, ChunkSize: opts.ChunkSize,
	}
	if opts.Backend == "obj" {
		beginRec.Endpoint = bundleEndpoint(dir, opts.Endpoint)
		beginRec.PartSize = opts.PartSize
	}
	if err := w.Append(store.WALBegin, beginRec); err != nil {
		return err
	}
	if err := opts.crash("wal-begin"); err != nil {
		return err
	}
	puts := make([]store.WALPutRecord, len(plan))
	for i, e := range plan {
		puts[i] = store.WALPutRecord{
			Name:   e.name,
			Stage:  bundleStagePrefix + e.name,
			Size:   int64(len(e.data)),
			SHA256: hash(e.data),
		}
		if err := w.Append(store.WALPut, puts[i]); err != nil {
			return err
		}
		if err := opts.crash("wal-put:" + e.name); err != nil {
			return err
		}
	}
	if err := w.Append(store.WALCatalog, store.WALCatalogRecord{
		Stage: bundleCatalogStage, SHA256: hash(catBytes),
	}); err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		return err
	}
	if err := opts.crash("wal-intents-synced"); err != nil {
		return err
	}

	// Staging phase: all data lands under scratch names; the old
	// bundle's objects are never touched.
	for i, e := range plan {
		if _, err := b.Stat(puts[i].Stage); err == nil {
			if err := b.Remove(puts[i].Stage); err != nil {
				return fmt.Errorf("sdm: clearing stale stage %q: %w", puts[i].Stage, err)
			}
		}
		obj, err := b.Create(puts[i].Stage)
		if err != nil {
			return fmt.Errorf("sdm: staging %q in bundle: %w", e.name, err)
		}
		if len(e.data) > 0 {
			if _, err := obj.WriteAt(e.data, 0); err != nil {
				return fmt.Errorf("sdm: staging %q in bundle: %w", e.name, err)
			}
		}
		if err := opts.crash("stage:" + e.name); err != nil {
			return err
		}
	}
	if err := writeFileSync(filepath.Join(dir, bundleCatalogStage), catBytes); err != nil {
		return fmt.Errorf("sdm: staging bundle catalog: %w", err)
	}
	if err := opts.crash("stage-catalog"); err != nil {
		return err
	}
	if err := b.Sync(); err != nil {
		return fmt.Errorf("sdm: syncing staged bundle data: %w", err)
	}
	if err := opts.crash("data-synced"); err != nil {
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
	if err := opts.crash("wal-committed"); err != nil {
		return err
	}
	if err := applyWAL(dir, b, puts, bundleCatalogStage, manifestJSON, opts.crashFn); err != nil {
		return err
	}
	if r := opts.Metrics; r != nil && w != nil {
		// begin + one put per file + catalog + commit.
		r.Counter("bundle.wal.records").Add(int64(len(puts)) + 3)
	}
	return w.Close()
}

// bundlePlanEntry is one file of a save's snapshot.
type bundlePlanEntry struct {
	name string
	data []byte
}

// ---------------------------------------------------------------------------
// Apply / recovery
// ---------------------------------------------------------------------------

// applyWAL is the roll-forward half of the protocol, run by the save
// itself after its commit record and re-run verbatim by recovery after
// a crash. Every step is idempotent: staged objects still present are
// promoted by rename; already-promoted objects are verified in place;
// sweeps ignore what is already gone.
func applyWAL(dir string, b store.Backend, puts []store.WALPutRecord, catStage string, manifestJSON []byte, crashFn func(string) error) error {
	crash := func(point string) error {
		if crashFn == nil {
			return nil
		}
		return crashFn(point)
	}
	// The keep-set is the union of this save's puts and the manifest's
	// full inventory: an incremental save (MigrateBundle's delta) only
	// stages changed files, and the sweep must not reclaim the
	// unchanged ones the manifest still names.
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
		if _, err := b.Stat(p.Stage); err == nil {
			if err := b.Rename(p.Stage, p.Name); err != nil {
				return fmt.Errorf("sdm: promoting %q: %w", p.Name, err)
			}
		} else {
			// Promoted by an earlier apply pass; verify it landed whole.
			sz, err := b.Stat(p.Name)
			if err != nil {
				return fmt.Errorf("sdm: bundle apply: %q neither staged nor promoted: %w", p.Name, err)
			}
			if sz != p.Size {
				return fmt.Errorf("sdm: bundle apply: %q has size %d, wal intent says %d", p.Name, sz, p.Size)
			}
		}
		if err := crash("apply-rename:" + p.Name); err != nil {
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
	if err := crash("apply-sweep"); err != nil {
		return err
	}
	if err := b.Sync(); err != nil {
		return fmt.Errorf("sdm: syncing bundle data: %w", err)
	}
	if err := crash("apply-data-synced"); err != nil {
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
	if err := crash("apply-catalog"); err != nil {
		return err
	}
	tmp := filepath.Join(dir, bundleManifestName+".tmp")
	if err := writeFileSync(tmp, manifestJSON); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, bundleManifestName)); err != nil {
		return err
	}
	if err := crash("apply-manifest"); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// A save without a log (BundleOptions.DisableWAL) has none to retire.
	if err := os.Remove(filepath.Join(dir, bundleWALName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// rollbackWAL undoes an uncommitted save: staged objects and the
// staged catalog are deleted; the old bundle was never touched. For
// remote ("obj") bundles the sweep also aborts abandoned multipart
// upload sessions — a crashed client's half-staged parts — since the
// simulated remote outlives the process that died.
func rollbackWAL(dir string, haveBegin bool, begin store.WALBeginRecord, catStage string) error {
	sp := beginSpec(begin)
	if !haveBegin {
		// A log torn before its begin record survived names no backend,
		// but the save may still have staged objects (the log could have
		// been torn by corruption, not just an early kill). Learn the
		// backend from the previous manifest, or failing that from the
		// data dir's shape — a cas root carries objects.json.
		if m, err := readManifest(dir); err == nil {
			sp = m.spec()
		}
		if sp.kind == "" {
			if _, err := os.Stat(filepath.Join(dir, bundleDataDir, "objects.json")); err == nil {
				sp.kind = "cas"
			} else {
				sp.kind = "dir"
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, bundleDataDir)); err == nil || sp.kind == "obj" {
		b, svc, err := bundleBackend(dir, sp, nil, nil)
		if err != nil {
			return err
		}
		if svc != nil {
			svc.AbortAllUploads()
		}
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
	b, svc, err := bundleBackend(dir, beginSpec(begin), nil, nil)
	if err != nil {
		return err
	}
	if svc != nil {
		// Sessions left by the crashed save can never complete — the
		// commit record already pins what was staged — so sweep them
		// before rolling forward.
		svc.AbortAllUploads()
	}
	return applyWAL(dir, b, puts, catStage, manifestJSON, nil)
}

// RecoverBundle finishes or rolls back an interrupted SaveBundle in
// dir: a save that reached its WAL commit point is rolled forward to
// the new bundle, anything earlier is rolled back to the old one.
// OpenBundle runs it implicitly; sdmfsck runs it under -repair.
func RecoverBundle(dir string) error {
	mu := bundleLock(dir)
	mu.Lock()
	defer mu.Unlock()
	return recoverBundleLocked(dir, nil)
}

// ---------------------------------------------------------------------------
// GC
// ---------------------------------------------------------------------------

// GCBundle garbage-collects a saved bundle's storage, driven by its
// manifest: objects the manifest does not name are removed, and for
// content-addressed bundles the chunk pool is swept — refcounts are
// verified and on-disk chunk files no live object references (left by
// an interrupted save) are reclaimed. The bundle's durable state is
// re-synced afterwards, so a following OpenBundle sees exactly the
// manifest's files. GC holds the bundle lock for its whole run: the
// manifest snapshot and the live-set computation are atomic against a
// racing SaveBundle, so a save's freshly staged objects can never be
// swept.
func GCBundle(dir string) (store.GCStats, error) {
	var st store.GCStats
	mu := bundleLock(dir)
	mu.Lock()
	defer mu.Unlock()
	if err := recoverBundleLocked(dir, nil); err != nil {
		return st, fmt.Errorf("sdm: recovering before gc: %w", err)
	}
	m, err := readManifest(dir)
	if err != nil {
		return st, fmt.Errorf("sdm: bundle gc: %w", err)
	}
	live := make(map[string]bool, len(m.Files))
	for _, f := range m.Files {
		live[f.Name] = true
	}
	b, _, err := bundleBackend(dir, m.spec(), nil, nil)
	if err != nil {
		return st, err
	}
	if cas, ok := b.(*store.CAS); ok {
		if st, err = cas.GC(func(name string) bool { return live[name] }); err != nil {
			return st, fmt.Errorf("sdm: bundle gc: %w", err)
		}
	} else {
		names, err := b.List()
		if err != nil {
			return st, fmt.Errorf("sdm: bundle gc listing: %w", err)
		}
		for _, n := range names {
			if live[n] {
				continue
			}
			if err := b.Remove(n); err != nil {
				return st, fmt.Errorf("sdm: bundle gc removing %q: %w", n, err)
			}
			st.ObjectsRemoved++
		}
	}
	if err := b.Sync(); err != nil {
		return st, fmt.Errorf("sdm: bundle gc sync: %w", err)
	}
	return st, nil
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
	msp := m.spec()
	msp.cost = opts.ObjCost
	b, svc, err := bundleBackend(dir, msp, opts.Faults, opts.Retry)
	if err != nil {
		return nil, err
	}
	b = meterBackend(b, opts.Metrics)
	registerObjstoreMetrics(opts.Metrics, svc)
	if r := opts.Metrics; r != nil {
		r.Counter("bundle.opens").Add(1)
	}
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
		FS:      pfs.NewSystemOn(cfg.Storage, b),
		DB:      db,
		Catalog: cat,
	}, nil
}
