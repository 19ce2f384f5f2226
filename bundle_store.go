package sdm

import (
	"fmt"
	"os"
	"path/filepath"

	"sdm/internal/obs"
	"sdm/internal/store"
	"sdm/internal/store/objstore"
)

// This file is the bundle layer's one seam to its byte store: the only
// place that names a backend kind or a kind's concrete type. Save,
// migrate, recovery, GC and fsck work on a bundleStore and never ask
// which kind it is (CI greps the rest of the package for the names).

// bundleStore is a bundle directory's byte store, decorated as the
// options ask, plus the few things the protocol needs that differ by
// kind — as plain functions, so callers call them whatever the kind.
type bundleStore struct {
	store.Backend
	// spec describes the store as the manifest and the write-ahead log's
	// begin record carry it, so that whoever reads either reopens this
	// store: only the fields the kind uses, the endpoint resolved.
	spec store.Spec
	// gc removes every object live does not name and whatever else the
	// kind strands (cas: chunk files no live object references).
	gc func(live func(name string) bool) (store.GCStats, error)
	// audit is fsck's kind-specific phase, after the inventory check.
	audit func(rep *FsckReport, live func(name string) bool, repair bool)
	// abortUploads discards the upload sessions a dead writer left on a
	// remote, which outlives the process that died. Callers hold the
	// bundle lock, so no live save owns a session.
	abortUploads func()
}

// spec collects the store description a save or migration was asked for.
func (o *BundleOptions) spec() store.Spec {
	sp := store.Spec{
		Backend: o.Backend, Compress: o.Compress, ChunkSize: o.ChunkSize,
		Endpoint: o.Endpoint, PartSize: o.PartSize,
	}
	if sp.Backend == "" {
		sp.Backend = "dir"
	}
	return sp
}

// openBundleStore constructs the byte store sp names for a bundle
// directory. opts, which may be nil, supplies what is not part of the
// description: the fault-injection and retry decorators (injection sits
// beneath retry, so retries mask injected faults) and the metrics
// registry (metering sits on top, so a retried call counts once).
func openBundleStore(dir string, sp store.Spec, opts *BundleOptions) (*bundleStore, error) {
	if opts == nil {
		opts = &BundleOptions{}
	}
	dataDir := filepath.Join(dir, bundleDataDir)
	st := &bundleStore{
		audit:        func(*FsckReport, func(string) bool, bool) {},
		abortUploads: func() {},
	}
	st.gc = func(live func(string) bool) (store.GCStats, error) { return sweepUnnamed(st.Backend, live) }
	switch sp.Backend {
	case "dir":
		b, err := store.NewDir(dataDir)
		if err != nil {
			return nil, err
		}
		st.Backend = b
		sp.Endpoint, sp.PartSize = "", 0
	case "cas":
		cas, err := store.OpenCAS(dataDir, store.CASOptions{ChunkSize: sp.ChunkSize, Compress: sp.Compress})
		if err != nil {
			return nil, err
		}
		st.Backend = cas
		sp.Endpoint, sp.PartSize = "", 0
		st.gc = cas.GC
		st.audit = func(rep *FsckReport, live func(string) bool, repair bool) { auditCAS(cas, rep, live, repair) }
	case "obj":
		// The endpoint defaults to a pure function of the bundle path, so
		// a save, a crash recovery, and a later open all dial the same
		// simulated remote.
		sp.Endpoint = bundleEndpoint(dir, sp.Endpoint)
		svc := objstore.Dial(sp.Endpoint)
		st.Backend = objstore.New(svc, objstore.Options{PartSize: sp.PartSize, Retry: opts.Retry})
		st.audit = func(rep *FsckReport, _ func(string) bool, repair bool) { auditUploads(svc, rep, repair) }
		st.abortUploads = func() { svc.AbortAllUploads() }
		registerObjstoreMetrics(opts.Metrics, svc)
	default:
		return nil, fmt.Errorf("sdm: unknown bundle backend %q (want \"dir\", \"cas\", or \"obj\")", sp.Backend)
	}
	st.spec = sp
	if opts.Faults != nil {
		st.Backend = store.NewFaulty(st.Backend, *opts.Faults)
	}
	if opts.Retry != nil {
		st.Backend = store.WithRetry(st.Backend, *opts.Retry)
	}
	if opts.Metrics != nil {
		st.Backend = store.Wrap(st.Backend, meterHook(opts.Metrics))
	}
	return st, nil
}

// bundleEndpoint resolves a remote bundle's endpoint, deriving the
// per-directory default when none was chosen.
func bundleEndpoint(dir, endpoint string) string {
	if endpoint != "" {
		return endpoint
	}
	return "sim://" + bundlePath(dir)
}

// guessSpec names a local store from the data dir's shape, for a rollback
// that has neither a begin record nor a manifest to learn it from: a cas
// root carries objects.json.
func guessSpec(dir string) store.Spec {
	if _, err := os.Stat(filepath.Join(dir, bundleDataDir, "objects.json")); err == nil {
		return store.Spec{Backend: "cas"}
	}
	return store.Spec{Backend: "dir"}
}

// sweepUnnamed is the gc of a store with no structure beyond its
// namespace: list, and remove what live does not name.
func sweepUnnamed(b store.Backend, live func(string) bool) (store.GCStats, error) {
	var gs store.GCStats
	names, err := b.List()
	if err != nil {
		return gs, fmt.Errorf("listing: %w", err)
	}
	for _, n := range names {
		if live(n) {
			continue
		}
		if err := b.Remove(n); err != nil {
			return gs, fmt.Errorf("removing %q: %w", n, err)
		}
		gs.ObjectsRemoved++
	}
	return gs, nil
}

// auditCAS is fsck's content-addressed phase: the chunk refcount audit
// and the orphan chunk-file scan (repair reclaims them via GC).
func auditCAS(cas *store.CAS, rep *FsckReport, live func(string) bool, repair bool) {
	if err := cas.CheckRefs(); err != nil {
		rep.errorf("cas refcount audit: %v", err)
	}
	orphans, err := cas.OrphanChunkFiles()
	if err != nil {
		rep.errorf("cas orphan scan: %v", err)
		return
	}
	if orphans == 0 {
		return
	}
	rep.Orphans += orphans
	if !repair {
		rep.errorf("cas: %d orphan chunk files on disk (repair reclaims them)", orphans)
		return
	}
	gs, err := cas.GC(live)
	if err != nil {
		rep.errorf("cas gc: %v", err)
		return
	}
	rep.repairedf("cas gc reclaimed %d orphan chunk files (%d chunks, %d bytes)",
		gs.OrphansRemoved, gs.ChunksReclaimed, gs.BytesReclaimed)
}

// auditUploads is fsck's remote phase: multipart sessions no live save
// owns — half-staged parts a crashed save left behind (the bundle lock
// is held, so any session seen here is abandoned).
func auditUploads(svc *objstore.Service, rep *FsckReport, repair bool) {
	abandoned := svc.AbandonedUploads()
	if len(abandoned) == 0 {
		return
	}
	if repair {
		svc.AbortAllUploads()
		rep.repairedf("objstore: aborted %d abandoned multipart upload(s)", len(abandoned))
		return
	}
	for id, key := range abandoned {
		rep.errorf("objstore: abandoned multipart upload %s targeting %q (repair aborts it)", id, key)
	}
}

// meterHook counts a store's traffic into the registry under
// "bundle.store.*": namespace calls and their failures, and the bytes
// reads and writes moved. It is built here so that package store stays
// free of any observability dependency.
func meterHook(r *obs.Registry) store.Hook {
	ops, errs := r.Counter("bundle.store.ops"), r.Counter("bundle.store.errors")
	read, written := r.Counter("bundle.store.bytes-read"), r.Counter("bundle.store.bytes-written")
	return func(c store.Call) (int, error) {
		n, err := c.Do()
		switch c.Op {
		case store.OpRead:
			read.Add(int64(n))
		case store.OpWrite:
			written.Add(int64(n))
		default:
			ops.Add(1)
			if err != nil {
				errs.Add(1)
			}
		}
		return n, err
	}
}

// registerObjstoreMetrics publishes a remote's request ledger into the
// registry as objstore.* counters.
func registerObjstoreMetrics(r *obs.Registry, svc *objstore.Service) {
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
