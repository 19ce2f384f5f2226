// Package server implements sdmd, the network-attached face of SDM:
// an HTTP daemon that owns one or more opened run bundles (metadata
// catalog + store-backed file bytes) and serves them to many
// concurrent clients. The paper's SDM is a single-process library
// where a "second user" is a second process opening the bundle
// directory; sdmd turns that into a service — run and dataset listing,
// server-side batched LookupWrites, and streamed ranged dataset reads
// that name their bundle and run, through a bounded read-through block
// cache (LRU over file blocks, singleflight on miss), so N readers of a
// hot timestep cost one backend read, not N.
//
// Layering (in the style of datamon's httpd/web/sdk split): this
// package is the daemon core over internal/catalog + internal/pfs;
// internal/wire declares the protocol types, the catalog's six row types
// among them (declared once: what a query returns is what a handler
// marshals); sdmclient is the thin SDK; cmd/sdmd is the process wrapper. The server only ever reads its
// sources — bundles are quiescent while mounted — which is what makes
// lock-free sharing of cached blocks sound.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sdm/internal/catalog"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
	"sdm/internal/store"
	"sdm/internal/wire"
)

// Source is a bundle opened in this process: the metadata catalog
// resolving names to placements and the file system holding the bytes.
// It reads the catalog with nil clocks (a reader outside the simulated
// job has no rank clock to charge) and the bytes directly from the store
// backend beneath the pfs — both paths are safe for concurrent readers.
//
// Its methods are *sdmclient.Client's, signature for signature, and
// return the catalog's rows unconverted: the handlers below reply with
// what they return, and sdmcat and sdmls hold either one behind a
// wire.Reader. A Source with no FS (sdmls over a bare catalog.db) lists
// everything and reads nothing; Mount refuses it.
type Source struct {
	Catalog *catalog.Catalog
	FS      *pfs.System
}

var _ wire.Reader = Source{}

// Runs lists run_table.
func (src Source) Runs() ([]wire.Run, error) { return src.Catalog.Runs(nil) }

// Histories lists index_table.
func (src Source) Histories() ([]wire.IndexHistory, error) { return src.Catalog.Histories(nil) }

// Datasets lists a run's access_pattern_table rows.
func (src Source) Datasets(run int64) ([]wire.Dataset, error) {
	return listRun(src, run, src.Catalog.Datasets)
}

// Writes lists a run's execution_table rows.
func (src Source) Writes(run int64) ([]wire.WriteRecord, error) {
	return listRun(src, run, src.Catalog.WritesForRun)
}

// Imports lists a run's import_table rows.
func (src Source) Imports(run int64) ([]wire.ImportEntry, error) {
	return listRun(src, run, src.Catalog.Imports)
}

// listRun runs one per-run catalog listing; a run the bundle does not
// hold is catalog.NotFound, not an empty list.
func listRun[T any](src Source, run int64, list func(*sim.Clock, int64) ([]T, error)) ([]T, error) {
	if _, err := src.Catalog.FindRun(nil, run); err != nil {
		return nil, err
	}
	return list(nil, run)
}

// Lookup resolves a batch of placements in one catalog call; missing
// slabs are nil slots, in key order.
func (src Source) Lookup(run int64, keys []wire.WriteKey) ([]*wire.WriteRecord, error) {
	if _, err := src.Catalog.FindRun(nil, run); err != nil {
		return nil, err
	}
	return src.Catalog.LookupWrites(nil, run, keys)
}

// ReadDataset reads one timestep's full slab of a dataset straight from
// the store object holding it (the store contract zero-fills holes, as
// the pfs read path does).
func (src Source) ReadDataset(run int64, dataset string, timestep int64) ([]byte, error) {
	info, rec, err := src.Catalog.Slab(nil, run, dataset, timestep)
	if err != nil {
		return nil, err
	}
	obj, err := src.FS.Backend().Open(rec.FileName)
	if err != nil {
		return nil, fmt.Errorf("opening %q: %w", rec.FileName, err)
	}
	full := info.Bytes()
	if err := slabInside(rec, full, obj.Size()); err != nil {
		return nil, err
	}
	return fetch(obj, rec.FileOffset, full)
}

// slabInside refuses a placement its file cannot hold: the catalog row
// is outside input as much as a query string is. Checked as
// full > size-off, never off+full, which an offset near 2^63 wraps
// negative to slip past.
func slabInside(rec *wire.WriteRecord, full, size int64) error {
	if rec.FileOffset < 0 || full < 0 || full > size-rec.FileOffset {
		return errRange("file %q holds %d bytes, slab needs %d at offset %d",
			rec.FileName, size, full, rec.FileOffset)
	}
	return nil
}

// fetch reads exactly [off, off+n) of a store object.
func fetch(obj store.Object, off, n int64) ([]byte, error) {
	buf := make([]byte, n)
	got, err := obj.ReadAt(buf, off)
	if err == io.EOF && int64(got) == n {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// mount wraps a Source with the server's per-bundle state: a cache of
// opened store objects so block fetches don't re-open the backing
// object per block.
type mount struct {
	name string
	src  Source

	mu   sync.RWMutex
	objs map[string]store.Object
}

// object returns the store object behind a simulated file, opening and
// caching it on first touch, along with its size. The hit path takes
// only a read lock, so concurrent readers of mounted bundles don't
// serialize here; the open-and-insert path double-checks under the
// write lock.
func (m *mount) object(name string) (store.Object, int64, error) {
	m.mu.RLock()
	obj, ok := m.objs[name]
	m.mu.RUnlock()
	if ok {
		return obj, obj.Size(), nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if obj, ok := m.objs[name]; ok {
		return obj, obj.Size(), nil
	}
	obj, err := m.src.FS.Backend().Open(name)
	if err != nil {
		return nil, 0, err
	}
	m.objs[name] = obj
	return obj, obj.Size(), nil
}

// Config tunes a Server.
type Config struct {
	// CacheBytes bounds the block cache (default DefaultCacheBytes).
	CacheBytes int64
	// BlockSize is the cache granularity (default DefaultBlockSize).
	BlockSize int64
	// Metrics, when non-nil, receives the server's counters and gauges
	// under "server.*" and is dumped by GET /v1/metrics.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one span per request on the
	// obs.PidSDMD track. sdmd spans carry host time (ns since the
	// server started), not simulated time.
	Tracer *obs.Tracer
}

// Server is the sdmd daemon core. It implements http.Handler; wrap it
// in an http.Server (or httptest.Server) to serve. All methods are
// safe for concurrent use.
type Server struct {
	mu     sync.RWMutex
	mounts map[string]*mount
	order  []string // mount order; order[0] is the default bundle

	cache *BlockCache
	mux   *http.ServeMux

	metrics *obs.Registry
	tracer  *obs.Tracer
	started time.Time

	requests, errcount *obs.Counter
	bytesServed        *obs.Counter
	reads              *obs.Counter
	lookups            *obs.Counter
	latency            *obs.Histogram
}

// New builds a Server; mount bundles with Mount before serving.
func New(cfg Config) *Server {
	s := &Server{
		mounts:  make(map[string]*mount),
		cache:   NewBlockCache(cfg.BlockSize, cfg.CacheBytes),
		metrics: cfg.Metrics,
		tracer:  cfg.Tracer,
		started: time.Now(),
	}
	if r := cfg.Metrics; r != nil {
		s.requests = r.Counter("server.requests")
		s.errcount = r.Counter("server.errors")
		s.bytesServed = r.Counter("server.bytes-served")
		s.reads = r.Counter("server.reads")
		s.lookups = r.Counter("server.lookup-keys")
		s.latency = r.Histogram("server.request-ns")
		s.cache.RegisterMetrics(r)
	}
	if s.tracer != nil {
		s.tracer.NameProcess(obs.PidSDMD, "sdmd")
	}
	s.routes()
	return s
}

// Mount attaches a bundle's source under a name. The first mount is
// the default bundle for requests without ?bundle=. Mount before
// serving; mounting a name twice is an error.
func (s *Server) Mount(name string, src Source) error {
	if name == "" {
		return errors.New("server: mount name must be non-empty")
	}
	if src.Catalog == nil || src.FS == nil {
		return errors.New("server: mount needs a catalog and a file system")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.mounts[name]; dup {
		return fmt.Errorf("server: bundle %q already mounted", name)
	}
	s.mounts[name] = &mount{name: name, src: src, objs: make(map[string]store.Object)}
	s.order = append(s.order, name)
	return nil
}

// Bundles reports the mounted bundle names in mount order.
func (s *Server) Bundles() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// CacheStats snapshots the block cache.
func (s *Server) CacheStats() wire.CacheStats { return s.cache.Stats() }

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/ping", s.handlePing)
	mux.HandleFunc("GET /v1/runs", bundleListing(s, Source.Runs))
	mux.HandleFunc("GET /v1/runs/{run}/datasets", runListing(s, Source.Datasets))
	mux.HandleFunc("GET /v1/runs/{run}/writes", runListing(s, Source.Writes))
	mux.HandleFunc("GET /v1/runs/{run}/imports", runListing(s, Source.Imports))
	mux.HandleFunc("GET /v1/histories", bundleListing(s, Source.Histories))
	mux.HandleFunc("POST /v1/runs/{run}/lookup", s.handleLookup)
	mux.HandleFunc("GET /v1/read/{run}/{dataset}/{timestep}", s.handleRead)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	// Everything else — an unknown path, or a known one under a method it
	// does not serve — gets the protocol's error envelope, not net/http's
	// text/plain 404 and 405 (FuzzServeHTTP's first finding).
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fail(w, errNotFound("no endpoint %s %s", r.Method, r.URL.Path))
	})
	s.mux = mux
}

// statusWriter remembers the status code for metrics and tracing.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP dispatches a request with per-request instrumentation: a
// request counter, an error counter, a latency histogram, and — when a
// tracer is installed — one span per request on the sdmd track.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(t0)
	s.requests.Add(1)
	if sw.code >= 400 {
		s.errcount.Add(1)
	}
	s.latency.Observe(sim.Duration(elapsed))
	if s.tracer != nil {
		start := sim.Time(t0.Sub(s.started))
		s.tracer.Emit(obs.PidSDMD, "sdmd", r.Method+" "+r.URL.Path,
			start, start+sim.Time(elapsed),
			obs.KV{Key: "status", Val: strconv.Itoa(sw.code)})
	}
}

// httpError is a status-coded error on its way to the wire.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errNotFound(format string, args ...any) *httpError {
	return &httpError{http.StatusNotFound, wire.CodeNotFound, fmt.Sprintf(format, args...)}
}

func errBadRequest(format string, args ...any) *httpError {
	return &httpError{http.StatusBadRequest, wire.CodeBadRequest, fmt.Sprintf(format, args...)}
}

func errRange(format string, args ...any) *httpError {
	return &httpError{http.StatusRequestedRangeNotSatisfiable, wire.CodeRange, fmt.Sprintf(format, args...)}
}

// refusal maps an error to the status and code it is answered with: a
// typed refusal as it is, catalog.NotFound as 404, anything else as 500.
func refusal(err error) *httpError {
	he, ok := err.(*httpError)
	var missing catalog.NotFound
	switch {
	case ok:
	case errors.As(err, &missing):
		he = errNotFound("%s", string(missing))
	default:
		he = &httpError{http.StatusInternalServerError, wire.CodeInternal, err.Error()}
	}
	return he
}

// fail writes the error envelope.
func fail(w http.ResponseWriter, err error) {
	he := refusal(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(he.status)
	_ = json.NewEncoder(w).Encode(wire.Error{Code: he.code, Message: he.msg})
}

// reply writes a JSON response. A row that will not encode (a run_table
// stamp outside the years JSON times can carry) fails before the encoder
// writes anything, so it is still answered with the error envelope.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	var unencodable *json.MarshalerError
	if err := json.NewEncoder(w).Encode(v); errors.As(err, &unencodable) {
		fail(w, err)
	}
}

// bundleFor resolves the request's ?bundle= (default: first mount).
func (s *Server) bundleFor(r *http.Request) (*mount, error) {
	name := r.URL.Query().Get("bundle")
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.order) == 0 {
			return nil, errNotFound("no bundles mounted")
		}
		return s.mounts[s.order[0]], nil
	}
	m, ok := s.mounts[name]
	if !ok {
		return nil, errNotFound("bundle %q not mounted", name)
	}
	return m, nil
}

// pathInt64 parses a {name} path value as an integer.
func pathInt64(r *http.Request, name string) (int64, error) {
	v, err := strconv.ParseInt(r.PathValue(name), 10, 64)
	if err != nil {
		return 0, errBadRequest("bad %s %q", name, r.PathValue(name))
	}
	return v, nil
}

// runFor is the preamble of every /{run}/ handler: the request's bundle
// and its run id. Whether the bundle holds that run is the Source
// method's answer.
func (s *Server) runFor(r *http.Request) (*mount, int64, error) {
	m, err := s.bundleFor(r)
	if err != nil {
		return nil, 0, err
	}
	run, err := pathInt64(r, "run")
	return m, run, err
}

// ---------------------------------------------------------------------------
// Metadata handlers: parse the request, call the Source, reply with the
// rows it returned.
// ---------------------------------------------------------------------------

func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	reply(w, wire.Ping{OK: true, Bundles: s.Bundles()})
}

// bundleListing serves a bundle-wide table.
func bundleListing[T any](s *Server, list func(Source) ([]T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m, err := s.bundleFor(r)
		if err != nil {
			fail(w, err)
			return
		}
		rows, err := list(m.src)
		if err != nil {
			fail(w, err)
			return
		}
		reply(w, rows)
	}
}

// runListing serves one run's rows of a table.
func runListing[T any](s *Server, list func(Source, int64) ([]T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m, run, err := s.runFor(r)
		if err != nil {
			fail(w, err)
			return
		}
		rows, err := list(m.src, run)
		if err != nil {
			fail(w, err)
			return
		}
		reply(w, rows)
	}
}

// handleLookup is the server-side batched LookupWrites: the whole key
// batch resolves in one catalog call, one round trip, one JSON body.
func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	m, run, err := s.runFor(r)
	if err != nil {
		fail(w, err)
		return
	}
	var req wire.LookupRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		fail(w, errBadRequest("bad lookup body: %v", err))
		return
	}
	recs, err := m.src.Lookup(run, req.Keys)
	if err != nil {
		fail(w, err)
		return
	}
	s.lookups.Add(int64(len(req.Keys)))
	reply(w, wire.LookupResponse{Records: recs})
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

// handleRead streams a dataset slab (or a ranged piece of it) through
// the block cache. The slab is resolved by catalog.Slab, as a local
// Source.ReadDataset resolves it, so remote bytes are pinned identical
// to a local bundle read.
func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	m, runID, err := s.runFor(r)
	if err != nil {
		fail(w, err)
		return
	}
	ts, err := pathInt64(r, "timestep")
	if err != nil {
		fail(w, err)
		return
	}
	dataset := r.PathValue("dataset")

	info, rec, err := m.src.Catalog.Slab(nil, runID, dataset, ts)
	if err != nil {
		fail(w, err)
		return
	}

	full := info.Bytes()
	off, n := int64(0), full
	q := r.URL.Query()
	if v := q.Get("off"); v != "" {
		if off, err = strconv.ParseInt(v, 10, 64); err != nil {
			fail(w, errBadRequest("bad off %q", v))
			return
		}
	}
	if v := q.Get("len"); v != "" {
		if n, err = strconv.ParseInt(v, 10, 64); err != nil {
			fail(w, errBadRequest("bad len %q", v))
			return
		}
	} else {
		n = full - off
	}
	// Checked as off > full, n > full-off — never off+n, which a
	// crafted query (both near 2^62) wraps negative to slip past.
	if off < 0 || n < 0 || off > full || n > full-off {
		fail(w, errRange("range off=%d len=%d outside dataset %q of %d bytes", off, n, dataset, full))
		return
	}

	obj, size, err := m.object(rec.FileName)
	if err != nil {
		fail(w, fmt.Errorf("opening %q: %w", rec.FileName, err))
		return
	}
	if err := slabInside(rec, full, size); err != nil {
		fail(w, err)
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.Header().Set("X-Sdm-Data-Type", info.DataType)
	w.Header().Set("X-Sdm-Global-Size", strconv.FormatInt(info.GlobalSize, 10))
	s.reads.Add(1)

	// Cache keys are bundle-qualified file names; fetches read the
	// store object directly, so bytes match a local read exactly.
	cacheFile := m.name + "\x00" + rec.FileName
	written, err := s.cache.WriteRange(w, cacheFile, size, rec.FileOffset+off, n,
		func(fo, fn int64) ([]byte, error) { return fetch(obj, fo, fn) })
	s.bytesServed.Add(written)
	if err != nil && written == 0 {
		// Nothing hit the wire yet, so the header block is still
		// mutable: clear the dataset-sized Content-Length before fail
		// writes its JSON envelope against it.
		w.Header().Del("Content-Length")
		fail(w, err)
	}
	// A mid-stream error can only tear the connection; the client sees
	// a short body against the Content-Length and fails loudly.
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	reply(w, s.cache.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.metrics == nil {
		fail(w, errNotFound("metrics collection is disabled (start sdmd with metrics enabled)"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.metrics.Dump(w)
}
