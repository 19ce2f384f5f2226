// Package pfs simulates the striped parallel file system underneath
// SDM — the role played by SGI XFS over 10 Fibre Channel controllers
// and 110 disks on the paper's Origin2000.
//
// Files are really stored, so correctness is testable end to end; the
// bytes live in a pluggable internal/store backend (in-memory sparse
// pages by default, a host directory or content-addressed chunk store
// for durable run bundles). Costs are simulated independently of the
// backend: every byte range maps onto stripe units that live on one of
// a configurable number of I/O servers; each server is a serial
// resource (internal/sim.Resource) charging a fixed per-request latency
// plus bytes/bandwidth, and a metadata server charges file-open, close,
// and file-view costs. These are exactly the knobs the paper's
// evaluation turns: low open/view cost on XFS (Figure 6's small
// level-1/2/3 differences), request latency dominating small per-process
// buffers (Figure 7's 32→64 process degradation), and serial-vs-parallel
// access (Figure 5 and 7's original-vs-SDM gaps).
package pfs

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"sdm/internal/obs"
	"sdm/internal/sim"
	"sdm/internal/store"
)

// Errors returned by the file system.
var (
	ErrNotExist = errors.New("pfs: file does not exist")
	ErrExist    = errors.New("pfs: file already exists")
	ErrClosed   = errors.New("pfs: handle is closed")
	ErrReadOnly = errors.New("pfs: handle opened read-only")
)

// Config describes the simulated storage hardware and file-system
// software costs.
type Config struct {
	// NumServers is the number of independent I/O servers (stripes
	// round-robin across them). Must be >= 1.
	NumServers int
	// StripeSize is the stripe unit in bytes. Must be >= 1.
	StripeSize int64
	// ServerBandwidth is each server's streaming rate in bytes/second.
	// Zero means infinitely fast servers.
	ServerBandwidth float64
	// RequestLatency is the fixed cost a server charges per request
	// (seek + controller overhead). Large contiguous requests amortize
	// it; many small requests pay it repeatedly.
	RequestLatency sim.Duration
	// OpenCost, CloseCost and ViewCost are metadata costs charged per
	// file open, close, and file-view definition respectively. The
	// paper's level 1/2/3 file organizations differ in how often opens
	// and closes are paid; a view is defined once per filetype per rank
	// (see ChargeView), at every level alike.
	OpenCost  sim.Duration
	CloseCost sim.Duration
	ViewCost  sim.Duration
}

// DefaultConfig resembles the paper's platform: 10 I/O servers,
// 512 KiB stripes, ~35 MB/s per server, with XFS's cheap opens.
func DefaultConfig() Config {
	return Config{
		NumServers:      10,
		StripeSize:      512 * 1024,
		ServerBandwidth: 35e6,
		RequestLatency:  800_000, // 0.8 ms
		OpenCost:        1_500_000,
		CloseCost:       500_000,
		ViewCost:        300_000,
	}
}

// Stats aggregates observable activity, for tests and reports.
type Stats struct {
	Opens        int64
	Creates      int64
	Closes       int64
	Views        int64 // view definitions charged (see ChargeView)
	ReadRequests int64
	WriteReqs    int64
	BytesRead    int64
	BytesWritten int64
}

// atomicStats is the lock-free internal representation of Stats, so the
// data path never serializes rank goroutines on a statistics mutex.
type atomicStats struct {
	opens        atomic.Int64
	creates      atomic.Int64
	closes       atomic.Int64
	views        atomic.Int64
	readRequests atomic.Int64
	writeReqs    atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

func (a *atomicStats) snapshot() Stats {
	return Stats{
		Opens:        a.opens.Load(),
		Creates:      a.creates.Load(),
		Closes:       a.closes.Load(),
		Views:        a.views.Load(),
		ReadRequests: a.readRequests.Load(),
		WriteReqs:    a.writeReqs.Load(),
		BytesRead:    a.bytesRead.Load(),
		BytesWritten: a.bytesWritten.Load(),
	}
}

// System is one parallel file system instance: a flat namespace of
// striped files plus the simulated hardware. It is safe for concurrent
// use by many rank goroutines. The namespace lives in the storage
// backend; the files map caches open objects and is guarded by an
// RWMutex taken only on open/remove operations. Per-file state is
// guarded by each file's own lock, so with the default memory (and
// dir) backends, rank goroutines doing data I/O on different files
// never contend on a system-wide lock; the cas backend adds its own
// chunk-pool lock beneath (see internal/store).
type System struct {
	cfg     Config
	backend store.Backend
	mu      sync.RWMutex
	files   map[string]*file
	servers []*sim.Resource

	stats atomicStats

	// Observability (nil when off — the no-op default). tracer records
	// each server's service windows as busy spans; serviceHist feeds the
	// per-request service-time distribution into a metrics registry.
	// Neither touches any clock, so enabling them cannot perturb
	// virtual time.
	tracer      *obs.Tracer
	serviceHist *obs.Histogram
}

// NewSystem creates a file system with the given hardware profile on
// the default volatile in-memory backend.
func NewSystem(cfg Config) *System {
	return NewSystemOn(cfg, store.NewMem())
}

// NewSystemOn creates a file system whose bytes live in the given
// storage backend. Objects already present in the backend (a reopened
// run bundle) appear as files; cost accounting is identical across
// backends, so simulated metrics never depend on where bytes live.
func NewSystemOn(cfg Config, backend store.Backend) *System {
	if cfg.NumServers < 1 {
		panic(fmt.Sprintf("pfs: NumServers must be >= 1, got %d", cfg.NumServers))
	}
	if cfg.StripeSize < 1 {
		panic(fmt.Sprintf("pfs: StripeSize must be >= 1, got %d", cfg.StripeSize))
	}
	s := &System{
		cfg:     cfg,
		backend: backend,
		files:   make(map[string]*file),
	}
	s.servers = make([]*sim.Resource, cfg.NumServers)
	for i := range s.servers {
		s.servers[i] = &sim.Resource{}
	}
	return s
}

// Config returns the system's hardware profile.
func (s *System) Config() Config { return s.cfg }

// Backend exposes the storage backend holding the file bytes.
func (s *System) Backend() store.Backend { return s.backend }

// Stats returns a single atomically consistent copy of the cumulative
// activity counters: the eight fields are loaded repeatedly until two
// consecutive reads agree, so a snapshot taken while rank goroutines
// are mid-update never pairs a bumped request count with a not-yet
// bumped byte count. At quiescence (where tests read it) the first
// double-read already agrees.
func (s *System) Stats() Stats {
	prev := s.stats.snapshot()
	for i := 0; i < 64; i++ {
		cur := s.stats.snapshot()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev // writers never went quiet; return the latest view
}

// SetTracer attaches (or with nil, detaches) a span tracer. Each PFS
// server becomes one trace lane under obs.PidServers carrying its
// service windows.
func (s *System) SetTracer(t *obs.Tracer) {
	s.tracer = t
	if t != nil {
		t.NameProcess(obs.PidServers, "pfs servers")
		for i := range s.servers {
			t.NameThread(obs.PidServers, i, fmt.Sprintf("server %d", i))
		}
	}
}

// Tracer returns the attached span tracer (nil when tracing is off);
// the collective I/O layer emits its spans through it.
func (s *System) Tracer() *obs.Tracer { return s.tracer }

// StripeSize reports the file system's default stripe unit: the layout
// of every file created without one of its own (see Create).
func (s *System) StripeSize() int64 { return s.cfg.StripeSize }

// SieveGap reports the data-sieving break-even gap: holes smaller than
// this are cheaper to read through than to skip with a separate
// request, because a request costs RequestLatency while reading a gap
// costs gap/bandwidth. I/O layers use it to decide when to coalesce
// hole-separated accesses into one spanning request.
func (s *System) SieveGap() int64 {
	if s.cfg.RequestLatency <= 0 {
		return 0
	}
	if s.cfg.ServerBandwidth <= 0 {
		return 1 << 40 // requests cost latency, transfers are free: always sieve
	}
	return int64(s.cfg.RequestLatency.Seconds() * s.cfg.ServerBandwidth)
}

// ChargeView charges one file-view definition (MPI_File_set_view) to
// clock. A view is rank-local state of the I/O library, so it needs no
// open handle: mpiio calls this from SetView on every rank, including
// the ranks that never open the file themselves — once per filetype a
// rank installs, when it flattens the type, and at every contiguous
// view.
func (s *System) ChargeView(clock *sim.Clock) {
	if clock != nil {
		clock.Advance(s.cfg.ViewCost)
	}
	s.stats.views.Add(1)
}

// RegisterMetrics registers the file system's counters and the
// per-request service-time histogram with a metrics registry. The
// existing atomic stats are exposed behind Stats as a snapshot source —
// no hot-path changes.
func (s *System) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	s.serviceHist = r.Histogram("pfs.server.service")
	r.RegisterSource("pfs", func(put func(key string, val int64)) {
		st := s.Stats()
		put("opens", st.Opens)
		put("creates", st.Creates)
		put("closes", st.Closes)
		put("views", st.Views)
		put("read-requests", st.ReadRequests)
		put("write-requests", st.WriteReqs)
		put("bytes-read", st.BytesRead)
		put("bytes-written", st.BytesWritten)
		for i, r := range s.servers {
			busy, reqs := r.Stats()
			put(fmt.Sprintf("server.%d.busy-ns", i), int64(busy))
			put(fmt.Sprintf("server.%d.requests", i), reqs)
		}
	})
}

// ResetSchedules clears all server and metadata queues (not file
// contents), so consecutive experiments on one system start from an
// idle disk array.
func (s *System) ResetSchedules() {
	for _, r := range s.servers {
		r.Reset()
	}
}

// file is the shared state of one open file: a lock serializing
// mutation around the backend object holding the bytes, and the file's
// layout. unit is the stripe unit and first the server holding stripe 0,
// both fixed when the file is created and immutable afterwards, so
// handles read them without the lock.
type file struct {
	mu    sync.RWMutex
	obj   store.Object
	unit  int64
	first int
}

func (f *file) writeAt(p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.obj.WriteAt(p, off)
	return err
}

func (f *file) readAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.obj.ReadAt(p, off)
}

func (f *file) size() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.obj.Size()
}

// Mode selects how a file is opened.
type Mode int

// Open modes.
const (
	ReadOnly Mode = iota
	ReadWrite
	// CreateMode creates the file if missing and opens it read-write.
	CreateMode
)

// Handle is one process's view of an open file. A Handle is bound to a
// clock (the opening rank's) and is not safe for concurrent use; each
// rank opens its own handle, as MPI-IO processes do.
type Handle struct {
	sys    *System
	f      *file
	name   string
	clock  *sim.Clock
	mode   Mode
	closed bool

	// Reusable cost-accounting scratch. A Handle belongs to one rank
	// goroutine, so reuse is race-free; capacity is retained across
	// operations so the steady-state I/O path allocates nothing. The span
	// lists start in the embedded buffers — a request inside one stripe
	// needs one span, a contiguous vectored call one run — so an open is a
	// single allocation; totScratch exists only once a request has
	// crossed a stripe boundary.
	totScratch  []int64
	spanScratch []serverSpan
	vecScratch  []vecSpan
	spanBuf     [2]serverSpan
	vecBuf      [1]vecSpan
}

// lookup returns the cached wrapper for name, opening the backend
// object on first touch and creating it when create is set, striped by
// unit (0 = the system default) from server first on. The boolean
// reports whether the object was newly created. A file found in the
// backend — a restored bundle — is laid out by this system's defaults,
// the default unit from its name's starting server, as a copy to another
// file system would be.
func (s *System) lookup(name string, create bool, unit int64, first int) (*file, bool, error) {
	s.mu.RLock()
	f := s.files[name]
	s.mu.RUnlock()
	if f != nil {
		return f, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.files[name]; f != nil {
		return f, false, nil
	}
	obj, err := s.backend.Open(name)
	created := false
	if errors.Is(err, store.ErrNotExist) {
		if !create {
			return nil, false, fmt.Errorf("open %q: %w", name, ErrNotExist)
		}
		obj, err = s.backend.Create(name)
		created = err == nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("pfs: %w", err)
	}
	if !created {
		unit, first = s.cfg.StripeSize, s.startingServer(name)
	} else if unit <= 0 {
		unit = s.cfg.StripeSize
	}
	f = &file{obj: obj, unit: unit, first: first}
	s.files[name] = f
	return f, created, nil
}

// Open opens (or with CreateMode, creates) a file, charging the open
// cost to the opening rank's clock. A file it creates is laid out by the
// system defaults: the default unit, from its name's starting server.
func (s *System) Open(name string, mode Mode, clock *sim.Clock) (*Handle, error) {
	return s.open(name, mode, 0, s.startingServer(name), clock)
}

// Create is Open in CreateMode for a caller that chooses the layout: a
// file it creates is striped by unit bytes (0 = the system default) with
// its first stripe on server first, in [0, NumServers). The layout is
// fixed at creation; on a file that already exists unit and first are
// ignored, as ROMIO's striping hints are.
func (s *System) Create(name string, unit int64, first int, clock *sim.Clock) (*Handle, error) {
	if first < 0 || first >= s.cfg.NumServers {
		return nil, fmt.Errorf("pfs: create %q: starting server %d outside [0, %d)", name, first, s.cfg.NumServers)
	}
	return s.open(name, CreateMode, unit, first, clock)
}

func (s *System) open(name string, mode Mode, unit int64, first int, clock *sim.Clock) (*Handle, error) {
	f, created, err := s.lookup(name, mode == CreateMode, unit, first)
	if err != nil {
		return nil, err
	}

	if clock != nil {
		// Opens charge a fixed metadata cost per process. Concurrent
		// opens by many ranks proceed in parallel, matching the paper's
		// observation that XFS file opens are cheap even collectively.
		clock.Advance(s.cfg.OpenCost)
	}
	s.stats.opens.Add(1)
	if created {
		s.stats.creates.Add(1)
	}
	h := &Handle{sys: s, f: f, name: name, clock: clock, mode: mode}
	h.spanScratch, h.vecScratch = h.spanBuf[:0], h.vecBuf[:0]
	return h, nil
}

// startingServer is the I/O server holding the first stripe of a file
// nobody placed: one created by Open, or found in the backend. Striped
// file systems rotate each file's starting device (Lustre's round-robin
// OST selection; XFS allocation groups behave similarly), so a workload
// flushing several files concurrently engages the whole array instead
// of queueing every file's low stripes on server 0. The choice is a
// stable hash of the name, keeping placement — and therefore every
// virtual-time figure — deterministic across runs and backends. A caller
// that knows the other files of a step places them together instead
// (Create's first).
func (s *System) startingServer(name string) int {
	return int(NameHash(name) % uint64(s.cfg.NumServers))
}

// NameHash is the stable hash of a file name (FNV-1a) behind every
// placement nobody chose otherwise: the starting server here, and where
// the collective I/O layer's cursor starts a run of files.
func NameHash(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// Exists reports whether a file is present.
func (s *System) Exists(name string) bool {
	s.mu.RLock()
	_, cached := s.files[name]
	s.mu.RUnlock()
	if cached {
		return true
	}
	_, err := s.backend.Stat(name)
	return err == nil
}

// StripeUnit reports the stripe unit of an existing file without opening
// it or charging anything, so a rank that holds no handle can learn the
// layout the way it learns of the file's existence. ok is false when the
// file does not exist.
func (s *System) StripeUnit(name string) (unit int64, ok bool) {
	s.mu.RLock()
	f := s.files[name]
	s.mu.RUnlock()
	if f != nil {
		return f.unit, true
	}
	if _, err := s.backend.Stat(name); err != nil {
		return 0, false
	}
	return s.cfg.StripeSize, true
}

// Remove deletes a file from the namespace. With the memory backend,
// open handles keep their data (POSIX-like unlink semantics).
func (s *System) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.backend.Remove(name); err != nil {
		if errors.Is(err, store.ErrNotExist) {
			return fmt.Errorf("remove %q: %w", name, ErrNotExist)
		}
		return fmt.Errorf("pfs: %w", err)
	}
	delete(s.files, name)
	return nil
}

// List returns all file names in lexical order.
func (s *System) List() []string {
	names, err := s.backend.List()
	if err != nil {
		return nil
	}
	return names
}

// FileSize reports a file's current size without opening it.
func (s *System) FileSize(name string) (int64, error) {
	s.mu.RLock()
	f := s.files[name]
	s.mu.RUnlock()
	if f != nil {
		return f.size(), nil
	}
	n, err := s.backend.Stat(name)
	if err != nil {
		if errors.Is(err, store.ErrNotExist) {
			return 0, fmt.Errorf("stat %q: %w", name, ErrNotExist)
		}
		return 0, fmt.Errorf("pfs: %w", err)
	}
	return n, nil
}

// StripeUnit reports the file's stripe unit.
func (h *Handle) StripeUnit() int64 { return h.f.unit }

// Close releases the handle, charging the close cost.
func (h *Handle) Close() error {
	if h.closed {
		return ErrClosed
	}
	h.closed = true
	if h.clock != nil {
		h.clock.Advance(h.sys.cfg.CloseCost)
	}
	h.sys.stats.closes.Add(1)
	return nil
}

// serverSpan is the portion of one request that lands on one server.
type serverSpan struct {
	server int
	bytes  int64
}

// serverOf returns the I/O server holding a file's given stripe, for a
// file whose stripe 0 is on server first.
func (s *System) serverOf(stripe int64, first int) int {
	return int((stripe + int64(first)) % int64(s.cfg.NumServers))
}

// spansInto splits the byte range [off, off+n) into per-server totals
// according to a file's striping layout (stripe unit and stripe-0
// server), appending to dst (reused across calls by the owning Handle).
// totals must have NumServers entries and be zeroed; it is re-zeroed
// before returning.
func (s *System) spansInto(dst []serverSpan, totals []int64, off, n, unit int64, first int) []serverSpan {
	for n > 0 {
		in := min(unit-off%unit, n)
		totals[s.serverOf(off/unit, first)] += in
		off += in
		n -= in
	}
	for i, b := range totals {
		if b > 0 {
			dst = append(dst, serverSpan{server: i, bytes: b})
			totals[i] = 0
		}
	}
	return dst
}

// charge schedules the I/O cost of an n-byte access at offset off
// starting at virtual time `at`, and returns the completion time. Each
// involved server serves its share as one request (latency + bytes/bw);
// servers work in parallel, so completion is the max across them.
func (h *Handle) charge(off, n int64, at sim.Time) sim.Time {
	s := h.sys
	unit := h.f.unit
	spans := h.spanScratch[:0]
	if n > 0 && off%unit+n <= unit {
		// Inside one stripe — every run of a stripe-aligned file domain:
		// one server, no per-server totals to sum.
		spans = append(spans, serverSpan{server: s.serverOf(off/unit, h.f.first), bytes: n})
	} else {
		if h.totScratch == nil {
			h.totScratch = make([]int64, s.cfg.NumServers)
		}
		spans = s.spansInto(spans, h.totScratch, off, n, unit, h.f.first)
	}
	h.spanScratch = spans
	return h.serve(spans, at)
}

// serve issues one request per span at virtual time `at` and returns the
// latest completion.
func (h *Handle) serve(spans []serverSpan, at sim.Time) sim.Time {
	s := h.sys
	done := at
	for _, sp := range spans {
		service := s.cfg.RequestLatency +
			sim.TransferCost(sp.bytes, 0, s.cfg.ServerBandwidth)
		d := s.servers[sp.server].Acquire(at, service)
		if s.tracer != nil {
			// The service window is [d-service, d]: Acquire starts at
			// max(at, server free) and runs for service.
			s.tracer.EmitOn(obs.PidServers, sp.server, "pfs", "serve",
				d.Add(-service), d,
				obs.KV{Key: "file", Val: h.name},
				obs.KV{Key: "bytes", Val: fmt.Sprint(sp.bytes)},
				obs.KV{Key: "unit", Val: fmt.Sprint(h.f.unit)})
		}
		if h := s.serviceHist; h != nil {
			h.Observe(service)
		}
		done = sim.MaxTime(done, d)
	}
	return done
}

// ---------------------------------------------------------------------------
// Vectored I/O
//
// A request is one vectored call on a handle: a batch of (offset,
// length) extents — the shape ROMIO's two-phase aggregators and
// data-sieving layer produce — and a contiguous access is a batch of one
// extent. Extents that are adjacent in the file coalesce into one
// contiguous span, and each I/O server is charged one request per span
// it participates in. Consecutive spans that are adjacent in one
// server's object instead — each inside one stripe, stripe j of the file
// lying at (j/NumServers)·unit in its server's object — are one request
// to that server: the tail of one stripe and the head of the stripe
// NumServers later, which is how a collective over one row of stripes
// plus a few bytes serves its two ends. The call is issued at the
// handle's clock (time zero on a handle without one, as staging opens
// them) and its requests are serviced in order, request i+1 issued at
// request i's completion, chained through the call rather than through
// the clock; the clock then advances to the last completion. A request
// the rank does not wait for is issued on a forked clock
// (sim.Clock.Rebase). One call is one stats update and, in steady state,
// zero allocations.
// ---------------------------------------------------------------------------

// Extent is one (offset, length) piece of a vectored request.
type Extent struct {
	Off int64
	Len int64
}

// vecSpan is a coalesced contiguous run of extents plus the position of
// its payload within the batch buffer.
type vecSpan struct {
	off  int64
	n    int64
	pPos int64
}

// coalesce groups extents into contiguous spans, appending to the
// handle's reusable span buffer. Extents must have non-negative
// lengths; zero-length extents are skipped. Only extents adjacent in
// the given order merge, so callers control request granularity by the
// order they pass.
func (h *Handle) coalesce(exts []Extent) ([]vecSpan, int64, error) {
	spans := h.vecScratch[:0]
	var pos int64
	for _, e := range exts {
		if e.Len < 0 || e.Off < 0 {
			return nil, 0, fmt.Errorf("pfs: invalid extent (off %d, len %d)", e.Off, e.Len)
		}
		if e.Len == 0 {
			continue
		}
		if k := len(spans); k > 0 && spans[k-1].off+spans[k-1].n == e.Off {
			spans[k-1].n += e.Len
		} else {
			spans = append(spans, vecSpan{off: e.Off, n: e.Len, pPos: pos})
		}
		pos += e.Len
	}
	h.vecScratch = spans
	return spans, pos, nil
}

// local reports where a span inside one stripe lies in its server's
// object: the server, and the span's start and end there. ok is false
// for a span that crosses a stripe boundary.
func (h *Handle) local(sp vecSpan) (server int, lo, hi int64, ok bool) {
	unit := h.f.unit
	stripe, in := sp.off/unit, sp.off%unit
	if in+sp.n > unit {
		return 0, 0, 0, false
	}
	lo = stripe/int64(h.sys.cfg.NumServers)*unit + in
	return h.sys.serverOf(stripe, h.f.first), lo, lo + sp.n, true
}

// requestEnd returns the end of the request that starts at spans[i]: the
// spans after it that continue it in its server's object join it.
func (h *Handle) requestEnd(spans []vecSpan, i int) int {
	server, _, end, ok := h.local(spans[i])
	j := i + 1
	for ; ok && j < len(spans); j++ {
		next, lo, hi, one := h.local(spans[j])
		if !one || next != server || lo != end {
			break
		}
		end = hi
	}
	return j
}

// chargeRequest charges the request req carrying n bytes: one span by
// its stripes' servers, several spans as one request to their server.
func (h *Handle) chargeRequest(req []vecSpan, n int64, at sim.Time) sim.Time {
	if len(req) == 1 || n == 0 {
		return h.charge(req[0].off, n, at)
	}
	server, _, _, _ := h.local(req[0])
	h.spanScratch = append(h.spanScratch[:0], serverSpan{server: server, bytes: n})
	return h.serve(h.spanScratch, at)
}

// start is the virtual time a request on this handle is issued at.
func (h *Handle) start() sim.Time {
	if h.clock == nil {
		return 0
	}
	return h.clock.Now()
}

// finish advances the handle's clock to a request's completion.
func (h *Handle) finish(done sim.Time) {
	if h.clock != nil {
		h.clock.AdvanceTo(done)
	}
}

// WriteAtVec stores a batch of extents in one vectored request. p holds
// the payloads concatenated in extent order and must be at least as
// long as the extents' total length.
func (h *Handle) WriteAtVec(p []byte, exts []Extent) (int, error) {
	if h.closed {
		return 0, ErrClosed
	}
	if h.mode == ReadOnly {
		return 0, ErrReadOnly
	}
	spans, total, err := h.coalesce(exts)
	if err != nil {
		return 0, err
	}
	if total > int64(len(p)) {
		return 0, fmt.Errorf("pfs: vectored write of %d extent bytes with %d payload bytes", total, len(p))
	}
	done := h.start()
	var reqs int64
	for i := 0; i < len(spans) && err == nil; reqs++ {
		j := h.requestEnd(spans, i)
		var n int64
		for _, sp := range spans[i:j] {
			if err = h.f.writeAt(p[sp.pPos:sp.pPos+sp.n], sp.off); err != nil {
				break
			}
			n += sp.n
		}
		if err == nil {
			done = h.chargeRequest(spans[i:j], n, done)
		}
		i = j
	}
	h.finish(done)
	if err != nil {
		return 0, err
	}
	h.sys.stats.writeReqs.Add(reqs)
	h.sys.stats.bytesWritten.Add(total)
	return int(total), nil
}

// ReadAtVec fills a batch of extents in one vectored request. p
// receives the payloads concatenated in extent order. Extents (or
// tails of extents) past end of file are zero-filled and io.EOF is
// returned alongside the byte count actually read from the file, so
// reusable staging buffers never leak stale bytes.
func (h *Handle) ReadAtVec(p []byte, exts []Extent) (int, error) {
	if h.closed {
		return 0, ErrClosed
	}
	spans, total, err := h.coalesce(exts)
	if err != nil {
		return 0, err
	}
	if total > int64(len(p)) {
		return 0, fmt.Errorf("pfs: vectored read of %d extent bytes into %d payload bytes", total, len(p))
	}
	done := h.start()
	var read, reqs int64
	for i := 0; i < len(spans) && err == nil; reqs++ {
		j := h.requestEnd(spans, i)
		var got int64
		for _, sp := range spans[i:j] {
			buf := p[sp.pPos : sp.pPos+sp.n]
			n, rerr := h.f.readAt(buf, sp.off)
			if int64(n) < sp.n {
				clear(buf[n:])
				if rerr != nil && rerr != io.EOF {
					err = rerr
					break
				}
			}
			got += int64(n)
		}
		if err == nil {
			read += got
			done = h.chargeRequest(spans[i:j], got, done)
		}
		i = j
	}
	h.finish(done)
	if err != nil {
		return int(read), err
	}
	h.sys.stats.readRequests.Add(reqs)
	h.sys.stats.bytesRead.Add(read)
	if read < total {
		return int(read), io.EOF
	}
	return int(read), nil
}

// WriteFile stores data as name without cost accounting, for staging
// input files (the role of data created "outside of SDM" that import
// reads). A file already under that name is replaced, not overwritten
// in place: nothing of it shows through where the new one is shorter.
func (s *System) WriteFile(name string, data []byte) error {
	if err := s.Remove(name); err != nil && !errors.Is(err, ErrNotExist) {
		return err
	}
	h, err := s.Open(name, CreateMode, nil)
	if err != nil {
		return err
	}
	if err := h.f.writeAt(data, 0); err != nil {
		return err
	}
	return h.Close()
}

// ReadFile returns a file's full contents without cost accounting.
func (s *System) ReadFile(name string) ([]byte, error) {
	f, _, err := s.lookup(name, false, 0, 0)
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil, fmt.Errorf("read %q: %w", name, ErrNotExist)
		}
		return nil, err // a real backend failure, not absence
	}
	buf := make([]byte, f.size())
	if len(buf) == 0 {
		return buf, nil
	}
	if _, err := f.readAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}
