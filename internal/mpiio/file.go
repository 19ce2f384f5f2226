package mpiio

import (
	"fmt"
	"io"

	"sdm/internal/mpi"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// Hints mirror the MPI-IO info keys ROMIO's two-phase implementation
// consumes.
type Hints struct {
	// CBNodes is the number of aggregator ranks in collective I/O: the
	// size of the file's aggregator set, the only ranks that open the
	// file at Open. Zero means every rank aggregates (the dense default).
	CBNodes int
	// StripingUnit is the stripe unit, in bytes, of a file this open
	// creates (ROMIO's striping_unit). Zero means the file system's
	// default. Like ROMIO's it is a creation-time hint: a file that
	// already exists keeps the layout it was created with.
	StripingUnit int64
	// DisableCollective forces WriteAtAll/ReadAtAll to fall back to
	// independent per-segment requests — the ablation knob for
	// measuring what collective buffering buys.
	DisableCollective bool
}

// File is an MPI-IO style file handle: a view over a named file, bound
// to one rank's communicator, plus — on the ranks that need one — a pfs
// handle. Collective operations must be called by every rank of the
// communicator, as in MPI.
//
// Aggregator set and deferred open. A file's aggregators are the
// Hints.CBNodes consecutive ranks starting at rot, a stable hash of the
// file name, so the small files of a file-per-dataset layout spread
// their aggregation (and their opens) over the communicator instead of
// piling on rank 0; file domain k belongs to rank (rot+k) mod P. Only
// set members touch the file in a collective operation, so only they
// open it at Open (ROMIO's deferred open); any other rank opens on its
// first independent access, and Close charges only where an open
// happened.
//
// Layout. File domains are whole stripes of the file's own stripe unit:
// the unit an existing file was created with, otherwise
// Hints.StripingUnit, which the set members create it with. A rank
// without a handle asks the file system for it (uncharged) inside its
// first collective operation, by which time the members have opened the
// file.
type File struct {
	sys  *pfs.System
	name string
	mode pfs.Mode
	unit int64 // the file's stripe unit; 0 until this rank has learned it
	// h is nil on a rank outside the aggregator set that has made no
	// independent access.
	h      *pfs.Handle
	closed bool
	comm   *mpi.Comm
	hints  Hints
	rot    int // rank of aggregator 0

	disp     int64
	filetype *Datatype

	// scratch is the private staging bundle, allocated on first use: a
	// File handed a shared bundle by UseScratch never needs one.
	scratch *ioScratch
}

// scr returns the staging buffers the file's operations use.
func (f *File) scr() *ioScratch {
	if f.scratch == nil {
		f.scratch = &ioScratch{}
	}
	return f.scratch
}

// ioScratch holds the per-File reusable buffers of the read/write hot
// path, so steady-state operations stop allocating per call: the
// flattened segment list, the phase-1 parcels, the aggregator's
// gathered segments and sieve runs, the staging arenas, and the reply
// plumbing. A File belongs to one rank goroutine, so reuse is
// race-free locally.
//
// Cross-rank safety: parcels (with the routeSegs/routeBufs arrays their
// lists are carved from), replies, and the read arena are referenced by
// OTHER ranks during a collective operation. They are
// reused only by the NEXT operation on this file, and every reuse
// point is preceded by a rendezvous collective (the next operation's
// Allreduce/Alltoall or the trailing Barrier) that every rank —
// including every rank still holding a reference — must have entered
// after it finished using the buffers. MPI's collective-ordering rule
// (all ranks issue the same collective sequence) therefore guarantees
// no rank still reads a buffer when its owner rewrites it.
type ioScratch struct {
	segs       []Segment   // flattened physical segments of one op
	flat       []flatSeg   // merged (segment, buffer) list across the batch's ops
	flatAux    []flatSeg   // merge ping-pong buffer
	opBounds   []int       // per-op run boundaries within flat
	opBoundsAx []int       // merge ping-pong buffer
	ops        [1]BatchOp  // single-op buffer for the legacy entry points
	parcels    []ioParcel  // outgoing phase-1 parcels, one per aggregator index
	routeN     []int       // routing: segment pieces per aggregator index
	routeSegs  []Segment   // backing array the parcels' Segs are carved from
	routeBufs  [][]byte    // backing array the parcels' Bufs are carved from
	incoming   []ioParcel  // aggregator: received phase-1 parcels, one per rank
	anyParts   []any       // boxing buffer for Alltoall, one per rank
	aggs       []aggSeg    // aggregator: gathered incoming segments, sorted
	aggsAux    []aggSeg    // merge ping-pong buffer
	bounds     []int       // per-source run boundaries within aggs
	boundsAux  []int       // merge ping-pong buffer
	runs       []sieveRun  // aggregator: coalesced spanning runs
	writeStage []byte      // aggregator: staging buffer, one run at a time
	readArena  []byte      // aggregator: staging arena carved across runs
	replies    []readReply // aggregator: read phase-2 replies, one per rank
	replyData  [][]byte    // aggregator: backing array the replies' Data are carved from
	ext        [1]Segment  // single-extent buffer for contiguous vectored calls
}

// grow returns buf resized to n bytes, reallocating only on growth.
func grow(buf []byte, n int64) []byte {
	if int64(cap(buf)) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// Scratch is a reusable bundle of I/O staging buffers that one rank
// can share across sequentially-used Files via UseScratch, so
// organizations that open and close a file per access (the paper's
// level 1) keep their steady-state buffers across handles instead of
// re-growing them on every open.
type Scratch struct{ s ioScratch }

// UseScratch redirects f's staging buffers to sc. The caller must use
// sc only from the rank goroutine owning f, and must not install it on
// two Files whose operations interleave mid-collective (sequential
// collective operations, the MPI norm, are safe).
func (f *File) UseScratch(sc *Scratch) { f.scratch = &sc.s }

// ScratchPool is a rank-local free list of Scratch bundles for callers
// that keep several files' collectives in flight at once (an N-deep
// step pipeline): each open file checks one bundle out and returns it
// at close, so concurrent per-file collectives from different epochs
// never share staging buffers, while sequential open/close patterns
// (the paper's level 1) still reuse one warmed-up bundle. A pool
// belongs to one rank goroutine; it is not safe for concurrent use.
type ScratchPool struct{ free []*Scratch }

// Get checks a Scratch out of the pool, allocating a fresh one when
// the pool is empty.
func (p *ScratchPool) Get() *Scratch {
	if n := len(p.free); n > 0 {
		sc := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return sc
	}
	return &Scratch{}
}

// Put returns a Scratch to the pool. Safe per the ioScratch reuse
// protocol: a pooled bundle is only touched again inside a collective
// operation, whose leading rendezvous guarantees every rank holding a
// reference into the old buffers has finished with them.
func (p *ScratchPool) Put(sc *Scratch) {
	if sc != nil {
		p.free = append(p.free, sc)
	}
}

// Size reports how many bundles are pooled (checked in), for tests
// asserting steady-state reuse.
func (p *ScratchPool) Size() int { return len(p.free) }

// Open opens name collectively: every rank calls Open, and the members
// of the file's aggregator set open it in the file system, in parallel,
// each on its own clock. The initial view is contiguous bytes from
// offset zero.
//
// Open is collective but, like MPI_File_open, not synchronizing: it has
// no rendezvous, because a collective advances every clock to the last
// arrival and would put the openers' cost back on every rank's
// timeline. A rank outside the set therefore learns of a missing file
// from an uncharged existence check, so that a failed open fails on
// every rank before any of them enters a collective operation.
func Open(c *mpi.Comm, sys *pfs.System, name string, mode pfs.Mode, hints Hints) (*File, error) {
	size := c.Size()
	if hints.CBNodes <= 0 || hints.CBNodes > size {
		hints.CBNodes = size
	}
	f := &File{sys: sys, name: name, mode: mode, comm: c, hints: hints,
		rot: int(pfs.NameHash(name) % uint64(size))}
	if f.aggIndex(c.Rank()) < hints.CBNodes {
		if err := f.open(true); err != nil {
			return nil, err
		}
	} else if mode != pfs.CreateMode && !sys.Exists(name) {
		return nil, fmt.Errorf("open %q: %w", name, pfs.ErrNotExist)
	}
	return f, nil
}

// aggRank returns the rank aggregating file domain k.
func (f *File) aggRank(k int) int { return (f.rot + k) % f.comm.Size() }

// aggIndex returns the file domain rank would aggregate if the set were
// that large: rank is a member of an n-aggregator set when
// aggIndex(rank) < n.
func (f *File) aggIndex(rank int) int {
	return (rank - f.rot + f.comm.Size()) % f.comm.Size()
}

// open opens the file in the file system, charging this rank's clock.
// member distinguishes the aggregator set's opens at Open from a
// non-member's deferred one.
func (f *File) open(member bool) error {
	t0 := f.comm.Now()
	var h *pfs.Handle
	var err error
	if f.mode == pfs.CreateMode {
		h, err = f.sys.Create(f.name, f.hints.StripingUnit, f.comm.Clock())
	} else {
		h, err = f.sys.Open(f.name, f.mode, f.comm.Clock())
	}
	if err != nil {
		return err
	}
	f.h = h
	f.unit = h.StripeUnit()
	if tr := f.sys.Tracer(); tr != nil {
		tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "open", t0, f.comm.Now(),
			obs.KV{Key: "file", Val: f.name},
			obs.KV{Key: "member", Val: fmt.Sprint(member)},
			obs.KV{Key: "set", Val: fmt.Sprint(f.hints.CBNodes)},
			obs.KV{Key: "unit", Val: fmt.Sprint(f.unit)})
	}
	return nil
}

// handle returns the rank's pfs handle for an independent access,
// opening the file first on a rank that has not needed one so far.
func (f *File) handle() (*pfs.Handle, error) {
	if f.closed {
		return nil, pfs.ErrClosed
	}
	if f.h == nil {
		if err := f.open(false); err != nil {
			return nil, err
		}
	}
	return f.h, nil
}

// Close releases the file. A rank that never opened it pays nothing.
func (f *File) Close() error {
	if f.closed {
		return pfs.ErrClosed
	}
	f.closed = true
	if f.h == nil {
		return nil
	}
	t0 := f.comm.Now()
	err := f.h.Close()
	if tr := f.sys.Tracer(); tr != nil {
		tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "close", t0, f.comm.Now(),
			obs.KV{Key: "file", Val: f.name})
	}
	return err
}

// SetView installs a file view: logical byte L of subsequent reads and
// writes maps to the L-th data byte of filetype tiled from displacement
// disp (MPI_File_set_view with etype = MPI_BYTE). A nil filetype means
// contiguous bytes. Charges the view-definition cost the paper's level
// comparison measures, on every rank: a view is local state and needs
// no open handle.
func (f *File) SetView(disp int64, filetype *Datatype) {
	f.disp = disp
	f.filetype = filetype
	t0 := f.comm.Now()
	f.sys.ChargeView(f.comm.Clock())
	if tr := f.sys.Tracer(); tr != nil {
		tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "view", t0, f.comm.Now(),
			obs.KV{Key: "file", Val: f.name})
	}
}

// physSegments maps the logical range [off, off+n) through the view
// into the File's reusable segment scratch. The result is valid until
// the next physSegments call on this File.
func (f *File) physSegments(off, n int64) []Segment {
	segs := f.scr().segs[:0]
	if f.filetype == nil {
		if n > 0 {
			segs = append(segs, Segment{Off: f.disp + off, Len: n})
		}
	} else {
		segs = f.filetype.mapRangeInto(segs, f.disp, off, n)
	}
	f.scr().segs = segs
	return segs
}

// WriteAt writes data at logical offset off through the view,
// independently, as one vectored file-system request covering every
// physical segment. This is the path the paper's "original"
// applications and the ablation use.
func (f *File) WriteAt(off int64, data []byte) error {
	h, err := f.handle()
	if err != nil {
		return err
	}
	_, err = h.WriteAtVec(data, f.physSegments(off, int64(len(data))))
	return err
}

// ReadAt fills data from logical offset off through the view,
// independently. Reads extending past EOF return io.EOF with the
// missing tail zero-filled, matching pfs vectored-read semantics.
func (f *File) ReadAt(off int64, data []byte) error {
	h, err := f.handle()
	if err != nil {
		return err
	}
	_, err = h.ReadAtVec(data, f.physSegments(off, int64(len(data))))
	return err
}

// ---------------------------------------------------------------------------
// Two-phase collective I/O.
//
// Phase 0: every rank flattens its request — one operation or a whole
// deferred-step batch of (view, offset, buffer) operations — into a
// single sorted physical segment list (the same flattening feeds the
// extent agreement and the routing) and the ranks agree (allreduce) on
// the union's extent. The extent, its start aligned down to the file's
// own stripe unit (fixed when the file was created; see
// Hints.StripingUnit), is split into file domains, one per aggregator:
// equal shares rounded up to a whole number of stripes. Domains are
// stripe-ALIGNED, so with at least as many aggregators as the extent
// has stripes every phase-2 run lies inside one stripe, on one server.
// Phase 1: each rank routes segment descriptors (plus data, for writes)
// to the owning aggregators with an all-to-all. Parcels carry
// iovec-style buffer lists that alias the callers' staging buffers, so
// no payload concatenation copy is made on the sending side.
// Phase 2: aggregators coalesce the segments in their domain and issue
// large vectored file-system requests; for reads the data flows back
// through a second all-to-all.
// ---------------------------------------------------------------------------

// BatchOp is one operation of a multi-op collective batch: data written
// to (or read into) the logical offset Off through the view (Disp,
// Type). A nil Type means contiguous bytes from Disp. Batching a whole
// timestep's datasets into one WriteAtAllOps/ReadAtAllOps call merges
// their segments into a single two-phase collective — one extent
// agreement, one all-to-all, and coalesced file requests across the
// ops, which is how step-scoped deferred I/O amortizes collective
// costs.
type BatchOp struct {
	Disp int64
	Type *Datatype
	Off  int64
	Data []byte
}

// flatSeg pairs a physical segment with the buffer piece holding its
// payload (writes) or receiving it (reads). Buffers alias caller
// memory; the collective never copies payload until the aggregator
// stages it.
type flatSeg struct {
	seg Segment
	buf []byte
}

// wireSegBytes is the simulated wire size of one segment descriptor in
// a phase-1 parcel: offset, length, and the requester's scatter tag.
const wireSegBytes = 24

// ioParcel is the unit routed between ranks in phase 1. Segs[i]'s
// payload (write) or destination (read) is Bufs[i]; the slices alias
// the sending rank's buffers and travel by reference, per the ioScratch
// reuse protocol.
type ioParcel struct {
	Segs []Segment
	Bufs [][]byte
}

// bytes reports the parcel's simulated wire size. Write parcels carry
// their payload; read parcels carry descriptors only (Bufs are local
// scatter destinations, not wire data).
func (p *ioParcel) bytes(withPayload bool) int64 {
	n := int64(len(p.Segs)) * wireSegBytes
	if withPayload {
		for _, b := range p.Bufs {
			n += int64(len(b))
		}
	}
	return n
}

// domainOf returns the aggregator index owning byte offset off.
func domainOf(off, lo int64, domain int64) int {
	if domain <= 0 {
		return 0
	}
	return int((off - lo) / domain)
}

// alignUp rounds n up to a multiple of align (align >= 1).
func alignUp(n, align int64) int64 {
	return alignDown(n+align-1, align)
}

// alignDown rounds n down to a multiple of align (n >= 0, align >= 1).
func alignDown(n, align int64) int64 {
	return n - n%align
}

// flattenOps maps every op of a batch through its view and merges the
// resulting per-op sorted segment lists into one globally sorted
// (segment, buffer) list in the File's reusable flat scratch. Buffer
// pieces alias the ops' Data slices. Per-op lists are sorted by
// construction; when ops interleave in file space, a bottom-up merge of
// the per-op runs restores global order.
func (f *File) flattenOps(ops []BatchOp) []flatSeg {
	flat := f.scr().flat[:0]
	bounds := f.scr().opBounds[:0]
	sorted := true
	for i := range ops {
		op := &ops[i]
		segs := f.opSegments(op)
		if len(segs) == 0 {
			continue
		}
		if len(flat) > 0 && segs[0].Off < flat[len(flat)-1].seg.Off {
			sorted = false
		}
		bounds = append(bounds, len(flat))
		pos := int64(0)
		for _, s := range segs {
			flat = append(flat, flatSeg{seg: s, buf: op.Data[pos : pos+s.Len]})
			pos += s.Len
		}
	}
	bounds = append(bounds, len(flat))
	f.scr().opBounds = bounds
	if sorted || len(bounds) <= 2 {
		f.scr().flat = flat
		return flat
	}
	if cap(f.scr().flatAux) < len(flat) {
		f.scr().flatAux = make([]flatSeg, len(flat))
	}
	aux := f.scr().flatAux[:len(flat)]
	if cap(f.scr().opBoundsAx) < len(bounds) {
		f.scr().opBoundsAx = make([]int, 0, len(bounds))
	}
	res := mergeSortedRuns(flat, aux, bounds, f.scr().opBoundsAx[:0],
		func(a, b flatSeg) bool { return a.seg.Off < b.seg.Off })
	if &res[0] == &aux[0] {
		f.scr().flat, f.scr().flatAux = aux, flat[:0]
	} else {
		f.scr().flat = flat
	}
	return res
}

// collectiveRange agrees on the global extent of this collective
// operation and cuts it into file domains: [lo, hi) with lo aligned down
// to the file's stripe unit, and the per-aggregator domain size, a whole
// number of stripes.
func (f *File) collectiveRange(flat []flatSeg) (lo, hi, domain int64, nAgg int) {
	myLo, myHi := int64(1<<62), int64(-1)
	if len(flat) > 0 {
		myLo = flat[0].seg.Off
		last := flat[len(flat)-1].seg
		myHi = last.Off + last.Len
	}
	lo = f.comm.AllreduceInt64(myLo, mpi.OpMin)
	hi = f.comm.AllreduceInt64(myHi, mpi.OpMax)
	if hi <= lo {
		return 0, 0, 0, 0
	}
	if f.unit == 0 {
		// No handle here. The allreduce above was a rendezvous the set
		// members entered after opening (or creating) the file, so every
		// rank now reads the same, final layout. (Domains only route: were
		// the file unlinked meanwhile, the default unit is as correct.)
		var ok bool
		if f.unit, ok = f.sys.StripeUnit(f.name); !ok {
			f.unit = f.sys.StripeSize()
		}
	}
	nAgg = f.hints.CBNodes
	lo, domain = fileDomains(lo, hi, f.unit, nAgg)
	return lo, hi, domain, nAgg
}

// fileDomains cuts the extent [lo, hi) of a file striped by unit into
// nAgg stripe-aligned domains: domain k is [lo' + k*domain, lo' +
// (k+1)*domain) with lo' = lo aligned down to the unit and domain the
// fewest whole stripes that let nAgg domains cover [lo', hi).
func fileDomains(lo, hi, unit int64, nAgg int) (alignedLo, domain int64) {
	alignedLo = alignDown(lo, unit)
	stripes := alignUp(hi-alignedLo, unit) / unit
	domain = alignUp(stripes, int64(nAgg)) / int64(nAgg) * unit
	return alignedLo, domain
}

// routeSegments splits this rank's flattened segments across aggregator
// domains, producing one parcel per domain in the File's reusable
// parcel scratch. A first pass counts the pieces each domain receives,
// so that every parcel's Segs and Bufs are carved from two backing
// arrays of the scratch bundle: two growths per bundle however many
// aggregators the file has. Buffer pieces are split alongside their
// segments and keep aliasing the callers' memory — the iovec-style
// zero-copy routing.
func (f *File) routeSegments(flat []flatSeg, lo, domain int64, nAgg int) []ioParcel {
	sc := f.scr()
	if cap(sc.parcels) < nAgg {
		sc.parcels = make([]ioParcel, nAgg)
		sc.routeN = make([]int, nAgg)
	}
	parcels, counts := sc.parcels[:nAgg], sc.routeN[:nAgg]
	sc.parcels = parcels
	clear(counts)
	total := 0
	for _, fs := range flat {
		first := min(domainOf(fs.seg.Off, lo, domain), nAgg-1)
		last := min(domainOf(fs.seg.Off+fs.seg.Len-1, lo, domain), nAgg-1)
		for k := first; k <= last; k++ {
			counts[k]++
		}
		total += last - first + 1
	}
	if cap(sc.routeSegs) < total {
		sc.routeSegs = make([]Segment, total)
		sc.routeBufs = make([][]byte, total)
	}
	segs, bufs := sc.routeSegs[:total], sc.routeBufs[:total]
	for k, n := range counts {
		// Empty, with room for exactly the pieces counted: the appends
		// below fill the carved region and never reallocate.
		parcels[k].Segs, segs = segs[:0:n], segs[n:]
		parcels[k].Bufs, bufs = bufs[:0:n], bufs[n:]
	}
	for _, fs := range flat {
		remaining := fs.seg
		buf := fs.buf
		for remaining.Len > 0 {
			agg := min(domainOf(remaining.Off, lo, domain), nAgg-1)
			domainEnd := lo + int64(agg+1)*domain
			take := remaining.Len
			if remaining.Off+take > domainEnd && agg != nAgg-1 {
				take = domainEnd - remaining.Off
			}
			p := &parcels[agg]
			p.Segs = append(p.Segs, Segment{Off: remaining.Off, Len: take})
			p.Bufs = append(p.Bufs, buf[:take])
			buf = buf[take:]
			remaining.Off += take
			remaining.Len -= take
		}
	}
	return parcels
}

// nilParts returns the File's Alltoall boxing buffer, one nil part per
// rank.
func (f *File) nilParts() []any {
	size := f.comm.Size()
	parts := f.scr().anyParts
	if cap(parts) < size {
		parts = make([]any, size)
		f.scr().anyParts = parts
	}
	parts = parts[:size]
	clear(parts)
	return parts
}

// exchangeParcels performs the phase-1 all-to-all: parcel k goes to the
// rank aggregating domain k, nothing to the other ranks. Parcels travel
// by pointer (boxing a pointer into an interface does not allocate);
// the receivers' references stay valid until the owners' next
// collective operation, per the ioScratch reuse protocol. withPayload
// selects whether Bufs count as wire traffic (writes) or are local-only
// scatter destinations (reads). Only an aggregator receives anything;
// the other ranks get nil.
func (f *File) exchangeParcels(parcels []ioParcel, withPayload bool) []ioParcel {
	anyParts := f.nilParts()
	var total int64
	for k := range parcels {
		anyParts[f.aggRank(k)] = &parcels[k]
		total += parcels[k].bytes(withPayload)
	}
	res := f.comm.Alltoall(anyParts, total)
	if f.aggIndex(f.comm.Rank()) >= len(parcels) {
		return nil
	}
	incoming := f.scr().incoming
	if cap(incoming) < len(res) {
		incoming = make([]ioParcel, len(res))
	} else {
		incoming = incoming[:len(res)]
	}
	for i, v := range res {
		if v != nil {
			incoming[i] = *v.(*ioParcel)
		} else {
			incoming[i] = ioParcel{}
		}
	}
	f.scr().incoming = incoming
	return incoming
}

// aggSeg tracks an incoming segment and its origin for the return trip.
type aggSeg struct {
	seg    Segment
	src    int // requesting rank
	srcIdx int // index within that rank's parcel
}

// gatherAggSegs flattens incoming parcels into the File's reusable
// aggregator scratch, sorted by file offset. Each source's segments
// arrive already sorted (ranks flatten sorted segment lists and
// routing preserves order), so the global order comes from a bottom-up
// merge of the per-source runs rather than a full sort. Ties take the
// lower source rank first, making aggregation deterministic.
func (f *File) gatherAggSegs(incoming []ioParcel) []aggSeg {
	// Size the lists from the incoming counts: a rank's first duty as an
	// aggregator then costs one allocation each, not a doubling series.
	var total, sources int
	for src := range incoming {
		if n := len(incoming[src].Segs); n > 0 {
			total += n
			sources++
		}
	}
	if cap(f.scr().aggs) < total {
		f.scr().aggs = make([]aggSeg, 0, total)
	}
	if cap(f.scr().bounds) < sources+1 {
		f.scr().bounds = make([]int, 0, sources+1)
	}
	all := f.scr().aggs[:0]
	bounds := f.scr().bounds[:0]
	sorted := true
	for src := range incoming {
		p := &incoming[src]
		if len(p.Segs) == 0 {
			continue
		}
		if len(all) > 0 && p.Segs[0].Off < all[len(all)-1].seg.Off {
			sorted = false
		}
		bounds = append(bounds, len(all))
		for i, s := range p.Segs {
			all = append(all, aggSeg{seg: s, src: src, srcIdx: i})
		}
	}
	bounds = append(bounds, len(all))
	f.scr().bounds = bounds
	if sorted || len(bounds) <= 2 {
		f.scr().aggs = all
		return all
	}
	if cap(f.scr().aggsAux) < len(all) {
		f.scr().aggsAux = make([]aggSeg, len(all))
	}
	aux := f.scr().aggsAux[:len(all)]
	if cap(f.scr().boundsAux) < len(bounds) {
		f.scr().boundsAux = make([]int, 0, len(bounds))
	}
	res := mergeSortedRuns(all, aux, bounds, f.scr().boundsAux[:0],
		func(a, b aggSeg) bool { return a.seg.Off < b.seg.Off })
	// Keep both buffers' capacity regardless of which side the merge
	// finished on.
	if &res[0] == &aux[0] {
		f.scr().aggs, f.scr().aggsAux = aux, all[:0]
	} else {
		f.scr().aggs = all
	}
	return res
}

// mergeSortedRuns merges the sorted runs of src delimited by bounds
// (bounds[i] is run i's start; the final entry is the total length),
// ping-ponging between src and dst, and returns the fully sorted
// slice, which aliases either src or dst. Ties keep the earlier run's
// element first, so merges are stable across sources.
func mergeSortedRuns[T any](src, dst []T, bounds, boundsAux []int, less func(a, b T) bool) []T {
	b, nb := bounds, boundsAux
	for len(b) > 2 {
		nb = nb[:0]
		i := 0
		for ; i+2 < len(b); i += 2 {
			lo, mid, hi := b[i], b[i+1], b[i+2]
			a, c, o := lo, mid, lo
			for a < mid && c < hi {
				if less(src[c], src[a]) {
					dst[o] = src[c]
					c++
				} else {
					dst[o] = src[a]
					a++
				}
				o++
			}
			o += copy(dst[o:hi], src[a:mid])
			copy(dst[o:hi], src[c:hi])
			nb = append(nb, lo)
		}
		if i+1 < len(b) { // odd leftover run carries over unmerged
			copy(dst[b[i]:b[i+1]], src[b[i]:b[i+1]])
			nb = append(nb, b[i])
		}
		nb = append(nb, b[len(b)-1])
		src, dst = dst, src
		b, nb = nb, b
	}
	return src
}

// sieveRun is one aggregator file access: a contiguous span of the
// file covering the sorted segments all[lo:hi], possibly with small
// holes between them (data sieving, as ROMIO performs inside its
// collective buffer). Runs reference index ranges of the gathered
// segment list rather than owning sub-slices, so building them
// allocates nothing.
type sieveRun struct {
	start, end int64 // file span [start, end)
	lo, hi     int   // indices into the sorted aggSeg list
	holes      bool
}

// sieveRunsInto groups sorted aggSegs into spanning runs, appending to
// dst: adjacent and overlapping segments always share a run (reads of
// ghost elements arrive from several ranks and legitimately overlap);
// hole-separated segments share one when the hole is below maxGap
// (cheaper to read through than to re-request). Runs are the units the
// aggregator turns into vectored file requests.
func sieveRunsInto(dst []sieveRun, all []aggSeg, maxGap int64) []sieveRun {
	var cur sieveRun
	for i, a := range all {
		if cur.hi > cur.lo {
			gap := a.seg.Off - cur.end // negative on overlap
			if gap <= maxGap {
				if gap > 0 {
					cur.holes = true
				}
				cur.hi = i + 1
				if end := a.seg.Off + a.seg.Len; end > cur.end {
					cur.end = end
				}
				continue
			}
			dst = append(dst, cur)
		}
		cur = sieveRun{start: a.seg.Off, end: a.seg.Off + a.seg.Len, lo: i, hi: i + 1}
	}
	if cur.hi > cur.lo {
		dst = append(dst, cur)
	}
	return dst
}

// chunkedWriteAt issues buf at off as one vectored request beginning at
// virtual time `at`, returning the completion time without touching the
// rank's clock — the unit of a forked phase-2 sub-timeline. The run is
// a single contiguous stripe span server-side, so each I/O server is
// charged once for its share of the whole run. Phase 2 runs on
// aggregators only, and every aggregator opened the file at Open.
func (f *File) chunkedWriteAt(buf []byte, off int64, at sim.Time) (sim.Time, error) {
	f.scr().ext[0] = Segment{Off: off, Len: int64(len(buf))}
	done, _, err := f.h.WriteAtVecTime(buf, f.scr().ext[:], at)
	return done, err
}

// chunkedReadAt fills buf from off as one vectored request beginning at
// `at`, returning the completion time; reads past EOF zero-fill.
func (f *File) chunkedReadAt(buf []byte, off int64, at sim.Time) (sim.Time, error) {
	f.scr().ext[0] = Segment{Off: off, Len: int64(len(buf))}
	done, _, err := f.h.ReadAtVecTime(buf, f.scr().ext[:], at)
	if err != nil && err != io.EOF {
		return done, err
	}
	return done, nil
}

// WriteAtAll collectively writes each rank's data at its logical offset
// through the view. Every rank of the communicator must participate
// (pass a nil/empty slice to contribute nothing).
func (f *File) WriteAtAll(off int64, data []byte) error {
	f.scr().ops[0] = BatchOp{Disp: f.disp, Type: f.filetype, Off: off, Data: data}
	err := f.WriteAtAllOps(f.scr().ops[:1])
	// Drop the op-slot alias; flat/parcel scratch still references the
	// buffer until the next collective, per the ioScratch protocol.
	f.scr().ops[0] = BatchOp{}
	return err
}

// WriteAtAllOps collectively writes a whole batch of operations as ONE
// two-phase collective: the ops' segments are merged before the extent
// agreement, so a multi-dataset step epoch pays one allreduce, one
// all-to-all, and coalesced aggregator requests instead of one
// collective per dataset. Every rank must call it with the same number
// of batches per file (ops themselves may differ; pass an empty batch
// to contribute nothing). Ops must not overlap each other in file
// space.
//
// Buffer lifetime: the ops' Data slices are aliased into phase-1
// parcels (zero-copy, unlike the old concatenating path) and may still
// be read by aggregator goroutines after this call returns on a
// non-aggregator rank. Per the ioScratch reuse protocol, callers must
// keep the buffers valid and unmodified until their next collective
// operation on the communicator — the epoch engine satisfies this via
// the execution-table rendezvous that follows every put flush.
func (f *File) WriteAtAllOps(ops []BatchOp) error {
	if f.hints.DisableCollective {
		h, err := f.handle()
		for i := 0; err == nil && i < len(ops); i++ {
			_, err = h.WriteAtVec(ops[i].Data, f.opSegments(&ops[i]))
		}
		f.comm.Barrier()
		return err
	}
	tr := f.sys.Tracer()
	p1 := f.comm.Clock().Now()
	flat := f.flattenOps(ops)
	lo, _, domain, nAgg := f.collectiveRange(flat)
	if nAgg == 0 {
		return nil // nothing to write anywhere
	}
	parcels := f.routeSegments(flat, lo, domain, nAgg)
	incoming := f.exchangeParcels(parcels, true)
	if tr != nil {
		tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "phase1:write", p1, f.comm.Clock().Now(),
			obs.KV{Key: "file", Val: f.name})
	}

	// Phase 2: aggregate and issue vectored contiguous writes. Every
	// run is issued on its own sub-timeline forked at the phase-2 start
	// — the runs cover disjoint file spans, so an aggregator drives them
	// concurrently, shared I/O servers serializing contending requests
	// in virtual time — and the rank's clock joins at the latest
	// completion. Runs with small interior holes are data-sieved:
	// read-modify-write of the whole span beats per-piece requests, and
	// the read chains before the write within the run's sub-timeline.
	if incoming != nil {
		all := f.gatherAggSegs(incoming)
		runs := sieveRunsInto(f.scr().runs[:0], all, f.sys.SieveGap())
		f.scr().runs = runs
		clock := f.comm.Clock()
		fork := clock.Now()
		join := fork
		for _, run := range runs {
			at := fork
			f.scr().writeStage = grow(f.scr().writeStage, run.end-run.start)
			buf := f.scr().writeStage
			if run.holes {
				var err error
				if at, err = f.chunkedReadAt(buf, run.start, at); err != nil {
					return err
				}
			}
			for _, a := range all[run.lo:run.hi] {
				copy(buf[a.seg.Off-run.start:], incoming[a.src].Bufs[a.srcIdx])
			}
			at, err := f.chunkedWriteAt(buf, run.start, at)
			if err != nil {
				return err
			}
			if tr != nil {
				tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "phase2:write-run", fork, at,
					obs.KV{Key: "bytes", Val: fmt.Sprint(run.end - run.start)},
					obs.KV{Key: "sieved", Val: fmt.Sprint(run.holes)})
			}
			join = sim.MaxTime(join, at)
		}
		clock.AdvanceTo(join)
	}
	f.comm.Barrier()
	return nil
}

// opSegments maps one op's logical range through its view into the
// File's reusable segment scratch — the per-op flattening the
// independent (DisableCollective) fallback issues as one vectored
// request, with the op's Data already concatenated in segment order.
func (f *File) opSegments(op *BatchOp) []Segment {
	segs := f.scr().segs[:0]
	n := int64(len(op.Data))
	if op.Type == nil {
		if n > 0 {
			segs = append(segs, Segment{Off: op.Disp + op.Off, Len: n})
		}
	} else {
		segs = op.Type.mapRangeInto(segs, op.Disp, op.Off, n)
	}
	f.scr().segs = segs
	return segs
}

// readReply carries phase-2 data back to requesters: Data[i] answers
// the i-th segment of the requester's parcel (parcels[agg].Segs[i],
// scattered into parcels[agg].Bufs[i]).
type readReply struct {
	Data [][]byte
}

func (r *readReply) bytes() int64 {
	var n int64
	for _, d := range r.Data {
		n += int64(len(d))
	}
	return n
}

// ReadAtAll collectively fills each rank's buffer from its logical
// offset through the view. Short reads (past EOF) zero-fill, mirroring
// a collective read of a hole; an error is returned only for structural
// failures.
func (f *File) ReadAtAll(off int64, data []byte) error {
	f.scr().ops[0] = BatchOp{Disp: f.disp, Type: f.filetype, Off: off, Data: data}
	err := f.ReadAtAllOps(f.scr().ops[:1])
	// Drop the op-slot alias; flat/parcel scratch still references the
	// buffer until the next collective, per the ioScratch protocol.
	f.scr().ops[0] = BatchOp{}
	return err
}

// ReadAtAllOps collectively fills a whole batch of operations as one
// two-phase collective, the read counterpart of WriteAtAllOps: each
// op's Data receives the bytes its (Disp, Type, Off) range maps to.
// Short reads zero-fill.
func (f *File) ReadAtAllOps(ops []BatchOp) error {
	if f.hints.DisableCollective {
		h, err := f.handle()
		for i := 0; err == nil && i < len(ops); i++ {
			if _, e := h.ReadAtVec(ops[i].Data, f.opSegments(&ops[i])); e != io.EOF {
				err = e
			}
		}
		f.comm.Barrier()
		return err
	}
	tr := f.sys.Tracer()
	p1 := f.comm.Clock().Now()
	flat := f.flattenOps(ops)
	lo, _, domain, nAgg := f.collectiveRange(flat)
	if nAgg == 0 {
		return nil
	}
	parcels := f.routeSegments(flat, lo, domain, nAgg)
	incoming := f.exchangeParcels(parcels, false)
	if tr != nil {
		tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "phase1:read", p1, f.comm.Clock().Now(),
			obs.KV{Key: "file", Val: f.name})
	}

	// Phase 2: aggregators read their domains as spanning runs (data
	// sieving through small holes) and split the data per requester.
	// Reply slices alias the read arena; runs carve disjoint arena
	// regions so replies stay intact for the whole operation. The other
	// ranks send nothing back.
	anyReplies := f.nilParts()
	var total int64
	if incoming != nil {
		replies := f.carveReplies(incoming)
		all := f.gatherAggSegs(incoming)
		runs := sieveRunsInto(f.scr().runs[:0], all, f.sys.SieveGap())
		f.scr().runs = runs
		var need int64
		for _, run := range runs {
			need += run.end - run.start
		}
		f.scr().readArena = grow(f.scr().readArena, need)
		arena := f.scr().readArena
		// Forked sub-timeline per run, as on the write side: runs carve
		// disjoint arena regions and file spans, so they are issued
		// concurrently from the phase-2 fork point and the clock joins
		// at the latest completion before the reply all-to-all.
		clock := f.comm.Clock()
		fork := clock.Now()
		join := fork
		var cur int64
		for _, run := range runs {
			buf := arena[cur : cur+run.end-run.start]
			cur += run.end - run.start
			done, err := f.chunkedReadAt(buf, run.start, fork)
			if err != nil {
				return err
			}
			if tr != nil {
				tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "phase2:read-run", fork, done,
					obs.KV{Key: "bytes", Val: fmt.Sprint(run.end - run.start)})
			}
			join = sim.MaxTime(join, done)
			for _, a := range all[run.lo:run.hi] {
				replies[a.src].Data[a.srcIdx] = buf[a.seg.Off-run.start : a.seg.Off-run.start+a.seg.Len]
			}
		}
		clock.AdvanceTo(join)
		for i := range replies {
			anyReplies[i] = &replies[i]
			total += replies[i].bytes()
		}
	}
	back := f.comm.Alltoall(anyReplies, total)

	// Scatter returned data into the callers' buffers through the
	// destination slices recorded when routing: aggregator k answered
	// parcel k.
	for k := range parcels {
		reply := back[f.aggRank(k)].(*readReply)
		for i, d := range reply.Data {
			copy(parcels[k].Bufs[i], d)
		}
	}
	return nil
}

// carveReplies sizes the aggregator's reply table for one read: entry i
// gets one (still nil) data slot per segment rank i requested, all
// carved from a single backing array — one growth per bundle, however
// many ranks ask.
func (f *File) carveReplies(incoming []ioParcel) []readReply {
	replies := f.scr().replies
	if cap(replies) < len(incoming) {
		replies = make([]readReply, len(incoming))
		f.scr().replies = replies
	}
	replies = replies[:len(incoming)]
	var total int
	for i := range incoming {
		total += len(incoming[i].Segs)
	}
	if cap(f.scr().replyData) < total {
		f.scr().replyData = make([][]byte, total)
	}
	data := f.scr().replyData[:total]
	clear(data)
	for i := range incoming {
		n := len(incoming[i].Segs)
		replies[i].Data = data[:n:n]
		data = data[n:]
	}
	return replies
}
