package mpiio

import "sdm/internal/mpi"

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
// An extent of one row of NumServers stripes plus the drift — it starts
// inside a stripe and ends inside the stripe NumServers later — has its
// first and last pieces on one server, next to each other in that
// server's object: the last domain goes to the first domain's
// aggregator, so that server takes one request, not two.
// Phase 1: each rank routes segment descriptors (plus data, for writes)
// to the owning aggregators with an all-to-all. Parcels carry
// iovec-style buffer lists that alias the callers' staging buffers, so
// no payload concatenation copy is made on the sending side.
// Phase 2: aggregators coalesce the segments in their domain and issue
// large vectored file-system requests, one call per run — one for the
// two runs at a wrapped extent's ends; for reads the data flows back
// through a second all-to-all.
// ---------------------------------------------------------------------------

// BatchOp is one operation of a collective batch: data written to (or
// read into) the logical offset Off through the view (Disp, Type). A
// nil Type means contiguous bytes from Disp. A single collective is a
// batch of one op that names its view (the one SetView installed and
// charged, for a caller that keeps the MPI shape). Batching a whole
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

// domainOf returns the index of the domain holding byte offset off.
func domainOf(off, lo int64, domain int64) int {
	if domain <= 0 {
		return 0
	}
	return int((off - lo) / domain)
}

// domains is a collective's extent cut into file domains: domain k is
// [lo + k·size, lo + (k+1)·size), served by aggregator k of n, the last
// aggregator taking whatever lies past its domain. A nonzero wrap is the
// last domain of a wrapped extent (see wrapDomain), served by
// aggregator 0.
type domains struct {
	lo, size int64
	n, wrap  int
}

// owner returns the aggregator serving domain k (k < n).
func (d *domains) owner(k int) int {
	if k == d.wrap {
		return 0
	}
	return k
}

// split is the offset no phase-2 run crosses: where the wrapped last
// domain starts, past every offset when there is none.
func (d *domains) split() int64 {
	if d.wrap == 0 {
		return 1 << 62
	}
	return d.lo + int64(d.wrap)*d.size
}

// wrapDomain returns the last domain of an extent [lo, hi) cut into
// one-stripe domains from alignedLo when the extent is one row of
// servers stripes plus the drift: it starts inside its first stripe and
// ends inside the stripe servers stripes later, so its first and last
// pieces lie on one server, adjacent in that server's object. Otherwise
// it returns 0. Longer extents keep their domains: sending every stripe
// k and k+servers to one aggregator costs the import's history replay
// more than it saves.
func wrapDomain(lo, hi, alignedLo, size, unit int64, servers int) int {
	if size != unit || lo == alignedLo || alignUp(hi-alignedLo, unit) != int64(servers+1)*unit {
		return 0
	}
	return servers
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
// operation and cuts it into file domains: from the extent's start
// aligned down to the file's stripe unit, each a whole number of
// stripes. n is 0 when no rank has anything to move.
func (f *File) collectiveRange(flat []flatSeg) domains {
	myLo, myHi := int64(1<<62), int64(-1)
	if len(flat) > 0 {
		myLo = flat[0].seg.Off
		last := flat[len(flat)-1].seg
		myHi = last.Off + last.Len
	}
	lo := f.comm.AllreduceInt64(myLo, mpi.OpMin)
	hi := f.comm.AllreduceInt64(myHi, mpi.OpMax)
	if hi <= lo {
		return domains{}
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
	d := domains{n: f.hints.CBNodes}
	d.lo, d.size = fileDomains(lo, hi, f.unit, d.n)
	d.wrap = wrapDomain(lo, hi, d.lo, d.size, f.unit, f.sys.Config().NumServers)
	return d
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

// routeSegments splits this rank's flattened segments across the
// domains, producing one parcel per aggregator in the File's reusable
// parcel scratch. A first pass counts the pieces each domain receives,
// so that every parcel's Segs and Bufs are carved from two backing
// arrays of the scratch bundle: two growths per bundle however many
// aggregators the file has. Buffer pieces are split alongside their
// segments and keep aliasing the callers' memory — the iovec-style
// zero-copy routing.
func (f *File) routeSegments(flat []flatSeg, d *domains) []ioParcel {
	nAgg := d.n
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
		first := min(domainOf(fs.seg.Off, d.lo, d.size), nAgg-1)
		last := min(domainOf(fs.seg.Off+fs.seg.Len-1, d.lo, d.size), nAgg-1)
		for k := first; k <= last; k++ {
			counts[d.owner(k)]++
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
			k := min(domainOf(remaining.Off, d.lo, d.size), nAgg-1)
			domainEnd := d.lo + int64(k+1)*d.size
			take := remaining.Len
			if remaining.Off+take > domainEnd && k != nAgg-1 {
				take = domainEnd - remaining.Off
			}
			p := &parcels[d.owner(k)]
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
