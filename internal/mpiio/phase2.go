package mpiio

import (
	"fmt"
	"io"

	"sdm/internal/obs"
	"sdm/internal/sim"
)

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
// (cheaper to read through than to re-request). No run crosses split,
// where a wrapped last domain starts: the stripes between are other
// aggregators' to write. Runs are the units the aggregator turns into
// vectored file requests.
func sieveRunsInto(dst []sieveRun, all []aggSeg, maxGap, split int64) []sieveRun {
	var cur sieveRun
	for i, a := range all {
		if cur.hi > cur.lo {
			gap := a.seg.Off - cur.end // negative on overlap
			if gap <= maxGap && (cur.start >= split || a.seg.Off < split) {
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

// callEnd returns the end of the phase-2 call that starts at runs[i]:
// the run ending before split and the run starting the wrapped last
// domain are one call, which the file system serves as one request to
// their common server; every other run is a call of its own.
func callEnd(runs []sieveRun, i int, split int64) int {
	if i+1 < len(runs) && runs[i].start < split && runs[i+1].start >= split {
		return i + 2
	}
	return i + 1
}

// callExtents lists the file spans of a phase-2 call's runs in the
// File's extent scratch, with their total length: the extents of the
// one vectored request the call issues on the rank's clock, the unit of
// a phase-2 sub-timeline. Phase 2 runs on aggregators only, and every
// aggregator opened the file at Open.
func (f *File) callExtents(call []sieveRun) ([]Segment, int64) {
	exts := f.scr().ext[:0]
	var n int64
	for _, run := range call {
		exts = append(exts, Segment{Off: run.start, Len: run.end - run.start})
		n += run.end - run.start
	}
	return exts, n
}

// readExtents fills buf from exts as one vectored request on the rank's
// clock; reads past EOF zero-fill.
func (f *File) readExtents(buf []byte, exts []Segment) error {
	if _, err := f.h.ReadAtVec(buf, exts); err != io.EOF {
		return err
	}
	return nil
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
	d := f.collectiveRange(flat)
	if d.n == 0 {
		return nil // nothing to write anywhere
	}
	parcels := f.routeSegments(flat, &d)
	incoming := f.exchangeParcels(parcels, true)
	if tr != nil {
		tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "phase1:write", p1, f.comm.Clock().Now(),
			obs.KV{Key: "file", Val: f.name})
	}

	// Phase 2: aggregate and issue vectored contiguous writes. Every
	// call is issued on its own sub-timeline forked at the phase-2 start
	// — the calls cover disjoint file spans, so an aggregator drives them
	// concurrently, shared I/O servers serializing contending requests
	// in virtual time — and the rank's clock joins at the latest
	// completion. Runs with small interior holes are data-sieved:
	// read-modify-write of the whole span beats per-piece requests, and
	// the read chains before the write within the call's sub-timeline.
	if incoming != nil {
		all := f.gatherAggSegs(incoming)
		split := d.split()
		runs := sieveRunsInto(f.scr().runs[:0], all, f.sys.SieveGap(), split)
		f.scr().runs = runs
		clock := f.comm.Clock()
		fork := clock.Now()
		join := fork
		for i := 0; i < len(runs); {
			j := callEnd(runs, i, split)
			exts, n := f.callExtents(runs[i:j])
			f.scr().writeStage = grow(f.scr().writeStage, n)
			buf := f.scr().writeStage
			sieved := false
			var pos int64
			for k, run := range runs[i:j] {
				part := buf[pos : pos+run.end-run.start]
				pos += run.end - run.start
				if run.holes {
					sieved = true
					if err := f.readExtents(part, exts[k:k+1]); err != nil {
						return err
					}
				}
				for _, a := range all[run.lo:run.hi] {
					copy(part[a.seg.Off-run.start:], incoming[a.src].Bufs[a.srcIdx])
				}
			}
			if _, err := f.h.WriteAtVec(buf, exts); err != nil {
				return err
			}
			if tr != nil {
				tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "phase2:write-run", fork, clock.Now(),
					obs.KV{Key: "bytes", Val: fmt.Sprint(n)},
					obs.KV{Key: "sieved", Val: fmt.Sprint(sieved)})
			}
			join = sim.MaxTime(join, clock.Now())
			clock.Rebase(fork)
			i = j
		}
		clock.AdvanceTo(join)
	}
	f.comm.Barrier()
	return nil
}

// opSegments maps one op's logical range through its view into the
// File's reusable segment scratch — the one flattening beneath the
// two-phase batch, its independent (DisableCollective) fallback and
// WriteAt/ReadAt, the last two issuing the list as one vectored request
// with the op's Data already concatenated in segment order. The result
// is valid until the next opSegments call on this File.
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

// ReadAtAllOps collectively fills a whole batch of operations as one
// two-phase collective, the read counterpart of WriteAtAllOps: each
// op's Data receives the bytes its (Disp, Type, Off) range maps to.
// Short reads (past EOF) zero-fill, mirroring a collective read of a
// hole; an error is returned only for structural failures.
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
	d := f.collectiveRange(flat)
	if d.n == 0 {
		return nil
	}
	parcels := f.routeSegments(flat, &d)
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
		split := d.split()
		runs := sieveRunsInto(f.scr().runs[:0], all, f.sys.SieveGap(), split)
		f.scr().runs = runs
		var need int64
		for _, run := range runs {
			need += run.end - run.start
		}
		f.scr().readArena = grow(f.scr().readArena, need)
		arena := f.scr().readArena
		// Forked sub-timeline per call, as on the write side: calls carve
		// disjoint arena regions and file spans, so they are issued
		// concurrently from the phase-2 fork point and the clock joins
		// at the latest completion before the reply all-to-all.
		clock := f.comm.Clock()
		fork := clock.Now()
		join := fork
		var cur int64
		for i := 0; i < len(runs); {
			j := callEnd(runs, i, split)
			exts, n := f.callExtents(runs[i:j])
			if err := f.readExtents(arena[cur:cur+n], exts); err != nil {
				return err
			}
			if tr != nil {
				tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "phase2:read-run", fork, clock.Now(),
					obs.KV{Key: "bytes", Val: fmt.Sprint(n)})
			}
			join = sim.MaxTime(join, clock.Now())
			clock.Rebase(fork)
			for _, run := range runs[i:j] {
				buf := arena[cur : cur+run.end-run.start]
				cur += run.end - run.start
				for _, a := range all[run.lo:run.hi] {
					replies[a.src].Data[a.srcIdx] = buf[a.seg.Off-run.start : a.seg.Off-run.start+a.seg.Len]
				}
			}
			i = j
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
