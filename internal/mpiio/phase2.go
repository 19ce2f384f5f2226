package mpiio

import (
	"fmt"
	"io"
	"strconv"

	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// aggSeg tracks an incoming segment and its origin for the return trip.
type aggSeg struct {
	seg    Segment
	src    int   // requesting rank
	srcIdx int   // index within that rank's parcel
	pos    int64 // reads: where its bytes start in the aggregator's arena
}

// gatherAggSegs flattens incoming parcels into the File's reusable
// aggregator scratch, sorted by file offset. Each source's segments
// arrive already sorted (ranks flatten sorted segment lists and
// routing preserves order), so the global order comes from a bottom-up
// merge of the per-source runs rather than a full sort. Ties take the
// lower source rank first, making aggregation deterministic.
func (f *File) gatherAggSegs(incoming []ioParcel) []aggSeg {
	// Size the lists from the incoming counts, and the run boundaries for
	// a run per rank: a rank's first duty as an aggregator then costs one
	// allocation each, not a doubling series.
	var total int
	for src := range incoming {
		total += len(incoming[src].Segs)
	}
	if cap(f.scr().aggs) < total {
		f.scr().aggs = make([]aggSeg, 0, ample(total))
	}
	if cap(f.scr().bounds) < len(incoming)+1 {
		f.scr().bounds = make([]int, 0, len(incoming)+1)
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
		f.scr().aggsAux = make([]aggSeg, len(all), cap(all))
	}
	aux := f.scr().aggsAux[:len(all)]
	if cap(f.scr().boundsAux) < len(bounds) {
		f.scr().boundsAux = make([]int, 0, cap(bounds))
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
// space. An aggregator's file-system error reaches every rank through
// the trailing Barrier, so all ranks return an error together.
//
// Buffer lifetime: the ops' Data slices are aliased into phase-1
// parcels (zero-copy) and read by the aggregators in phase 2. Every
// aggregator finishes phase 2 before it enters the trailing Barrier, so
// the caller may reuse the buffers as soon as the call returns.
func (f *File) WriteAtAllOps(ops []BatchOp) error {
	if f.hints.DisableCollective {
		h, err := f.handle()
		for i := 0; err == nil && i < len(ops); i++ {
			_, err = h.WriteAtVec(ops[i].Data, f.opSegments(&ops[i]))
		}
		return f.comm.BarrierErr(err)
	}
	tr := f.sys.Tracer()
	p1 := f.comm.Clock().Now()
	flat := f.flattenOps(ops)
	d := f.collectiveRange(flat, false)
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
	// completion. A failed call ends phase 2 on this aggregator.
	var err error
	if incoming != nil {
		all := f.gatherAggSegs(incoming)
		split := d.split()
		runs := sieveRunsInto(f.scr().runs[:0], all, f.sys.SieveGap(), split)
		f.scr().runs = runs
		clock := f.comm.Clock()
		fork := clock.Now()
		join := fork
		for i := 0; i < len(runs) && err == nil; {
			j := callEnd(runs, i, split)
			var n int64
			var sieved bool
			n, sieved, err = f.writeCall(runs[i:j], all, incoming)
			if tr != nil && err == nil {
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
	return f.comm.BarrierErr(err)
}

// writeCall stages one phase-2 call's runs from the incoming parcels
// and writes them as one vectored request on the rank's clock,
// returning its length and whether a run was sieved. Runs with small
// interior holes are data-sieved: read-modify-write of the whole span
// beats per-piece requests, and the read chains before the write on the
// call's sub-timeline.
func (f *File) writeCall(call []sieveRun, all []aggSeg, incoming []ioParcel) (int64, bool, error) {
	exts, n := f.callExtents(call)
	f.scr().writeStage = grow(f.scr().writeStage, n)
	buf := f.scr().writeStage
	sieved := false
	var pos int64
	for k, run := range call {
		part := buf[pos : pos+run.end-run.start]
		pos += run.end - run.start
		if run.holes {
			sieved = true
			if err := f.readExtents(part, exts[k:k+1]); err != nil {
				return n, sieved, err
			}
		}
		for _, a := range all[run.lo:run.hi] {
			copy(part[a.seg.Off-run.start:], incoming[a.src].Bufs[a.srcIdx])
		}
	}
	_, err := f.h.WriteAtVec(buf, exts)
	return n, sieved, err
}

// opSegments maps one op's logical range through its view into the
// File's reusable segment scratch — the one flattening beneath the
// two-phase batch, its independent (DisableCollective) fallback and
// WriteAt/ReadAt, the last two issuing the list as one vectored request
// with the op's Data already concatenated in segment order. The result
// is valid until the next opSegments call on this File.
func (f *File) opSegments(op *BatchOp) []Segment {
	segs := room(f.scr().segs, op.segCount())
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

// readReply is one aggregator's reply round to one requester: the
// pieces of the requester's segments the round carries. Err is the
// aggregator's file-system error, which voids the whole reply; it rides
// every round.
type readReply struct {
	Pieces []replyPiece
	Err    error
}

// replyPiece is bytes of one requested segment: Data belongs at byte
// Off of segment Seg of the requester's parcel to this aggregator
// (parcels[agg].Segs[Seg], scattered into parcels[agg].Bufs[Seg]).
type replyPiece struct {
	Seg  int
	Off  int64
	Data []byte
}

// pageBytes is the least reply round: one page.
const pageBytes = 4096

// ReadAtAllOps collectively fills a whole batch of operations as one
// two-phase collective, the read counterpart of WriteAtAllOps: each
// op's Data receives the bytes its (Disp, Type, Off) range maps to.
// Short reads (past EOF) zero-fill, mirroring a collective read of a
// hole; an error is returned only for structural failures, and an
// aggregator's file-system error reaches every rank in its reply.
//
// The extent agreement also sums the requested bytes. A dense read —
// the requests tile the extent, as every checkpoint and restart read
// does — lets each aggregator know its runs (its domains clipped to the
// extent) as soon as the extent is agreed, so its phase 2 forks there
// and overlaps the descriptor all-to-all, which then only routes the
// replies. Any other read (ghost requests that overlap, holes), and an
// aggregator whose runs fall short of its clipped domains, forks phase
// 2 once the descriptors have arrived. Either way the host issues
// the file requests after the exchange; only the virtual fork point
// differs.
//
// The replies leave in rounds (see replyRounds): on a dense read of
// one-stripe domains each aggregator's bytes stream off one server in
// one request, and each round leaves once its bytes have landed, so the
// reply overlaps the file access and only the last round is exposed.
// Every other read replies in one round. An aggregator traces each
// round as a phase2:reply span, from its wait for the round's bytes to
// the end of the round's exchange.
func (f *File) ReadAtAllOps(ops []BatchOp) error {
	if f.hints.DisableCollective {
		h, err := f.handle()
		for i := 0; err == nil && i < len(ops); i++ {
			if _, e := h.ReadAtVec(ops[i].Data, f.opSegments(&ops[i])); e != io.EOF {
				err = e
			}
		}
		return f.comm.BarrierErr(err)
	}
	tr := f.sys.Tracer()
	clock := f.comm.Clock()
	p1 := clock.Now()
	flat := f.flattenOps(ops)
	d := f.collectiveRange(flat, true)
	if d.n == 0 {
		return nil
	}
	agreed := clock.Now()
	parcels := f.routeSegments(flat, &d)
	incoming := f.exchangeParcels(parcels, false)
	exchanged := clock.Now()
	if tr != nil {
		tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "phase1:read", p1, exchanged,
			obs.KV{Key: "file", Val: f.name},
			obs.KV{Key: "dense", Val: strconv.FormatBool(d.dense)})
	}

	// Phase 2: aggregators read their domains as spanning runs (data
	// sieving through small holes) into one arena, in file order. The
	// other ranks read nothing. A failed call ends phase 2 on this
	// aggregator and voids its replies.
	var rd aggRead
	if incoming != nil {
		rd = f.readDomains(&d, incoming, agreed)
	}
	rounds, b := f.replyRounds(&d, agreed, exchanged)
	per := b // bytes per round of this aggregator's reply, cut from its end
	if !rd.streams {
		per = rd.n // one round of everything, the last
	}

	// Round q carries this aggregator's bytes [lo, hi) of its arena. A
	// round's replies alternate between two tables: a peer may still be
	// copying round q's pieces while this rank fills round q + 1's, but
	// not round q − 1's, since every rank has entered round q's
	// exchange.
	var lo int64
	var first int // the first aggregated segment not yet wholly sent
	var err error
	for q := range rounds {
		start := clock.Now()
		anyReplies := f.nilParts()
		var sent int64
		if incoming != nil {
			hi := max(0, rd.n-int64(rounds-1-q)*per)
			if hi > lo {
				clock.AdvanceTo(rd.landed(f.h, hi))
			}
			first, sent = f.fillReplies(q%2, anyReplies, &rd, first, lo, hi)
			lo = hi
		}
		back := f.comm.Alltoall(anyReplies, sent)
		if tr != nil && incoming != nil {
			tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "phase2:reply", start, clock.Now(),
				obs.KV{Key: "round", Val: strconv.Itoa(q)},
				obs.KV{Key: "bytes", Val: strconv.FormatInt(sent, 10)})
		}
		// Scatter the round into the callers' buffers through the
		// destination slices recorded when routing: aggregator k
		// answered parcel k. Every rank runs every round, a failed one
		// included, so none is left in the collective.
		for k := range parcels {
			reply := back[f.aggRank(k)].(*readReply)
			if reply.Err != nil {
				if err == nil {
					err = reply.Err
				}
				continue
			}
			for _, pc := range reply.Pieces {
				copy(parcels[k].Bufs[pc.Seg][pc.Off:], pc.Data)
			}
		}
	}
	return err
}

// aggRead is an aggregator's phase 2 of one read: its gathered
// segments (each with its arena position), the arena holding the n
// bytes its runs read, the time the last call completed, its error,
// and whether its bytes streamed off one server as one request — then
// the handle's Landed tells when each of them arrived.
type aggRead struct {
	all     []aggSeg
	arena   []byte
	n       int64
	done    sim.Time
	err     error
	streams bool
}

// landed is when the first x bytes of the aggregator's arena had
// arrived: as its one request streamed in, or all at the end.
func (rd *aggRead) landed(h *pfs.Handle, x int64) sim.Time {
	if rd.streams {
		if t, ok := h.Landed(x); ok {
			return t
		}
	}
	return rd.done
}

// readDomains runs an aggregator's phase 2: it reads its runs, one
// vectored call each (the two runs at a wrapped extent's ends are one),
// into the arena in file order, each call on a sub-timeline forked at
// the phase-2 start; the calls cover disjoint file spans and arena
// regions, so an aggregator drives them concurrently. The rank's clock
// is left where it was.
func (f *File) readDomains(d *domains, incoming []ioParcel, agreed sim.Time) aggRead {
	tr := f.sys.Tracer()
	clock := f.comm.Clock()
	all := f.gatherAggSegs(incoming)
	split := d.split()
	runs := sieveRunsInto(f.scr().runs[:0], all, f.sys.SieveGap(), split)
	f.scr().runs = runs
	var need int64
	for _, run := range runs {
		need += run.end - run.start
	}
	// The runs lie in this aggregator's domains and do not overlap,
	// so they cover its domains clipped to the extent — what a dense
	// read knew to read at the agreement — exactly when their lengths
	// sum to the clipped length.
	back := clock.Now()
	fork := back
	early := d.dense && need == d.clippedLen(f.aggIndex(f.comm.Rank()))
	if early {
		fork = agreed
	}
	f.scr().readArena = grow(f.scr().readArena, need)
	rd := aggRead{all: all, arena: f.scr().readArena, n: need, done: fork}
	clock.Rebase(fork)
	var cur int64
	calls := 0
	for i := 0; i < len(runs) && rd.err == nil; calls++ {
		j := callEnd(runs, i, split)
		exts, n := f.callExtents(runs[i:j])
		rd.err = f.readExtents(rd.arena[cur:cur+n], exts)
		if tr != nil && rd.err == nil {
			tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "phase2:read-run", fork, clock.Now(),
				obs.KV{Key: "bytes", Val: fmt.Sprint(n)})
		}
		rd.done = sim.MaxTime(rd.done, clock.Now())
		clock.Rebase(fork)
		for _, run := range runs[i:j] {
			for k := run.lo; k < run.hi; k++ {
				all[k].pos = cur + all[k].seg.Off - run.start
			}
			cur += run.end - run.start
		}
		i = j
	}
	clock.Rebase(back)
	// One-stripe domains put a dense read's call on one server as one
	// request, whose bytes land in arena order.
	rd.streams = early && d.size == f.unit && calls == 1 && rd.err == nil
	return rd
}

// replyRounds returns how many reply rounds a read runs, the same on
// every rank, and the round size B. A dense read whose domains are one
// stripe each replies in rounds: every rank knows each aggregator's
// bytes (its clipped domains) at the agreement, and each aggregator
// reads them as one request to one server, so they land in order. Each
// aggregator cuts its bytes into rounds of B from the end — its last B
// bytes go in the last round, the bytes before its first round's in
// the first — so every aggregator's last round is the collective's, and
// its rounds land at least one round's exchange apart (see roundBytes):
// the exposed tail is one round's reply, not the whole of it. Every
// other read, and a network too slow for rounds to hide anything,
// replies in one round.
//
// The most bytes any aggregator holds need ⌈most / B⌉ rounds. But each
// round past the first pays the exchange's latency once more, which
// only a round still waiting for bytes hides. The largest share's last
// byte cannot land before RequestLatency and its transfer time after
// the agreement; a read runs only as many extra rounds as the time from
// the end of the descriptor exchange to then pays for, and the rounds
// it drops ride in the first. When the requests tile the extent no
// rank then returns later than from one round: the first round plus
// the extra rounds end by the one-round end, and every later round by
// the last byte plus one round's exchange, since a round sends at most
// B bytes and B bytes take as long to land as their exchange takes.
func (f *File) replyRounds(d *domains, agreed, exchanged sim.Time) (int, int64) {
	if !d.dense || d.size != f.unit {
		return 1, 0
	}
	b := f.roundBytes()
	if b == 0 {
		return 1, 0
	}
	most := d.most()
	c := f.comm.AlltoallCost
	landed := agreed.Add(f.sys.Config().RequestLatency + f.sys.TransferTime(most))
	bound := sim.MaxTime(exchanged, landed).Add(c(most))
	extra := (most+b-1)/b - 1 // rounds after the first
	for extra > 0 && exchanged.Add(c(most-extra*b)+sim.Duration(extra)*c(b)) > bound {
		extra--
	}
	return int(extra) + 1, b
}

// roundBytes is a reply round's size B: the fewest bytes, and at least
// a page, whose streaming off a server lasts at least as long as an
// all-to-all whose largest sender sends them. It is a function of the
// file system's profile and the communicator's size, 0 when no B
// qualifies: on infinitely fast servers, whose bytes land all at once,
// and on a network slower than a server.
func (f *File) roundBytes() int64 {
	if f.sys.Config().ServerBandwidth <= 0 {
		return 0
	}
	fits := func(b int64) bool { return f.sys.TransferTime(b) >= f.comm.AlltoallCost(b) }
	lo, hi := int64(pageBytes), int64(1)<<40
	if !fits(hi) {
		return 0
	}
	for lo < hi {
		if mid := lo + (hi-lo)/2; fits(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// fillReplies fills reply table t with the pieces of the aggregator's
// arena bytes [lo, hi), one reply per rank, boxed into parts. Segments
// are sorted by arena position, so the round's pieces start at the
// first segment not wholly sent before lo, found from first on; it
// returns that segment, where the next round's search starts, and the
// bytes the round sends. Each reply's pieces are carved from one
// backing array per table, counted first, so a round allocates nothing
// once the tables have grown.
func (f *File) fillReplies(t int, parts []any, rd *aggRead, first int, lo, hi int64) (int, int64) {
	sc := f.scr()
	size := len(parts)
	if cap(sc.replies[t]) < size {
		sc.replies[t] = make([]readReply, size)
	}
	if cap(sc.replyN) < size {
		sc.replyN = make([]int, size)
	}
	replies, counts := sc.replies[t][:size], sc.replyN[:size]
	clear(counts)
	all := rd.all
	total, last := 0, first
	if rd.err == nil {
		for first < len(all) && all[first].pos+all[first].seg.Len <= lo {
			first++
		}
		for last = first; last < len(all) && all[last].pos < hi; last++ {
			if a := &all[last]; a.pos+a.seg.Len > lo {
				counts[a.src]++
				total++
			}
		}
	}
	if cap(sc.pieces[t]) < total {
		// A segment is at most one piece of a round.
		sc.pieces[t] = make([]replyPiece, ample(len(all)))
	}
	pieces := sc.pieces[t][:total]
	for i, n := range counts {
		replies[i] = readReply{Pieces: pieces[:0:n], Err: rd.err}
		pieces = pieces[n:]
		parts[i] = &replies[i]
	}
	var sent int64
	for _, a := range all[first:last] {
		from, to := max(a.pos, lo), min(a.pos+a.seg.Len, hi)
		if from >= to {
			continue
		}
		r := &replies[a.src]
		r.Pieces = append(r.Pieces, replyPiece{Seg: a.srcIdx, Off: from - a.pos, Data: rd.arena[from:to]})
		sent += to - from
	}
	return first, sent
}
