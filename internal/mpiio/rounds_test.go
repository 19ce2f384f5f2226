package mpiio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sdm/internal/mpi"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// readOneRound is the collective read as it was before reply rounds,
// frozen here as the reference the rounds are held to: the same
// agreement, routing, fork and phase-2 calls, then every aggregator's
// whole reply in one all-to-all once its last call has completed.
func readOneRound(f *File, ops []BatchOp) error {
	clock := f.comm.Clock()
	flat := f.flattenOps(ops)
	d := f.collectiveRange(flat, true)
	if d.n == 0 {
		return nil
	}
	agreed := clock.Now()
	parcels := f.routeSegments(flat, &d)
	incoming := f.exchangeParcels(parcels, false)
	type reply struct {
		data [][]byte
		err  error
	}
	parts := make([]any, f.comm.Size())
	var total int64
	if incoming != nil {
		replies := make([]reply, len(incoming))
		for i := range incoming {
			replies[i].data = make([][]byte, len(incoming[i].Segs))
		}
		all := f.gatherAggSegs(incoming)
		split := d.split()
		runs := sieveRunsInto(nil, all, f.sys.SieveGap(), split)
		var need int64
		for _, run := range runs {
			need += run.end - run.start
		}
		fork := clock.Now()
		if d.dense && need == d.clippedLen(f.aggIndex(f.comm.Rank())) {
			fork = agreed
		}
		arena := make([]byte, need)
		join := clock.Now()
		clock.Rebase(fork)
		var cur int64
		var err error
		for i := 0; i < len(runs) && err == nil; {
			j := callEnd(runs, i, split)
			exts, n := f.callExtents(runs[i:j])
			err = f.readExtents(arena[cur:cur+n], exts)
			join = sim.MaxTime(join, clock.Now())
			clock.Rebase(fork)
			for _, run := range runs[i:j] {
				buf := arena[cur : cur+run.end-run.start]
				cur += run.end - run.start
				for _, a := range all[run.lo:run.hi] {
					replies[a.src].data[a.srcIdx] = buf[a.seg.Off-run.start : a.seg.Off-run.start+a.seg.Len]
				}
			}
			i = j
		}
		clock.AdvanceTo(join)
		for i := range replies {
			replies[i].err = err
			parts[i] = &replies[i]
			for _, b := range replies[i].data {
				total += int64(len(b))
			}
		}
	}
	back := f.comm.Alltoall(parts, total)
	for k := range parcels {
		r := back[f.aggRank(k)].(*reply)
		if r.err != nil {
			return r.err
		}
		for i, b := range r.data {
			copy(parcels[k].Bufs[i], b)
		}
	}
	return nil
}

// denseLayout is one random dense read: a file, an agreed extent
// [start, end) tiled by the ranks' requests, and the hardware.
type denseLayout struct {
	ranks, set  int
	servers     int
	unit        int64
	start, end  int64
	pieces      [][]int64 // per rank: (off, len) pairs, possibly many
	serverBW    float64
	reqLatency  sim.Duration
	netLatency  sim.Duration
	netBW       float64
	stripeFirst int // server of stripe 0
}

// randomDenseLayout draws an extent of at most set stripes — so the
// domains are one stripe each, the case that replies in rounds — cut
// into pieces from a byte or two to whole stripes, dealt to random
// ranks, over a random file-system and network profile around the
// paper's. The finest cuts make the descriptor exchange outlast the
// reads, where extra rounds could only add exchange latency.
func randomDenseLayout(rng *rand.Rand) denseLayout {
	l := denseLayout{
		ranks:      2 + rng.Intn(11),
		servers:    1 + rng.Intn(6),
		unit:       int64(4096 * (1 + rng.Intn(40))),
		serverBW:   []float64{10e6, 35e6, 100e6}[rng.Intn(3)],
		reqLatency: []sim.Duration{0, 100_000, 800_000}[rng.Intn(3)] + sim.Duration(rng.Intn(100_000)),
		netLatency: sim.Duration(rng.Intn(40_000)),
		netBW:      []float64{50e6, 200e6, 1e9}[rng.Intn(3)],
	}
	l.set = 1 + rng.Intn(l.ranks)
	l.stripeFirst = rng.Intn(l.servers)
	stripes := int64(1 + rng.Intn(l.set))
	mean := []int64{2, 512, 8192, l.unit}[rng.Intn(4)]
	if mean == 2 {
		l.unit = int64(4096 * (1 + rng.Intn(4))) // at most a few thousand pieces
		stripes = min(stripes, 2)
	}
	l.start = int64(rng.Intn(3)) * l.unit
	if rng.Intn(2) == 0 {
		l.start += rng.Int63n(l.unit) // an unaligned start: the drift
	}
	l.end = alignDown(l.start, l.unit) + stripes*l.unit
	if rng.Intn(2) == 0 {
		l.end -= rng.Int63n(l.end - l.start) // end inside the last stripe, or earlier
	}
	l.pieces = make([][]int64, l.ranks)
	for off := l.start; off < l.end; {
		n := min(1+rng.Int63n(2*mean), l.end-off)
		r := rng.Intn(l.ranks)
		l.pieces[r] = append(l.pieces[r], off, n)
		off += n
	}
	return l
}

// ops returns a rank's requests as contiguous ops in random order, each
// with a fresh buffer.
func (l *denseLayout) ops(rank int, rng *rand.Rand) []BatchOp {
	p := l.pieces[rank]
	ops := make([]BatchOp, 0, len(p)/2)
	for i := 0; i < len(p); i += 2 {
		ops = append(ops, BatchOp{Disp: p[i], Data: make([]byte, p[i+1])})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// runDense reads the layout with read, on a fresh file system and
// world, and returns every rank's ops, its clock when the read
// returned, and the file system's stats.
func (l *denseLayout) runDense(t *testing.T, seed int64, file []byte, read func(*File, []BatchOp) error) ([][]BatchOp, []sim.Time, pfs.Stats) {
	t.Helper()
	sys := pfs.NewSystem(pfs.Config{
		NumServers: l.servers, StripeSize: l.unit,
		ServerBandwidth: l.serverBW, RequestLatency: l.reqLatency,
	})
	if err := writeFileAt(sys, file, l.unit, l.stripeFirst); err != nil {
		t.Fatal(err)
	}
	ops := make([][]BatchOp, l.ranks)
	ends := make([]sim.Time, l.ranks)
	err := mpi.NewWorld(l.ranks, mpi.Config{Latency: l.netLatency, Bandwidth: l.netBW}).Run(func(c *mpi.Comm) {
		f, err := Open(c, sys, "f", pfs.ReadOnly, Hints{CBNodes: l.set})
		if err != nil {
			panic(err)
		}
		ops[c.Rank()] = l.ops(c.Rank(), rand.New(rand.NewSource(seed+int64(c.Rank()))))
		c.Barrier()
		if err := read(f, ops[c.Rank()]); err != nil {
			panic(err)
		}
		ends[c.Rank()] = c.Now()
		f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return ops, ends, sys.Stats()
}

// writeFileAt lays file down as "f", striped by unit from server first,
// and leaves the servers idle.
func writeFileAt(sys *pfs.System, file []byte, unit int64, first int) error {
	h, err := sys.Create("f", unit, first, nil)
	if err != nil {
		return err
	}
	if _, err := h.WriteAtVec(file, []pfs.Extent{{Off: 0, Len: int64(len(file))}}); err != nil {
		return err
	}
	sys.ResetSchedules()
	return h.Close()
}

// TestReplyRoundsNeverLater: over random dense layouts of one-stripe
// domains, the read in reply rounds delivers exactly the one-round
// reference's bytes, costs the file system exactly its requests and
// bytes, and no rank returns later.
func TestReplyRoundsNeverLater(t *testing.T) {
	const cases = 300
	rounded := 0
	for seed := int64(1); seed <= cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := randomDenseLayout(rng)
		file := make([]byte, l.end)
		rng.Read(file)
		refOps, refEnds, refStats := l.runDense(t, seed, file, readOneRound)
		gotOps, gotEnds, gotStats := l.runDense(t, seed, file, (*File).ReadAtAllOps)
		name := fmt.Sprintf("seed %d (%d ranks, set %d, %d servers, unit %d, extent [%d, %d))",
			seed, l.ranks, l.set, l.servers, l.unit, l.start, l.end)
		for r := range refOps {
			for i := range refOps[r] {
				want, got := refOps[r][i], gotOps[r][i]
				if !bytes.Equal(got.Data, want.Data) || !bytes.Equal(got.Data, file[got.Disp:got.Disp+int64(len(got.Data))]) {
					t.Fatalf("%s: rank %d op %d delivered other bytes", name, r, i)
				}
			}
			if gotEnds[r] > refEnds[r] {
				t.Errorf("%s: rank %d returns at %v, later than one round's %v", name, r, gotEnds[r], refEnds[r])
			}
			if gotEnds[r] < refEnds[r] && r == 0 {
				rounded++
			}
		}
		if gotStats != refStats {
			t.Errorf("%s: stats %+v, want the one-round read's %+v", name, gotStats, refStats)
		}
	}
	if rounded < cases/4 {
		t.Errorf("rounds shortened only %d of %d reads", rounded, cases)
	}
	t.Logf("rounds shortened %d of %d reads", rounded, cases)
}

// TestReplyRoundsHandComputed pins the rule on a read small enough to
// follow by hand: 4 ranks, 2 aggregators, a 64 KiB file of two 32 KiB
// stripes, one on each of 2 servers. Rank r asks for 8 KiB at r·8 KiB
// of each stripe, so each aggregator replies to every rank.
//
// Costs (Go truncates each float transfer time to the nanosecond):
//   - file: 200 µs a request, 20 ns a byte (50 MB/s);
//   - network: 50 µs a message, 5 ns a byte (200 MB/s), so an
//     all-to-all whose largest sender sends x bytes costs
//     C(x) = 3·(50000 + ⌊5·⌊x/4⌋⌋) ns.
//
// B: the least B ≥ 4096 with 20·B ≥ C(B) is 9231 (184620 ≥ 184605;
// 9230 gives 184600 < 184605). Each aggregator holds one stripe, 32768
// bytes, so R = ⌈32768 / 9231⌉ = 4, cut from the end: 5075, then three
// rounds of 9231.
//
// Times from the barrier t0: the extent reduction ends at
// agreed = 2·(50000 + 119) = 100238; the descriptor exchange (24 bytes
// the largest sender) at E = agreed + 3·(50000 + 29) = agreed + 150087.
// Each aggregator's request runs from the agreement alone on its
// server: done = agreed + 200000 + 20·32768 = agreed + 855360, and
// its first x bytes land at done − 20·(32768 − x).
//   - round 0 waits for 5075 bytes: agreed + 301500, ends + C(5075) =
//     169020 at agreed + 470520;
//   - round 1 waits for 14306: agreed + 486120, ends + 184605 at
//     agreed + 670725;
//   - round 2 waits for 23537: agreed + 670740, ends at agreed + 855345;
//   - round 3 waits for all: done, ends at agreed + 1039965.
//
// Every rank returns at t0 + 1140203. One round would have waited for
// done and sent 32768 bytes: agreed + 855360 + 272880, 88275 ns later.
// Rounds past the first fit: E + C(5075) + 3·C(9231) = agreed + 872922
// is within the one-round end.
func TestReplyRoundsHandComputed(t *testing.T) {
	const ranks, unit = 4, 32768
	sys := pfs.NewSystem(pfs.Config{NumServers: 2, StripeSize: unit, ServerBandwidth: 50e6, RequestLatency: 200_000})
	file := make([]byte, 2*unit)
	for i := range file {
		file[i] = byte(i*5 + i>>8)
	}
	if err := writeFileAt(sys, file, unit, 0); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	sys.SetTracer(tr)
	var t0 [ranks]sim.Time
	var ends [ranks]sim.Time
	var bs [ranks]int64
	err := mpi.NewWorld(ranks, mpi.Config{Latency: 50_000, Bandwidth: 200e6}).Run(func(c *mpi.Comm) {
		f, err := OpenAt(c, sys, "f", pfs.ReadOnly, Hints{CBNodes: 2}, Placement{})
		if err != nil {
			panic(err)
		}
		r := int64(c.Rank())
		ops := rangeOps(r*8192, 8192, unit+r*8192, 8192)
		c.Barrier()
		t0[r] = c.Now()
		if err := f.ReadAtAllOps(ops); err != nil {
			panic(err)
		}
		ends[r] = c.Now()
		bs[r] = f.roundBytes()
		for _, op := range ops {
			if !bytes.Equal(op.Data, file[op.Disp:op.Disp+8192]) {
				t.Errorf("rank %d: bytes at %d differ from the file", r, op.Disp)
			}
		}
		f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	const agreed = 100238
	for r := range ranks {
		if bs[r] != 9231 {
			t.Errorf("rank %d: B = %d, want 9231", r, bs[r])
		}
		if got := ends[r].Sub(t0[r]); got != 1140203 {
			t.Errorf("rank %d: read took %d ns, want 1140203", r, got)
		}
		var rounds []obs.Span
		for _, sp := range tr.Spans() {
			if sp.Pid == obs.PidRank(r) && sp.Name == "phase2:reply" {
				rounds = append(rounds, sp)
			}
		}
		if want := []int{4, 4, 0, 0}[r]; len(rounds) != want { // the aggregators trace their rounds
			t.Fatalf("rank %d: %d reply round spans, want %d", r, len(rounds), want)
		}
		wantBytes := []string{"5075", "9231", "9231", "9231"}
		for q, sp := range rounds {
			if want := []int64{470520, 670725, 855345, 1039965}[q]; sp.End.Sub(t0[r]) != sim.Duration(agreed+want) {
				t.Errorf("rank %d round %d ends at t0 + %d, want t0 + %d", r, q, sp.End.Sub(t0[r]), agreed+want)
			}
			if got := spanArg(sp, "bytes"); got != wantBytes[q] || spanArg(sp, "round") != fmt.Sprint(q) {
				t.Errorf("rank %d round %d: round=%s bytes=%s, want %d and %s", r, q, spanArg(sp, "round"), got, q, wantBytes[q])
			}
		}
	}
}

// TestReplyRoundsAllocateNothing: once a rank's staging bundle has
// grown, a read that replies in four rounds allocates exactly what the
// same read in one round does — the two reply tables alternate, and an
// all-to-all allocates nothing.
func TestReplyRoundsAllocateNothing(t *testing.T) {
	const p, reads = 4, 10
	allocs := make(map[float64]float64)
	for _, bw := range []float64{0, 35e6} { // one round; four rounds of 4 KiB
		sys := pfs.NewSystem(pfs.Config{NumServers: 4, StripeSize: 16384, ServerBandwidth: bw, RequestLatency: 800_000})
		if err := sys.WriteFile("f", bytes.NewReader(make([]byte, p*16384))); err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		sys.SetTracer(tr)
		world := mpi.NewWorld(p, mpi.DefaultConfig())
		scratch := make([]Scratch, p)
		files := make([]*File, p)
		bufs := make([][]byte, p)
		if err := world.Run(func(c *mpi.Comm) {
			f, err := Open(c, sys, "f", pfs.ReadOnly, Hints{})
			if err != nil {
				panic(err)
			}
			f.UseScratch(&scratch[c.Rank()])
			f.SetView(0, roundRobinView(c, 2048))
			files[c.Rank()], bufs[c.Rank()] = f, make([]byte, 2048*8)
			if err := readAll(f, 0, bufs[c.Rank()]); err != nil { // grow the bundle
				panic(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		rounds := 0
		for _, sp := range tr.Spans() {
			if sp.Pid == obs.PidRank(0) && sp.Name == "phase2:reply" {
				rounds++
			}
		}
		if want := map[float64]int{0: 1, 35e6: 4}[bw]; rounds != want {
			t.Fatalf("bandwidth %v: %d reply rounds, want %d", bw, rounds, want)
		}
		sys.SetTracer(nil)
		allocs[bw] = testing.AllocsPerRun(5, func() {
			if err := world.Run(func(c *mpi.Comm) {
				for range reads {
					if err := readAll(files[c.Rank()], 0, bufs[c.Rank()]); err != nil {
						panic(err)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[35e6] != allocs[0] {
		t.Errorf("%d reads in four rounds allocated %.0f times, in one round %.0f", reads, allocs[35e6], allocs[0])
	}
}
