// Package mpi implements the message-passing substrate SDM runs on: an
// in-process analogue of the MPI runtime the paper uses. Ranks are
// goroutines that take turns (turns.go): one runs at a time, so the
// order in which ranks reach a shared resource is a function of the
// program. Point-to-point messages move through per-rank mailboxes
// with MPI's non-overtaking tag-matching semantics; the collectives SDM
// needs (Barrier, Bcast, Allgather, Alltoall, Allreduce, Sendrecv) are
// provided with deterministic results.
//
// Every rank carries a virtual clock (internal/sim). Communication
// advances the clocks according to a latency/bandwidth model, so the
// cost of SDM's index distribution — the quantity Figure 5 of the paper
// measures — is simulated faithfully rather than measured on the host.
package mpi

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"

	"sdm/internal/sim"
)

// Wildcard values for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Config describes the simulated interconnect.
type Config struct {
	// Latency is the fixed per-message cost.
	Latency sim.Duration
	// Bandwidth is the per-link transfer rate in bytes/second.
	// Zero means infinitely fast links (only latency is charged).
	Bandwidth float64
}

// DefaultConfig models a late-1990s shared-memory interconnect in the
// spirit of the Origin2000: ~10us latency, ~200 MB/s per link.
func DefaultConfig() Config {
	return Config{Latency: 10_000, Bandwidth: 200e6}
}

// World is a fixed-size group of simulated processes. It plays the role
// of MPI_COMM_WORLD: create one per application run, then call Run with
// the per-rank body. Only the rank holding the turn touches a World's
// state, so none of it is locked.
type World struct {
	size  int
	cfg   Config
	boxes [][]message // undelivered messages, per receiving rank
	rv    *rendezvous
	comms []*Comm

	turn  []chan struct{} // a rank runs once it receives on its channel
	state []rankState
	rng   *rand.Rand // nil: turns pass in rank order (see turnSeed)

	// atMatrix is the Alltoall transpose matrix, reused across calls:
	// it is only rewritten inside a rendezvous every rank has entered,
	// which happens-after every rank consumed the previous result.
	atMatrix [][]any
	// mmResult is minMaxSum's result, reused the same way.
	mmResult [3]int64

	aborted  bool
	abortMsg string

	sentMsgs  int64
	sentBytes int64
}

// NewWorld creates a world of n ranks. n must be positive.
func NewWorld(n int, cfg Config) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: NewWorld with non-positive size %d", n))
	}
	w := &World{size: n, cfg: cfg, boxes: make([][]message, n), state: make([]rankState, n)}
	w.rv = &rendezvous{slots: make([]any, n), times: make([]sim.Time, n)}
	w.comms = make([]*Comm, n)
	w.turn = make([]chan struct{}, n)
	for i := range w.comms {
		w.comms[i] = &Comm{world: w, rank: i, clock: sim.NewClock()}
		w.turn[i] = make(chan struct{}, 1) // a rank can hand the turn to itself
	}
	if turnSeed != 0 {
		w.rng = rand.New(rand.NewPCG(turnSeed, turnSeed))
	}
	return w
}

// Comm returns the communicator handle of the given rank. It is
// intended for harness code that inspects clocks after Run returns.
func (w *World) Comm(rank int) *Comm { return w.comms[rank] }

// MaxTime reports the latest virtual clock across all ranks; it is the
// virtual makespan of everything run so far.
func (w *World) MaxTime() sim.Time {
	var t sim.Time
	for _, c := range w.comms {
		t = sim.MaxTime(t, c.clock.Now())
	}
	return t
}

// Traffic reports the cumulative number of point-to-point payload bytes
// and messages sent. Collectives are modelled analytically and do not
// contribute; SDM's ring index distribution, the paper's dominant
// communication pattern, is pure point-to-point and is fully counted.
func (w *World) Traffic() (bytes, messages int64) {
	return w.sentBytes, w.sentMsgs
}

// Run executes fn once per rank, the ranks taking turns from rank 0, and
// waits for all ranks to finish. If any rank panics, or no unfinished
// rank can run (a deadlock, named by what the ranks wait in), the world
// is aborted (waiting ranks wake and fail too) and Run returns an error
// describing the first failure. Run may be called repeatedly; clocks
// carry over, which lets a harness phase several program stages through
// one world.
func (w *World) Run(fn func(*Comm)) error {
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r, c := range w.comms {
		w.state[r] = runnable
		go func() {
			defer wg.Done()
			<-w.turn[r]
			defer func() {
				if p := recover(); p != nil {
					w.abort(fmt.Sprintf("rank %d: %v", r, p))
				}
				w.state[r] = done
				w.handOff(r)
			}()
			fn(c)
		}()
	}
	w.handOff(-1)
	wg.Wait()
	// Every rank is done: the last collective's contributions and result
	// would otherwise pin its payloads until the next one.
	clear(w.rv.slots)
	w.rv.result = nil
	for _, row := range w.atMatrix {
		clear(row)
	}
	if w.aborted {
		return fmt.Errorf("mpi: %s", w.abortMsg)
	}
	return nil
}

// abort poisons the world: every waiting rank becomes runnable, and a
// rank that runs while the world is aborted panics instead of waiting.
// The first reason is the one reported.
func (w *World) abort(msg string) {
	if !w.aborted {
		w.aborted, w.abortMsg = true, msg
	}
	for r := range w.state {
		w.wake(r)
	}
}

func (w *World) checkAbort() {
	if w.aborted {
		panic("world aborted: " + w.abortMsg)
	}
}

// Comm is a per-rank communicator handle, the analogue of an MPI
// communicator bound to one process. It is not safe for concurrent use;
// each rank goroutine owns its Comm exclusively.
type Comm struct {
	world *World
	rank  int
	clock *sim.Clock

	atPayload alltoallPayload // reused Alltoall contribution
	bcPayload bcastPayload    // reused Bcast contribution
	mmPayload [3]int64        // reused minMaxSum contribution
}

// Rank reports this process's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size reports the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// Clock exposes the rank's virtual clock.
func (c *Comm) Clock() *sim.Clock { return c.clock }

// Now reports the rank's current virtual time.
func (c *Comm) Now() sim.Time { return c.clock.Now() }

// Compute charges d of local computation to this rank's clock.
func (c *Comm) Compute(d sim.Duration) { c.clock.Advance(d) }

// ComputeItems charges the time to process n items at rate items/sec.
func (c *Comm) ComputeItems(n int64, rate float64) {
	c.clock.Advance(sim.ComputeCost(n, rate))
}

// transferCost is the virtual cost of moving n payload bytes point to
// point.
func (c *Comm) transferCost(n int64) sim.Duration {
	return sim.TransferCost(n, c.world.cfg.Latency, c.world.cfg.Bandwidth)
}

// message is an in-flight point-to-point payload.
type message struct {
	src     int
	tag     int
	payload any
	bytes   int64
	arrival sim.Time
}

// Status describes a received message.
type Status struct {
	Source int
	Tag    int
	Bytes  int64
}

// Send delivers payload to rank dst with the given tag. bytes is the
// payload size used for cost accounting (use the typed helpers to avoid
// computing it by hand). Send models a blocking standard-mode send: the
// sender's clock advances by the full transfer cost, and the message
// becomes available to the receiver at that same completion time.
// Payloads are passed by reference: the sender must not mutate the
// payload after sending.
func (c *Comm) Send(dst, tag int, payload any, bytes int64) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", dst, c.world.size))
	}
	c.world.checkAbort()
	cost := c.transferCost(bytes)
	c.clock.Advance(cost)
	m := message{src: c.rank, tag: tag, payload: payload, bytes: bytes, arrival: c.clock.Now()}
	c.world.deliver(dst, m)
}

func (w *World) deliver(dst int, m message) {
	w.sentMsgs++
	w.sentBytes += m.bytes
	w.boxes[dst] = append(w.boxes[dst], m)
	w.wake(dst)
}

// Recv blocks until a message matching (src, tag) is available and
// returns its payload. src may be AnySource and tag may be AnyTag.
// Matching follows MPI's non-overtaking rule: among matching messages,
// the earliest-sent from a given source is delivered first. The
// receiver's clock advances to the message arrival time if it was still
// in flight.
func (c *Comm) Recv(src, tag int) (any, Status) {
	w := c.world
	for {
		w.checkAbort()
		for i, m := range w.boxes[c.rank] {
			if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
				// slices.Delete zeroes the vacated tail slot, so the
				// mailbox does not pin a delivered payload.
				w.boxes[c.rank] = slices.Delete(w.boxes[c.rank], i, i+1)
				c.clock.AdvanceTo(m.arrival)
				return m.payload, Status{Source: m.src, Tag: m.tag, Bytes: m.bytes}
			}
		}
		w.wait(c.rank)
	}
}

// Sendrecv concurrently sends to dst and receives from src, the idiom
// SDM's ring-oriented index distribution is built on. Both transfers
// overlap: the caller's clock ends at the later of send-completion and
// receive-arrival rather than their sum.
func (c *Comm) Sendrecv(dst, sendTag int, payload any, bytes int64, src, recvTag int) (any, Status) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: Sendrecv to invalid rank %d (size %d)", dst, c.world.size))
	}
	c.world.checkAbort()
	sendDone := c.clock.Now().Add(c.transferCost(bytes))
	m := message{src: c.rank, tag: sendTag, payload: payload, bytes: bytes, arrival: sendDone}
	c.world.deliver(dst, m)
	payloadIn, st := c.Recv(src, recvTag)
	c.clock.AdvanceTo(sendDone)
	return payloadIn, st
}

// ---------------------------------------------------------------------------
// Collectives
//
// Collectives rendezvous all ranks, compute the result once,
// deterministically, in rank order, and charge each rank the cost of a
// standard algorithm for that collective (binomial tree, ring, or
// pairwise exchange). All ranks leave a collective at the same virtual
// time: the latest arrival plus the algorithm cost. Every rank must
// invoke the same sequence of collectives, as in MPI; a mismatch panics.
// ---------------------------------------------------------------------------

type rendezvous struct {
	arrived int
	gen     uint64
	op      string
	slots   []any
	times   []sim.Time
	result  any
	doneAt  sim.Time
}

// exchange synchronizes all ranks. contribution is this rank's input;
// combine runs exactly once (in the last-arriving rank) over the dense
// rank-ordered slot array and returns (result, extraCost). Every rank
// returns the shared result with its clock set to
// max(arrival times) + extraCost.
func (c *Comm) exchange(op string, contribution any, combine func(slots []any) (any, sim.Duration)) any {
	w := c.world
	r := w.rv
	w.checkAbort()
	if r.arrived == 0 {
		r.op = op
	} else if r.op != op {
		panic(fmt.Sprintf("mpi: collective mismatch: rank %d called %s while %s in progress", c.rank, op, r.op))
	}
	myGen := r.gen
	r.slots[c.rank] = contribution
	r.times[c.rank] = c.clock.Now()
	r.arrived++
	if r.arrived == w.size {
		var maxT sim.Time
		for _, t := range r.times {
			maxT = sim.MaxTime(maxT, t)
		}
		res, cost := combine(r.slots)
		r.result = res
		r.doneAt = maxT.Add(cost)
		r.arrived = 0
		r.gen++
		for rank := range w.state {
			w.wake(rank)
		}
	} else {
		for r.gen == myGen {
			w.wait(c.rank)
		}
	}
	c.clock.AdvanceTo(r.doneAt)
	return r.result
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// treeCost models a binomial-tree collective on n bytes: log2(p) rounds
// each moving the full payload.
func (c *Comm) treeCost(bytes int64) sim.Duration {
	return sim.Duration(log2ceil(c.world.size)) * c.transferCost(bytes)
}

// ringCost models a ring collective of p − 1 rounds, each moving round
// bytes.
func (c *Comm) ringCost(round int64) sim.Duration {
	return sim.Duration(c.world.size-1) * c.transferCost(round)
}

// Barrier blocks until every rank has entered it; all ranks leave at
// the same virtual time, charged a dissemination-barrier cost.
func (c *Comm) Barrier() { c.BarrierErr(nil) }

// BarrierErr is a Barrier that also carries failures: every rank
// passes its own error (nil if none) and gets back its own, or else the
// lowest-ranked rank's non-nil one, so all ranks fail together when any
// does. It is charged exactly as Barrier is.
func (c *Comm) BarrierErr(err error) error {
	cost := sim.Duration(log2ceil(c.world.size)) * c.world.cfg.Latency
	first := c.exchange("Barrier", err, func(slots []any) (any, sim.Duration) {
		for _, s := range slots {
			if s != nil {
				return s, cost
			}
		}
		return nil, cost
	})
	if err != nil || first == nil {
		return err
	}
	return first.(error)
}

// bcastPayload carries a rank's Bcast contribution through exchange
// together with the size it declared, by pointer (one payload cached per
// Comm), like alltoallPayload.
type bcastPayload struct {
	v     any
	bytes int64
}

// Bcast distributes root's value to every rank. bytes is the payload
// size for cost accounting; the size the ROOT passes is the one charged
// — a receiver cannot know the length of a message it has not received,
// and charging whichever rank happened to arrive last would make
// virtual time depend on host scheduling. Non-root ranks pass their
// (ignored) local value, typically nil.
func (c *Comm) Bcast(root int, v any, bytes int64) any {
	c.checkRoot(root, "Bcast")
	c.bcPayload = bcastPayload{v: v, bytes: bytes}
	res := c.exchange("Bcast", &c.bcPayload, func(slots []any) (any, sim.Duration) {
		pl := slots[root].(*bcastPayload)
		return pl.v, c.treeCost(pl.bytes)
	})
	c.bcPayload.v = nil // the result is out; do not pin the value until the next Bcast
	return res
}

// alltoallPayload carries each rank's outgoing parts through exchange.
// It travels by pointer (one payload cached per Comm) so the per-call
// contribution does not box a fresh struct.
type alltoallPayload struct {
	parts []any
	bytes int64 // total bytes this rank sends
}

// Alltoall performs a personalized all-to-all: parts[i] goes to rank i;
// the returned slice holds, at position j, the part rank j sent here.
// sendBytes is the total payload this rank contributes, used for the
// pairwise-exchange cost model. The result slice is the world's reused
// transpose matrix row: it remains valid until this rank enters the
// next Alltoall, or Run returns.
func (c *Comm) Alltoall(parts []any, sendBytes int64) []any {
	if len(parts) != c.world.size {
		panic(fmt.Sprintf("mpi: Alltoall with %d parts for %d ranks", len(parts), c.world.size))
	}
	c.atPayload.parts = parts
	c.atPayload.bytes = sendBytes
	res := c.exchange("Alltoall", &c.atPayload, func(slots []any) (any, sim.Duration) {
		p := len(slots)
		var maxBytes int64
		// Reuse the world's transpose matrix: every rank has re-entered
		// the collective, so no one still reads the previous result.
		out := c.world.atMatrix
		if out == nil {
			out = make([][]any, p)
			for i := range out {
				out[i] = make([]any, p)
			}
			c.world.atMatrix = out
		}
		for src, s := range slots {
			pl := s.(*alltoallPayload)
			if pl.bytes > maxBytes {
				maxBytes = pl.bytes
			}
			for dst, part := range pl.parts {
				out[dst][src] = part
			}
		}
		// The matrix travels by pointer: boxing the slice itself would
		// allocate once per call.
		return &c.world.atMatrix, c.AlltoallCost(maxBytes)
	})
	c.atPayload.parts = nil // the parts are delivered; do not pin them until the next Alltoall
	return (*res.(*[][]any))[c.rank]
}

// AlltoallCost is the virtual time an Alltoall takes once every rank
// has arrived, when its largest sender sends maxSend bytes in all: a
// pairwise exchange of p − 1 steps, each moving that sender's average
// per-peer share.
func (c *Comm) AlltoallCost(maxSend int64) sim.Duration {
	p := int64(c.world.size)
	return sim.Duration(p-1) * c.transferCost(maxSend/p)
}

// Op selects a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMin
	OpMax
)

func reduceFloat64(vals []any, op Op) float64 {
	acc := vals[0].(float64)
	for _, v := range vals[1:] {
		x := v.(float64)
		switch op {
		case OpSum:
			acc += x
		case OpMin:
			if x < acc {
				acc = x
			}
		case OpMax:
			if x > acc {
				acc = x
			}
		}
	}
	return acc
}

// AllreduceMinMax reduces a (lo, hi) pair per rank to the minimum lo and
// the maximum hi in one rendezvous, charged as one tree reduction of
// both values (16 bytes). It allocates nothing: see minMaxSum.
func (c *Comm) AllreduceMinMax(lo, hi int64) (int64, int64) {
	mm := c.minMaxSum("AllreduceMinMax", lo, hi, 0, 16)
	return mm[0], mm[1]
}

// AllreduceMinMaxSum is AllreduceMinMax that also sums one count per
// rank — a collective read's requested bytes — in the same rendezvous,
// charged as one tree reduction of the three values (24 bytes).
func (c *Comm) AllreduceMinMaxSum(lo, hi, n int64) (int64, int64, int64) {
	mm := c.minMaxSum("AllreduceMinMaxSum", lo, hi, n, 24)
	return mm[0], mm[1], mm[2]
}

// minMaxSum reduces (lo, hi, n) per rank to (min lo, max hi, Σ n) in
// one rendezvous charged as a tree reduction of bytes. The contribution
// travels by pointer to the Comm's cached triple and the result sits in
// the World's, so a call allocates nothing; the World's triple is only
// rewritten inside the next reduction every rank has entered, after
// this rank has copied it out.
func (c *Comm) minMaxSum(op string, lo, hi, n, bytes int64) [3]int64 {
	cost := c.treeCost(bytes)
	c.mmPayload = [3]int64{lo, hi, n}
	res := c.exchange(op, &c.mmPayload, func(slots []any) (any, sim.Duration) {
		out := &c.world.mmResult
		*out = [3]int64{math.MaxInt64, math.MinInt64, 0}
		for _, s := range slots {
			pl := s.(*[3]int64)
			out[0], out[1], out[2] = min(out[0], pl[0]), max(out[1], pl[1]), out[2]+pl[2]
		}
		return out, cost
	})
	return *res.(*[3]int64)
}

// AllreduceFloat64 reduces one float64 per rank with op, result on all
// ranks. Summation is performed in rank order for determinism.
func (c *Comm) AllreduceFloat64(v float64, op Op) float64 {
	cost := c.treeCost(8)
	res := c.exchange("AllreduceFloat64", v, func(slots []any) (any, sim.Duration) {
		return reduceFloat64(slots, op), cost
	})
	return res.(float64)
}

func (c *Comm) checkRoot(root int, op string) {
	if root < 0 || root >= c.world.size {
		panic(fmt.Sprintf("mpi: %s with invalid root %d (size %d)", op, root, c.world.size))
	}
}

// ---------------------------------------------------------------------------
// Typed slice helpers. These wrap the any-based collectives with the
// concrete slice types SDM moves around (edge indexes, data arrays),
// computing payload sizes from the element type.
// ---------------------------------------------------------------------------

func sliceBytes[T any](n int) int64 {
	var zero T
	return int64(n) * int64(reflect.TypeOf(zero).Size())
}

// SendrecvSlice exchanges typed slices with ring neighbours.
func SendrecvSlice[T any](c *Comm, dst, sendTag int, s []T, src, recvTag int) ([]T, Status) {
	payload, st := c.Sendrecv(dst, sendTag, s, sliceBytes[T](len(s)), src, recvTag)
	if payload == nil {
		return nil, st
	}
	return payload.([]T), st
}

// BcastSlice broadcasts root's slice to all ranks. Non-root ranks may
// pass nil: Bcast charges the size the root declares.
func BcastSlice[T any](c *Comm, root int, s []T) []T {
	res := c.Bcast(root, s, sliceBytes[T](len(s)))
	if res == nil {
		return nil
	}
	return res.([]T)
}

// AllgatherSlice gathers each rank's slice; the result on every rank
// holds rank i's contribution at index i. It is charged as a ring:
// p − 1 rounds, each moving the largest contribution, whichever rank
// holds it.
func AllgatherSlice[T any](c *Comm, s []T) [][]T {
	res := c.exchange("Allgather", s, func(slots []any) (any, sim.Duration) {
		out := make([][]T, len(slots))
		longest := 0
		for i, v := range slots {
			out[i] = v.([]T)
			longest = max(longest, len(out[i]))
		}
		return out, c.ringCost(sliceBytes[T](longest))
	})
	return slices.Clone(res.([][]T))
}
