// Package sim provides the virtual-time primitives used by the rest of
// the system. Every simulated process (MPI rank) carries a Clock whose
// time advances when the process computes, communicates, or performs
// I/O. Shared resources (I/O servers, network links) are modelled with
// Resource, which serializes requests in virtual time. All results
// reported by the benchmark harness are virtual-time figures; wall-clock
// time of the host machine never enters the model.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the
// start of the simulation, mirroring time.Duration's resolution.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = time.Duration

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns t advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the earlier of a and b. Join barriers over several
// forked sub-timelines use it to drain completions in completion order
// (earliest done first) rather than issue order: AdvanceTo makes the
// final clock position order-independent, but resources freed by a
// join (pooled arenas, released file claims) must become available at
// the time their flush actually finished, not at the time it happened
// to be issued.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Clock tracks the virtual time of a single simulated process. A Clock
// is not safe for concurrent use; each rank owns exactly one.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative durations are ignored
// so cost formulas cannot accidentally move time backwards.
func (c *Clock) Advance(d Duration) {
	if d > 0 {
		c.now = c.now.Add(d)
	}
}

// AdvanceTo moves the clock forward to t if t is later than now.
func (c *Clock) AdvanceTo(t Time) {
	if t > c.now {
		c.now = t
	}
}

// ---------------------------------------------------------------------------
// Fork/join sub-timelines
//
// Concurrency inside one simulated process — an aggregator issuing its
// coalesced phase-2 runs at once, a split-collective flush overlapping
// the next step's compute, an asynchronous write the rank does not wait
// for — is expressed with forked sub-timelines: a fork captures the
// current time, the concurrent work is costed from that common base
// (shared Resources still serialize contending requests in virtual
// time), and a join folds the latest completion back into the owning
// timeline. Because the work itself still executes sequentially in host
// time, fork/join changes only the cost model. The result is still
// deterministic because ranks take turns (internal/mpi): one rank runs at
// a time, so the host order in which requests reach a Resource — the
// order it serves them in — is a function of the program.
//
// The pattern is written directly on one clock with Time values, which
// allocates nothing: fork := c.Now(); cost the branch; join =
// MaxTime(join, c.Now()); c.Rebase(fork); and finally c.AdvanceTo(join)
// at the join barrier.
// ---------------------------------------------------------------------------

// Rebase sets the clock to exactly t, moving backwards if necessary.
// It is the one way to fork a sub-timeline: the caller marks a fork
// point (Now), runs the concurrent work with its ordinary charges on
// this clock, captures the work's completion time (Now), rebases back to
// the fork point, and joins the completion later (AdvanceTo at the join
// or wait). Ordinary cost accounting must use Advance/AdvanceTo, which
// never move time backwards.
func (c *Clock) Rebase(t Time) { c.now = t }

// Resource models a shared serial resource (an I/O server, a metadata
// server, a shared link). Requests arriving while the resource is busy
// queue behind it in virtual time. It takes no lock: only the rank
// holding the turn (internal/mpi), or one goroutine outside a World,
// calls in.
type Resource struct {
	busyUntil Time
	busyTotal Duration // total busy time, for utilization reporting
	requests  int64
}

// Acquire schedules a request arriving at time `at` that occupies the
// resource for `service`. It returns the virtual completion time. The
// caller should advance its clock to the returned time.
func (r *Resource) Acquire(at Time, service Duration) Time {
	if service < 0 {
		service = 0
	}
	done := MaxTime(at, r.busyUntil).Add(service)
	r.busyUntil = done
	r.busyTotal += service
	r.requests++
	return done
}

// Stats reports the cumulative busy time and request count.
func (r *Resource) Stats() (busy Duration, requests int64) {
	return r.busyTotal, r.requests
}

// Reset clears the resource schedule, for reuse between experiments.
func (r *Resource) Reset() { *r = Resource{} }

// TransferCost returns the virtual time needed to move n bytes over a
// channel with the given fixed latency and bandwidth (bytes/second).
// A zero or negative bandwidth means infinitely fast transfer; only the
// latency is charged.
func TransferCost(n int64, latency Duration, bandwidth float64) Duration {
	d := latency
	if bandwidth > 0 && n > 0 {
		d += Duration(float64(n) / bandwidth * 1e9)
	}
	return d
}

// ComputeCost returns the virtual time to process n items at `rate`
// items per second. Zero or negative rate charges nothing, making
// computation free (useful to isolate I/O effects).
func ComputeCost(n int64, rate float64) Duration {
	if rate <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) / rate * 1e9)
}

// RNG is a small deterministic pseudo-random generator (xorshift64*)
// used wherever the simulation needs reproducible randomness without
// importing math/rand state into hot paths.
type RNG struct{ state uint64 }

// NewRNG seeds a generator. A zero seed is replaced with a fixed
// constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("sim: Intn called with n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// PermInto fills p with a pseudo-random permutation of [0, len(p)), so
// callers can reuse one buffer across repeated shuffles.
func (r *RNG) PermInto(p []int) []int {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
