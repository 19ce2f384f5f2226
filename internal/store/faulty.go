package store

import (
	"fmt"
	"math/rand"
	"sync"
)

// Op classifies backend operations, for fault eligibility and for the
// hooks of wrapped backends.
type Op uint8

// Backend and object operations.
const (
	OpCreate Op = iota
	OpOpen
	OpStat
	OpRemove
	OpRename
	OpList
	OpSync
	OpRead
	OpWrite
	numOps
)

var opNames = [numOps]string{"create", "open", "stat", "remove", "rename", "list", "sync", "read", "write"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// idempotentOps is Faulty's default injection set: the operations whose
// re-issue cannot change the outcome (WriteAt rewrites the same bytes at
// the same offset; reads, stats, syncs are naturally idempotent), unlike
// the namespace mutations Create, Remove and Rename.
var idempotentOps = map[Op]bool{
	OpOpen: true, OpStat: true, OpList: true, OpSync: true,
	OpRead: true, OpWrite: true,
}

// FaultConfig scripts a Faulty decorator. All injection is driven by
// one seeded PRNG consumed in op order, so a fixed op sequence sees a
// reproducible fault sequence.
type FaultConfig struct {
	// Seed seeds the injection PRNG (0 is a valid, fixed seed).
	Seed int64
	// Transient is the per-op probability of failing with
	// ErrUnavailable *before* the op runs (the op does not happen, so
	// a retry is always safe).
	Transient float64
	// TornWrite is the per-WriteAt probability that only a prefix of
	// the buffer is written before the op fails with ErrUnavailable —
	// a torn write. The write partially happened; WriteAt idempotence
	// makes a full retry safe.
	TornWrite float64
	// PartialRead is the per-ReadAt probability that only a prefix of
	// the buffer is filled before the op fails with ErrUnavailable.
	PartialRead float64
	// CrashAtOp kills the backend at the Nth operation (1-based, 0 =
	// never): that op and every later one fail with ErrCrashed. A
	// WriteAt at the crash op tears: a random prefix lands first, like
	// a process killed mid-write.
	CrashAtOp int64
	// Ops restricts which operations are eligible for Transient
	// injection. Nil means the idempotent set (open, stat, list, sync,
	// read, write).
	Ops map[Op]bool
}

// FaultStats counts what a Faulty injected.
type FaultStats struct {
	Ops       int64 // operations observed (injected or not)
	Transient int64 // ErrUnavailable injections (incl. torn/partial)
	Torn      int64 // torn writes
	Partial   int64 // partial reads
	Crashed   bool  // the crash op was reached
}

// Faulty decorates a Backend with deterministic, seeded fault
// injection: transient ErrUnavailable failures, torn writes, partial
// reads, and a crash-at-op-N kill switch after which every operation
// fails with ErrCrashed. It is a test fake: nothing masks its faults,
// so the pfs and mpiio tests use it to make an operation fail, and the
// bundle tests save through it to show that a failed save leaves the
// old bundle whole.
type Faulty struct {
	Backend // the wrapped store, every operation routed through hook
	cfg     FaultConfig

	mu    sync.Mutex
	rng   *rand.Rand
	stats FaultStats
}

// NewFaulty wraps a backend in a fault injector.
func NewFaulty(b Backend, cfg FaultConfig) *Faulty {
	f := &Faulty{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	f.Backend = Wrap(b, f.hook)
	return f
}

// Stats snapshots injection counters.
func (f *Faulty) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// eligible reports whether op may receive Transient injection.
func (f *Faulty) eligible(op Op) bool {
	if f.cfg.Ops != nil {
		return f.cfg.Ops[op]
	}
	return idempotentOps[op]
}

// injection outcomes, decided under f.mu before the op runs.
type verdict int

const (
	vOK verdict = iota
	vUnavailable
	vTorn // write/read: act on a prefix of length tornLen, then fail
	vCrashed
	vCrashTear // crash op on a write: tear, then dead forever
)

// decide consumes PRNG state for one op and returns its fate.
func (f *Faulty) decide(op Op) (verdict, float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Ops++
	if f.cfg.CrashAtOp > 0 && f.stats.Ops >= f.cfg.CrashAtOp {
		if f.stats.Ops == f.cfg.CrashAtOp {
			f.stats.Crashed = true
			if op == OpWrite {
				return vCrashTear, f.rng.Float64()
			}
		}
		return vCrashed, 0
	}
	frac := f.rng.Float64() // prefix fraction for torn/partial, burned regardless
	switch op {
	case OpWrite:
		if f.cfg.TornWrite > 0 && f.rng.Float64() < f.cfg.TornWrite {
			f.stats.Transient++
			f.stats.Torn++
			return vTorn, frac
		}
	case OpRead:
		if f.cfg.PartialRead > 0 && f.rng.Float64() < f.cfg.PartialRead {
			f.stats.Transient++
			f.stats.Partial++
			return vTorn, frac
		}
	}
	if f.cfg.Transient > 0 && f.eligible(op) && f.rng.Float64() < f.cfg.Transient {
		f.stats.Transient++
		return vUnavailable, 0
	}
	return vOK, 0
}

// fail builds the op's injected error.
func fail(op Op, v verdict) error {
	if v == vCrashed || v == vCrashTear {
		return fmt.Errorf("%s: %w", op, ErrCrashed)
	}
	return fmt.Errorf("%s: %w", op, ErrUnavailable)
}

// hook injects the op's fate. Failures are decided before the op runs,
// so an op that fails outright did not happen; a torn write or partial
// read acts on a prefix of the buffer first.
func (f *Faulty) hook(c Call) (int, error) {
	v, frac := f.decide(c.Op)
	switch v {
	case vOK:
		return c.Do()
	case vTorn, vCrashTear: // reads and writes only, see decide
		n := int(frac * float64(len(c.P)))
		if n > 0 {
			c.P = c.P[:n]
			// A prefix read that came up short for its own reasons (EOF)
			// reports those; a prefix write reports any failure.
			if got, err := c.Do(); err != nil && (c.Op == OpWrite || got < n) {
				return got, err
			}
		}
		return n, fail(c.Op, v)
	}
	return 0, fail(c.Op, v)
}
