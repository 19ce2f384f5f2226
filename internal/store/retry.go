package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy bounds how Retry masks transient backend failures:
// bounded attempts, exponential backoff with jitter, and a per-op
// elapsed deadline. Zero values take the defaults.
type RetryPolicy struct {
	// MaxAttempts caps tries per operation, first included (default 5).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 1ms); each retry
	// doubles it up to MaxDelay (default 100ms), then multiplies by a
	// jitter factor in [0.5, 1.5) so retry storms decorrelate.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// MaxElapsed is the per-op deadline: once an op has spent this
	// long across attempts (sleep included), the last error surfaces
	// (default 2s).
	MaxElapsed time.Duration
	// Seed seeds the jitter PRNG, keeping test runs reproducible.
	Seed int64
	// NamespaceOps also retries Create, Remove, and Rename. These are
	// not blindly idempotent — a Create whose reply was lost after
	// executing would surface ErrExist on retry — so they are only
	// retried on explicit opt-in, for backends (like Faulty) whose
	// transient failures are known to hit before the op executes.
	NamespaceOps bool
	// Sleep replaces time.Sleep between attempts; tests inject a no-op
	// to keep fault-heavy runs fast. Nil means time.Sleep.
	Sleep func(time.Duration)
}

func (p *RetryPolicy) fill() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	if p.MaxElapsed <= 0 {
		p.MaxElapsed = 2 * time.Second
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
}

// ExhaustedError reports a retried operation that gave up: how many
// attempts ran, how long they took, and — via Unwrap — the last
// underlying error. Callers that must branch on the cause after
// exhaustion (the objstore multipart abort path distinguishing a still
// transient ErrUnavailable from a dead ErrCrashed remote) see the real
// error instead of a bare deadline notice.
type ExhaustedError struct {
	Op       Op
	Attempts int
	Elapsed  time.Duration
	Err      error // the last error the operation returned
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("store: %s retry exhausted after %d attempt(s) in %v: %v",
		e.Op, e.Attempts, e.Elapsed, e.Err)
}

// Unwrap exposes the last underlying error to errors.Is/As.
func (e *ExhaustedError) Unwrap() error { return e.Err }

// backoffDelay computes the pre-retry sleep for 1-based attempt n:
// exponential from BaseDelay capped at MaxDelay, scaled by a jitter
// factor in [0.5, 1.5).
func backoffDelay(p *RetryPolicy, n int, jitter float64) time.Duration {
	d := p.BaseDelay << (n - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	return time.Duration(float64(d) * (0.5 + jitter))
}

// Do runs one idempotent operation under the policy's retry loop,
// outside any Backend decorator — the hook the objstore multipart path
// uses to retry individual part uploads and aborts, and the one loop
// Retry runs every operation under. Transient errors (IsTransient) are
// re-issued within the attempt/backoff/deadline bounds; anything else
// surfaces immediately, and so does an *ExhaustedError from fn: a loop
// beneath this one (the objstore backend's, under a Retry decorator)
// already gave up. On exhaustion the returned *ExhaustedError wraps the
// last underlying error.
func (p RetryPolicy) Do(op Op, fn func() error) error {
	p.fill()
	var rng *rand.Rand // seeded at the first retry: most operations never need one
	start := time.Now()
	for attempt := 1; ; attempt++ {
		err := fn()
		var inner *ExhaustedError
		if err == nil || !IsTransient(err) || errors.As(err, &inner) {
			return err
		}
		if attempt >= p.MaxAttempts || time.Since(start) >= p.MaxElapsed {
			return &ExhaustedError{Op: op, Attempts: attempt, Elapsed: time.Since(start), Err: err}
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(p.Seed))
		}
		p.Sleep(backoffDelay(&p, attempt, rng.Float64()))
	}
}

// RetryStats counts masking work.
type RetryStats struct {
	Ops       int64 // operations issued through the decorator
	Retries   int64 // re-issued attempts (beyond each op's first)
	Exhausted int64 // ops that failed even after retrying
}

// Retry decorates a Backend with idempotence-aware retries: transient
// failures (IsTransient) on idempotent operations — reads, writes,
// stat, open, list, sync, truncate — are re-issued under the policy's
// attempt/backoff/deadline bounds; semantic errors (ErrNotExist,
// ErrExist), dead backends (ErrCrashed), and non-idempotent namespace
// mutations (unless RetryPolicy.NamespaceOps) surface immediately.
//
// WriteAt retries are safe against torn writes because WriteAt is
// positional: re-issuing rewrites the same bytes at the same offset.
type Retry struct {
	Backend // the wrapped store, every operation routed through hook
	policy  RetryPolicy

	mu    sync.Mutex
	stats RetryStats
}

// WithRetry wraps a backend in a retry decorator.
func WithRetry(b Backend, policy RetryPolicy) *Retry {
	r := &Retry{policy: policy}
	r.Backend = Wrap(b, r.hook)
	return r
}

// Stats snapshots retry counters.
func (r *Retry) Stats() RetryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// hook runs an idempotent operation (or, with NamespaceOps, any) under
// the policy's loop and everything else once. Object I/O is re-issued
// whole: ReadAt/WriteAt are positional, so a partial read or torn write
// is simply done again from the top.
func (r *Retry) hook(c Call) (n int, err error) {
	attempts := int64(0)
	once := func() error { attempts++; n, err = c.Do(); return err }
	retriable := idempotentOps[c.Op] || r.policy.NamespaceOps
	if retriable {
		err = r.policy.Do(c.Op, once)
	} else {
		err = once()
	}
	r.mu.Lock()
	r.stats.Ops++
	r.stats.Retries += attempts - 1
	// The loop hands back a transient error only when it gave up on it.
	if retriable && IsTransient(err) {
		r.stats.Exhausted++
	}
	r.mu.Unlock()
	return n, err
}
