package store

import (
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
// uses to retry individual part uploads and aborts. Transient errors
// (IsTransient) are re-issued under the same attempt/backoff/deadline
// bounds as Retry; anything else surfaces immediately. On exhaustion
// the returned *ExhaustedError wraps the last underlying error.
func (p RetryPolicy) Do(op Op, fn func() error) error {
	p.fill()
	rng := rand.New(rand.NewSource(p.Seed))
	start := time.Now()
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil || !IsTransient(err) {
			return err
		}
		if attempt >= p.MaxAttempts || time.Since(start) >= p.MaxElapsed {
			return &ExhaustedError{Op: op, Attempts: attempt, Elapsed: time.Since(start), Err: err}
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
	inner  Backend
	policy RetryPolicy

	mu    sync.Mutex
	rng   *rand.Rand
	stats RetryStats
}

// WithRetry wraps a backend in a retry decorator.
func WithRetry(b Backend, policy RetryPolicy) *Retry {
	policy.fill()
	return &Retry{inner: b, policy: policy, rng: rand.New(rand.NewSource(policy.Seed))}
}

// Stats snapshots retry counters.
func (r *Retry) Stats() RetryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// retriable reports whether op may be re-issued under this policy.
func (r *Retry) retriable(op Op) bool {
	if idempotentOps[op] {
		return true
	}
	return r.policy.NamespaceOps
}

// backoff computes the sleep before retry attempt number n (1-based).
func (r *Retry) backoff(n int) time.Duration {
	d := r.policy.BaseDelay << (n - 1)
	if d > r.policy.MaxDelay || d <= 0 {
		d = r.policy.MaxDelay
	}
	r.mu.Lock()
	jitter := 0.5 + r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// do runs fn under the retry loop.
func (r *Retry) do(op Op, fn func() error) error {
	r.mu.Lock()
	r.stats.Ops++
	r.mu.Unlock()
	start := time.Now()
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil || !IsTransient(err) || !r.retriable(op) {
			return err
		}
		if attempt >= r.policy.MaxAttempts || time.Since(start) >= r.policy.MaxElapsed {
			r.mu.Lock()
			r.stats.Exhausted++
			r.mu.Unlock()
			return err
		}
		r.mu.Lock()
		r.stats.Retries++
		r.mu.Unlock()
		r.policy.Sleep(r.backoff(attempt))
	}
}

// Kind reports the wrapped backend's kind.
func (r *Retry) Kind() string { return r.inner.Kind() }

// Create makes an empty object (retried only with NamespaceOps).
func (r *Retry) Create(name string) (Object, error) {
	var o Object
	err := r.do(OpCreate, func() (e error) { o, e = r.inner.Create(name); return })
	if err != nil {
		return nil, err
	}
	return &retryObject{r: r, inner: o}, nil
}

// Open returns an existing object wrapped in the retrier.
func (r *Retry) Open(name string) (Object, error) {
	var o Object
	err := r.do(OpOpen, func() (e error) { o, e = r.inner.Open(name); return })
	if err != nil {
		return nil, err
	}
	return &retryObject{r: r, inner: o}, nil
}

// Stat reports an object's size.
func (r *Retry) Stat(name string) (int64, error) {
	var n int64
	err := r.do(OpStat, func() (e error) { n, e = r.inner.Stat(name); return })
	return n, err
}

// Remove deletes an object (retried only with NamespaceOps).
func (r *Retry) Remove(name string) error {
	return r.do(OpRemove, func() error { return r.inner.Remove(name) })
}

// Rename moves an object (retried only with NamespaceOps).
func (r *Retry) Rename(oldName, newName string) error {
	return r.do(OpRename, func() error { return r.inner.Rename(oldName, newName) })
}

// List returns all object names.
func (r *Retry) List() ([]string, error) {
	var names []string
	err := r.do(OpList, func() (e error) { names, e = r.inner.List(); return })
	return names, err
}

// Sync flushes the wrapped backend.
func (r *Retry) Sync() error {
	return r.do(OpSync, func() error { return r.inner.Sync() })
}

// retryObject re-issues failed object I/O whole: ReadAt/WriteAt are
// positional and therefore idempotent, so a partial read or torn write
// is simply done again from the top.
type retryObject struct {
	r     *Retry
	inner Object
}

func (o *retryObject) Size() int64 { return o.inner.Size() }

func (o *retryObject) WriteAt(p []byte, off int64) (int, error) {
	var n int
	err := o.r.do(OpWrite, func() (e error) { n, e = o.inner.WriteAt(p, off); return })
	return n, err
}

func (o *retryObject) ReadAt(p []byte, off int64) (int, error) {
	var n int
	err := o.r.do(OpRead, func() (e error) { n, e = o.inner.ReadAt(p, off); return })
	return n, err
}

func (o *retryObject) Truncate(n int64) error {
	return o.r.do(OpTruncate, func() error { return o.inner.Truncate(n) })
}
