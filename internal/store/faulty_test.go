package store

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"
)

// noSleep keeps fault-heavy tests fast.
func noSleep(time.Duration) {}

// faultyPolicy is the standard test retry policy: plenty of attempts,
// no real sleeping.
func faultyPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 20, NamespaceOps: true, Sleep: noSleep}
}

// allOps makes every operation fault-eligible.
func allOps() map[Op]bool { return AllOps() }

// driveOps runs one seeded op sequence against b and returns the final
// contents of each object.
func driveOps(t *testing.T, b Backend, seed int64) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := []string{"x", "y", "z"}
	objs := map[string]Object{}
	for _, n := range names {
		o, err := b.Create(n)
		if err != nil {
			t.Fatalf("create %q: %v", n, err)
		}
		objs[n] = o
	}
	for i := 0; i < 600; i++ {
		n := names[rng.Intn(len(names))]
		o := objs[n]
		switch rng.Intn(5) {
		case 0, 1:
			p := make([]byte, rng.Intn(3000)+1)
			rng.Read(p)
			if _, err := o.WriteAt(p, int64(rng.Intn(8000))); err != nil {
				t.Fatalf("op %d write: %v", i, err)
			}
		case 2:
			p := make([]byte, rng.Intn(3000)+1)
			if _, err := o.ReadAt(p, int64(rng.Intn(8000))); err != nil && err != io.EOF {
				t.Fatalf("op %d read: %v", i, err)
			}
		case 3, 4:
			if _, err := b.Stat(n); err != nil {
				t.Fatalf("op %d stat: %v", i, err)
			}
		}
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, n := range names {
		o := objs[n]
		buf := make([]byte, o.Size())
		if len(buf) > 0 {
			if _, err := o.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
		}
		out[n] = buf
	}
	return out
}

// TestRetryMasksInjectedFaults drives an identical op sequence against
// a clean backend and a faulty one behind Retry, and demands
// byte-identical results — the injected torn writes, partial reads,
// and transient failures must be invisible above the retry layer. The
// test also asserts faults actually fired, so it can't pass vacuously.
func TestRetryMasksInjectedFaults(t *testing.T) {
	clean := driveOps(t, NewMem(), 99)

	faulty := NewFaulty(NewMem(), FaultConfig{
		Seed:        7,
		Transient:   0.05,
		TornWrite:   0.1,
		PartialRead: 0.1,
		Ops:         allOps(),
	})
	retry := WithRetry(faulty, faultyPolicy())
	got := driveOps(t, retry, 99)

	for n, want := range clean {
		if !bytes.Equal(got[n], want) {
			t.Fatalf("object %q diverges under faults+retry (%d vs %d bytes)", n, len(got[n]), len(want))
		}
	}
	fs := faulty.Stats()
	if fs.Transient == 0 || fs.Torn == 0 || fs.Partial == 0 {
		t.Fatalf("no faults injected (stats %+v) — test is vacuous", fs)
	}
	rs := retry.Stats()
	if rs.Retries == 0 {
		t.Fatalf("retry layer did no work (stats %+v)", rs)
	}
	if rs.Exhausted != 0 {
		t.Fatalf("%d ops exhausted their retry budget", rs.Exhausted)
	}
	t.Logf("masked %d transient faults (%d torn writes, %d partial reads) with %d retries",
		fs.Transient, fs.Torn, fs.Partial, rs.Retries)
}

// TestFaultyDeterministic: the same seed yields the same injection
// sequence, so failing runs reproduce.
func TestFaultyDeterministic(t *testing.T) {
	run := func() FaultStats {
		f := NewFaulty(NewMem(), FaultConfig{Seed: 3, Transient: 0.2, TornWrite: 0.3, Ops: allOps()})
		o, err := f.Create("a")
		for err != nil {
			o, err = f.Create("a")
		}
		p := []byte("0123456789")
		for i := 0; i < 100; i++ {
			o.WriteAt(p, int64(i)) //nolint:errcheck — outcome recorded in stats
		}
		return f.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different injection: %+v vs %+v", a, b)
	}
	if a.Transient == 0 {
		t.Fatal("no faults injected")
	}
}

// TestCrashAtOpN: the backend dies at exactly op N — everything after
// fails with ErrCrashed, retries don't resurrect it, and a torn final
// write leaves only a prefix behind.
func TestCrashAtOpN(t *testing.T) {
	inner := NewMem()
	f := NewFaulty(inner, FaultConfig{Seed: 1, CrashAtOp: 4})
	r := WithRetry(f, faultyPolicy())

	o, err := r.Create("a") // op 1
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xab}, 1000)
	if _, err := o.WriteAt(payload, 0); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := r.Stat("a"); err != nil { // op 3
		t.Fatal(err)
	}
	// Op 4 is the crash: a write tears — some prefix lands, then dead.
	n, err := o.WriteAt(payload, 1000)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash op = (%d, %v), want ErrCrashed", n, err)
	}
	if n >= len(payload) {
		t.Fatalf("crash write claims %d bytes landed", n)
	}
	// Everything afterwards is dead, fast (no retry burn).
	if _, err := r.Stat("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash stat = %v", err)
	}
	if err := r.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync = %v", err)
	}
	if got := r.Stats().Retries; got != 0 {
		t.Fatalf("retry layer burned %d retries on a dead backend", got)
	}
	if !f.Stats().Crashed {
		t.Fatal("crash not recorded in stats")
	}
	// The inner backend holds the first write whole and at most a
	// prefix of the torn one.
	obj, err := inner.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Size() < 1000 || obj.Size() > 2000 {
		t.Fatalf("inner size %d after torn write", obj.Size())
	}
}

// TestRetryIdempotenceAware: without NamespaceOps, transient failures
// on Create/Remove/Rename surface instead of being blindly retried;
// idempotent ops on the same backend are still retried.
func TestRetryIdempotenceAware(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{
		Seed:      5,
		Transient: 1.0, // every eligible op fails
		Ops:       map[Op]bool{OpCreate: true, OpRemove: true, OpRename: true},
	})
	r := WithRetry(f, RetryPolicy{MaxAttempts: 10, Sleep: noSleep})
	if _, err := r.Create("a"); !IsTransient(err) {
		t.Fatalf("create = %v, want transient surfaced", err)
	}
	if err := r.Remove("a"); !IsTransient(err) {
		t.Fatalf("remove = %v, want transient surfaced", err)
	}
	if err := r.Rename("a", "b"); !IsTransient(err) {
		t.Fatalf("rename = %v, want transient surfaced", err)
	}
	if got := r.Stats().Retries; got != 0 {
		t.Fatalf("namespace ops were retried %d times without opt-in", got)
	}
	// Stat is idempotent: not in the eligible set here, so it runs
	// clean — and the retrier would have been allowed to retry it.
	if _, err := r.Stat("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat = %v", err)
	}
}

// TestRetryExhaustion: a fault rate of 1.0 on reads burns the full
// attempt budget, then surfaces the transient error with stats.
func TestRetryExhaustion(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 2, Transient: 1.0, Ops: map[Op]bool{OpOpen: true}})
	r := WithRetry(f, RetryPolicy{MaxAttempts: 3, Sleep: noSleep})
	if _, err := r.Open("a"); !IsTransient(err) {
		t.Fatalf("open = %v, want transient", err)
	}
	st := r.Stats()
	if st.Retries != 2 || st.Exhausted != 1 {
		t.Fatalf("stats %+v, want 2 retries and 1 exhaustion", st)
	}
}

// TestRetryBackoffBounded: backoff delays grow exponentially from
// BaseDelay, cap at MaxDelay, and stay within the jitter envelope.
func TestRetryBackoffBounded(t *testing.T) {
	var slept []time.Duration
	f := NewFaulty(NewMem(), FaultConfig{Seed: 4, Transient: 1.0, Ops: map[Op]bool{OpList: true}})
	r := WithRetry(f, RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	if _, err := r.List(); !IsTransient(err) {
		t.Fatal("list should exhaust")
	}
	if len(slept) != 5 {
		t.Fatalf("slept %d times, want 5", len(slept))
	}
	for i, d := range slept {
		base := time.Millisecond << i
		if base > 4*time.Millisecond {
			base = 4 * time.Millisecond
		}
		lo, hi := time.Duration(float64(base)*0.5), time.Duration(float64(base)*1.5)
		if d < lo || d > hi {
			t.Fatalf("backoff %d = %v, want in [%v, %v]", i, d, lo, hi)
		}
	}
}
