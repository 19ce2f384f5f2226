package store

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestPolicyDoSurfacesLastError is the regression test for exhaustion
// reporting: a retried op that gives up must return an *ExhaustedError
// that unwraps to the last underlying error, so callers can still
// branch on the cause (the objstore multipart abort path needs to tell
// a transient remote from a crashed one after retries run out).
func TestPolicyDoSurfacesLastError(t *testing.T) {
	cause := fmt.Errorf("part 3 refused: %w", ErrUnavailable)
	calls := 0
	err := RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {}}.Do(OpWrite, func() error {
		calls++
		return cause
	})
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want *ExhaustedError, got %T: %v", err, err)
	}
	if ex.Op != OpWrite || ex.Attempts != 4 || ex.Err != cause {
		t.Fatalf("exhausted detail: %+v", ex)
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("must unwrap to the underlying cause: %v", err)
	}
}

// TestPolicyDoFailsFastOnNonTransient pins that semantic and fatal
// errors surface immediately, unwrapped — only transient faults burn
// attempts.
func TestPolicyDoFailsFastOnNonTransient(t *testing.T) {
	for _, fatal := range []error{ErrNotExist, ErrExist, ErrCrashed} {
		calls := 0
		err := RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}}.Do(OpOpen, func() error {
			calls++
			return fatal
		})
		if calls != 1 || !errors.Is(err, fatal) {
			t.Fatalf("%v: calls=%d err=%v", fatal, calls, err)
		}
		var ex *ExhaustedError
		if errors.As(err, &ex) {
			t.Fatalf("fail-fast error must not be wrapped as exhaustion: %v", err)
		}
	}
}

// TestPolicyDoRecovers pins that a fault that clears mid-loop returns
// nil with no residue.
func TestPolicyDoRecovers(t *testing.T) {
	calls := 0
	err := RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}}.Do(OpRead, func() error {
		calls++
		if calls < 3 {
			return ErrUnavailable
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}

// TestPolicyDoExhaustionIsFinal: an *ExhaustedError from the operation
// means a retry loop beneath this one already gave up, so it surfaces
// after one call instead of being retried again.
func TestPolicyDoExhaustionIsFinal(t *testing.T) {
	inner := &ExhaustedError{Op: OpStat, Attempts: 3, Err: ErrUnavailable}
	calls := 0
	err := RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}}.Do(OpOpen, func() error {
		calls++
		return fmt.Errorf("open: %w", inner)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex != inner {
		t.Fatalf("err = %v, want the inner exhaustion", err)
	}
}

// TestRetryMasksInjectedTransients: a transient Faulty injects beneath
// the decorator is still retried away.
func TestRetryMasksInjectedTransients(t *testing.T) {
	f := NewFaulty(NewMem(), FaultConfig{Seed: 5, Transient: 0.5, Ops: AllOps()})
	r := WithRetry(f, RetryPolicy{MaxAttempts: 25, NamespaceOps: true, Sleep: func(time.Duration) {}})
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("o%d", i)
		o, err := r.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.WriteAt([]byte(name), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Stat(name); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats().Transient == 0 || r.Stats().Retries == 0 || r.Stats().Exhausted != 0 {
		t.Fatalf("injected %d transients, retry stats %+v: want some, all masked",
			f.Stats().Transient, r.Stats())
	}
}
