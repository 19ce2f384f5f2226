package store

import (
	"bytes"
	"errors"
	"testing"
)

// allOps makes every operation fault-eligible.
func allOps() map[Op]bool {
	m := make(map[Op]bool, numOps)
	for op := Op(0); op < numOps; op++ {
		m[op] = true
	}
	return m
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
// fails with ErrCrashed, and a torn final write leaves only a prefix
// behind.
func TestCrashAtOpN(t *testing.T) {
	inner := NewMem()
	f := NewFaulty(inner, FaultConfig{Seed: 1, CrashAtOp: 4})

	o, err := f.Create("a") // op 1
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xab}, 1000)
	if _, err := o.WriteAt(payload, 0); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.Stat("a"); err != nil { // op 3
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
	// Everything afterwards is dead.
	if _, err := f.Stat("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash stat = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync = %v", err)
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
