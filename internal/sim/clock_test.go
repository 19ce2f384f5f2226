package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * time.Millisecond)
	if got := c.Now(); got != Time(5*time.Millisecond) {
		t.Fatalf("after advance, clock at %v, want 5ms", got)
	}
	c.Advance(-time.Second)
	if got := c.Now(); got != Time(5*time.Millisecond) {
		t.Fatalf("negative advance moved clock to %v", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.Advance(10 * time.Millisecond)
	c.AdvanceTo(Time(3 * time.Millisecond)) // in the past: no-op
	if got := c.Now(); got != Time(10*time.Millisecond) {
		t.Fatalf("AdvanceTo moved clock backwards to %v", got)
	}
	c.AdvanceTo(Time(20 * time.Millisecond))
	if got := c.Now(); got != Time(20*time.Millisecond) {
		t.Fatalf("AdvanceTo(20ms) left clock at %v", got)
	}
}

func TestClockForkJoin(t *testing.T) {
	c := NewClock()
	c.Advance(10 * time.Millisecond)
	// Two sub-timelines forked at 10ms advance independently: each is
	// costed on the clock from the fork point and rebased away.
	fork := c.Now()
	c.Advance(5 * time.Millisecond)
	a := c.Now()
	c.Rebase(fork)
	c.Advance(30 * time.Millisecond)
	b := c.Now()
	c.Rebase(fork)
	if c.Now() != Time(10*time.Millisecond) {
		t.Fatal("costing a fork moved the parent timeline")
	}
	c.AdvanceTo(MaxTime(a, b))
	if got := c.Now(); got != Time(40*time.Millisecond) {
		t.Fatalf("join left clock at %v, want 40ms (latest sub-timeline)", got)
	}
	// Joining an earlier sub-timeline is a no-op.
	c.AdvanceTo(a)
	if got := c.Now(); got != Time(40*time.Millisecond) {
		t.Fatalf("joining an earlier fork moved clock to %v", got)
	}
}

func TestClockForkedResourceContention(t *testing.T) {
	// Two sub-timelines forked at t=0 contend for one serial resource:
	// the resource serializes them in virtual time, and the join sees
	// the full queue drain — exactly what an aggregator's parallel
	// phase-2 runs against one I/O server must cost.
	c := NewClock()
	var r Resource
	fork := c.Now()
	join := fork
	for range 2 {
		c.AdvanceTo(r.Acquire(c.Now(), 10*time.Millisecond))
		join = MaxTime(join, c.Now())
		c.Rebase(fork)
	}
	c.AdvanceTo(join)
	if got := c.Now(); got != Time(20*time.Millisecond) {
		t.Fatalf("contending forks joined at %v, want 20ms", got)
	}
}

func TestClockRebase(t *testing.T) {
	// The split-collective pattern: fork point, async phase charged on
	// the clock, rebase back, join the completion at the wait call.
	c := NewClock()
	c.Advance(7 * time.Millisecond)
	fork := c.Now()
	c.Advance(25 * time.Millisecond) // the async phase's charges
	done := c.Now()
	c.Rebase(fork)
	if c.Now() != fork {
		t.Fatalf("rebase left clock at %v, want %v", c.Now(), fork)
	}
	c.Advance(10 * time.Millisecond) // overlapped compute
	c.AdvanceTo(done)                // the wait: only the remainder is charged
	if got := c.Now(); got != done {
		t.Fatalf("wait joined at %v, want %v", got, done)
	}
	// If compute outruns the flush, the wait charges nothing.
	c.Advance(100 * time.Millisecond)
	before := c.Now()
	c.AdvanceTo(done)
	if c.Now() != before {
		t.Fatal("wait moved the clock backwards past overlapped compute")
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(time.Second)
	b := a.Add(500 * time.Millisecond)
	if b.Sub(a) != 500*time.Millisecond {
		t.Fatalf("Sub = %v, want 500ms", b.Sub(a))
	}
	if b.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", b.Seconds())
	}
	if MaxTime(a, b) != b || MaxTime(b, a) != b {
		t.Fatal("MaxTime did not pick the later time")
	}
	if MinTime(a, b) != a || MinTime(b, a) != a {
		t.Fatal("MinTime did not pick the earlier time")
	}
	if MinTime(a, a) != a || MaxTime(b, b) != b {
		t.Fatal("Min/MaxTime not idempotent on equal times")
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	// Two requests at t=0 for 10ms each must finish at 10ms and 20ms.
	d1 := r.Acquire(0, 10*time.Millisecond)
	d2 := r.Acquire(0, 10*time.Millisecond)
	if d1 != Time(10*time.Millisecond) || d2 != Time(20*time.Millisecond) {
		t.Fatalf("completions %v, %v; want 10ms, 20ms", d1, d2)
	}
	// A request arriving after the queue drains starts immediately.
	d3 := r.Acquire(Time(time.Second), time.Millisecond)
	if d3 != Time(time.Second+time.Millisecond) {
		t.Fatalf("idle-arrival completion %v, want 1.001s", d3)
	}
	busy, n := r.Stats()
	if busy != 21*time.Millisecond || n != 3 {
		t.Fatalf("stats busy=%v n=%d, want 21ms, 3", busy, n)
	}
}

func TestResourceNegativeService(t *testing.T) {
	var r Resource
	done := r.Acquire(Time(5), -time.Second)
	if done != Time(5) {
		t.Fatalf("negative service advanced completion to %v", done)
	}
}

func TestResourceReset(t *testing.T) {
	var r Resource
	r.Acquire(0, time.Second)
	r.Reset()
	if r.busyUntil != 0 {
		t.Fatal("Reset did not clear schedule")
	}
	if busy, n := r.Stats(); busy != 0 || n != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

func TestTransferCost(t *testing.T) {
	// 1 MB at 100 MB/s with 1ms latency: 1ms + 10ms.
	got := TransferCost(1e6, time.Millisecond, 100e6)
	want := 11 * time.Millisecond
	if got != want {
		t.Fatalf("TransferCost = %v, want %v", got, want)
	}
	if TransferCost(1e9, 2*time.Millisecond, 0) != 2*time.Millisecond {
		t.Fatal("zero bandwidth should charge latency only")
	}
	if TransferCost(0, 0, 100e6) != 0 {
		t.Fatal("zero bytes zero latency should be free")
	}
}

func TestComputeCost(t *testing.T) {
	if got := ComputeCost(1000, 1e6); got != time.Millisecond {
		t.Fatalf("ComputeCost = %v, want 1ms", got)
	}
	if ComputeCost(1000, 0) != 0 {
		t.Fatal("zero rate must charge nothing")
	}
	if ComputeCost(-5, 1e6) != 0 {
		t.Fatal("negative count must charge nothing")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatal("zero seed must not get stuck at zero")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestResourceMonotonicProperty(t *testing.T) {
	// Property: acquire completion times are non-decreasing for a
	// single client issuing requests in time order.
	f := func(services []uint16) bool {
		var r Resource
		var at Time
		var last Time
		for _, s := range services {
			done := r.Acquire(at, Duration(s))
			if done < last || done < at {
				return false
			}
			last = done
			at = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
