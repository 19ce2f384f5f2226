package mpi

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sdm/internal/sim"
)

// fastConfig keeps virtual costs tiny so logic-focused tests don't
// depend on the cost model.
func fastConfig() Config { return Config{Latency: 0, Bandwidth: 0} }

func run(t *testing.T, n int, cfg Config, fn func(*Comm)) *World {
	t.Helper()
	w := NewWorld(n, cfg)
	if err := w.Run(fn); err != nil {
		t.Fatalf("Run failed: %v", err)
	}
	return w
}

// sendSlice and recvSlice move a typed slice through Send and Recv,
// sized by its element type.
func sendSlice[T any](c *Comm, dst, tag int, s []T) {
	c.Send(dst, tag, s, sliceBytes[T](len(s)))
}

func recvSlice[T any](c *Comm, src, tag int) ([]T, Status) {
	payload, st := c.Recv(src, tag)
	return payload.([]T), st
}

// alltoall sends parts[i] to rank i through Alltoall and returns a copy
// of the received parts indexed by source rank (the result row itself is
// reused by the next Alltoall).
func alltoall(c *Comm, parts [][]int64) [][]int64 {
	boxed := make([]any, len(parts))
	var total int
	for i, p := range parts {
		boxed[i] = p
		total += len(p)
	}
	res := c.Alltoall(boxed, sliceBytes[int64](total))
	out := make([][]int64, len(res))
	for i, v := range res {
		out[i] = v.([]int64)
	}
	return out
}

func TestSendRecvBasic(t *testing.T) {
	run(t, 2, fastConfig(), func(c *Comm) {
		if c.Rank() == 0 {
			sendSlice(c, 1, 7, []int64{1, 2, 3})
		} else {
			got, st := recvSlice[int64](c, 0, 7)
			if st.Source != 0 || st.Tag != 7 || st.Bytes != 24 {
				t.Errorf("status = %+v", st)
			}
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("payload = %v", got)
			}
		}
	})
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	run(t, 3, fastConfig(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			sendSlice(c, 2, 11, []int32{int32(c.Rank())})
		case 1:
			sendSlice(c, 2, 12, []int32{int32(c.Rank())})
		case 2:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				got, st := recvSlice[int32](c, AnySource, AnyTag)
				if int(got[0]) != st.Source {
					t.Errorf("payload %v from source %d", got, st.Source)
				}
				seen[st.Source] = true
			}
			if !seen[0] || !seen[1] {
				t.Errorf("sources seen: %v", seen)
			}
		}
	})
}

func TestNonOvertaking(t *testing.T) {
	// Messages from the same source with the same tag must arrive in
	// send order.
	run(t, 2, fastConfig(), func(c *Comm) {
		const k = 50
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				sendSlice(c, 1, 3, []int64{int64(i)})
			}
		} else {
			for i := 0; i < k; i++ {
				got, _ := recvSlice[int64](c, 0, 3)
				if got[0] != int64(i) {
					t.Errorf("message %d arrived out of order: %v", i, got)
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	run(t, 2, fastConfig(), func(c *Comm) {
		if c.Rank() == 0 {
			sendSlice(c, 1, 1, []int64{111})
			sendSlice(c, 1, 2, []int64{222})
		} else {
			// Receive tag 2 first even though tag 1 was sent first.
			got2, _ := recvSlice[int64](c, 0, 2)
			got1, _ := recvSlice[int64](c, 0, 1)
			if got2[0] != 222 || got1[0] != 111 {
				t.Errorf("tag matching wrong: %v %v", got1, got2)
			}
		}
	})
}

func TestSendCostAdvancesClocks(t *testing.T) {
	cfg := Config{Latency: time.Millisecond, Bandwidth: 1e6} // 1 MB/s
	run(t, 2, cfg, func(c *Comm) {
		if c.Rank() == 0 {
			sendSlice(c, 1, 0, make([]int64, 125_000)) // 1 MB => 1s + 1ms
			want := sim.Time(time.Second + time.Millisecond)
			if c.Now() != want {
				t.Errorf("sender clock %v, want %v", c.Now(), want)
			}
		} else {
			_, _ = recvSlice[int64](c, 0, 0)
			want := sim.Time(time.Second + time.Millisecond)
			if c.Now() != want {
				t.Errorf("receiver clock %v, want %v", c.Now(), want)
			}
		}
	})
}

func TestRecvAfterComputeKeepsLaterClock(t *testing.T) {
	cfg := Config{Latency: time.Millisecond, Bandwidth: 0}
	run(t, 2, cfg, func(c *Comm) {
		if c.Rank() == 0 {
			sendSlice(c, 1, 0, []int64{1}) // arrives at 1ms
		} else {
			c.Compute(time.Second) // receiver is busy until 1s
			_, _ = recvSlice[int64](c, 0, 0)
			if c.Now() != sim.Time(time.Second) {
				t.Errorf("receiver clock %v, want 1s (message already waiting)", c.Now())
			}
		}
	})
}

func TestSendrecvOverlaps(t *testing.T) {
	cfg := Config{Latency: 0, Bandwidth: 1e6}
	run(t, 2, cfg, func(c *Comm) {
		peer := 1 - c.Rank()
		buf := make([]int64, 125_000) // 1MB, 1s transfer
		got, _ := SendrecvSlice(c, peer, 5, buf, peer, 5)
		if len(got) != 125_000 {
			t.Errorf("wrong payload size %d", len(got))
		}
		// Overlapped exchange: ~1s, not 2s.
		if c.Now() != sim.Time(time.Second) {
			t.Errorf("clock %v, want 1s", c.Now())
		}
	})
}

func TestRingShift(t *testing.T) {
	// The SDM index-distribution pattern: pass a payload around the
	// ring size-1 times; every rank must see every other rank's block.
	const n = 5
	run(t, n, fastConfig(), func(c *Comm) {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() - 1 + n) % n
		cur := []int64{int64(c.Rank())}
		seen := []int64{cur[0]}
		for step := 0; step < n-1; step++ {
			got, _ := SendrecvSlice(c, next, step, cur, prev, step)
			cur = got
			seen = append(seen, cur[0])
		}
		sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
		for i, v := range seen {
			if v != int64(i) {
				t.Errorf("rank %d saw %v", c.Rank(), seen)
				break
			}
		}
	})
}

func TestBarrierSyncsClocks(t *testing.T) {
	run(t, 4, fastConfig(), func(c *Comm) {
		c.Compute(time.Duration(c.Rank()+1) * time.Second)
		c.Barrier()
		if c.Now() != sim.Time(4*time.Second) {
			t.Errorf("rank %d clock %v, want 4s", c.Rank(), c.Now())
		}
	})
}

func TestBarrierCost(t *testing.T) {
	cfg := Config{Latency: time.Millisecond, Bandwidth: 0}
	run(t, 8, cfg, func(c *Comm) {
		c.Barrier() // log2(8)=3 rounds of 1ms
		if c.Now() != sim.Time(3*time.Millisecond) {
			t.Errorf("clock %v, want 3ms", c.Now())
		}
	})
}

// TestBarrierErr: every rank leaves at the Barrier's cost with an error
// when any rank brought one — its own, else the lowest-ranked — and with
// nil when none did.
func TestBarrierErr(t *testing.T) {
	cfg := Config{Latency: time.Millisecond, Bandwidth: 0}
	errs := []error{nil, errors.New("rank 1 failed"), nil, errors.New("rank 3 failed")}
	run(t, 4, cfg, func(c *Comm) {
		if err := c.BarrierErr(nil); err != nil {
			t.Errorf("rank %d: no failure, got %v", c.Rank(), err)
		}
		want := errs[1]
		if c.Rank() == 3 {
			want = errs[3]
		}
		if err := c.BarrierErr(errs[c.Rank()]); err != want {
			t.Errorf("rank %d: got %v, want %v", c.Rank(), err, want)
		}
		if c.Now() != sim.Time(4*time.Millisecond) { // two barriers of log2(4)=2 rounds
			t.Errorf("rank %d: clock %v, want 4ms", c.Rank(), c.Now())
		}
	})
}

func TestBcast(t *testing.T) {
	run(t, 6, fastConfig(), func(c *Comm) {
		var payload []float64
		if c.Rank() == 2 {
			payload = []float64{3.14, 2.71}
		}
		got := BcastSlice(c, 2, payload)
		if len(got) != 2 || got[0] != 3.14 || got[1] != 2.71 {
			t.Errorf("rank %d got %v", c.Rank(), got)
		}
	})
}

func TestAllgather(t *testing.T) {
	run(t, 4, fastConfig(), func(c *Comm) {
		parts := AllgatherSlice(c, []int32{int32(c.Rank()), int32(c.Rank() * 2)})
		if len(parts) != 4 {
			t.Fatalf("got %d parts", len(parts))
		}
		for i, p := range parts {
			if p[0] != int32(i) || p[1] != int32(i*2) {
				t.Errorf("slot %d = %v", i, p)
			}
		}
	})
}

func TestAlltoallSlices(t *testing.T) {
	const n = 4
	run(t, n, fastConfig(), func(c *Comm) {
		parts := make([][]int64, n)
		for i := range parts {
			parts[i] = []int64{int64(c.Rank()*100 + i)}
		}
		got := alltoall(c, parts)
		for src, p := range got {
			want := int64(src*100 + c.Rank())
			if len(p) != 1 || p[0] != want {
				t.Errorf("rank %d from %d: %v, want %d", c.Rank(), src, p, want)
			}
		}
	})
}

// An Alltoall costs what AlltoallCost says for its largest sender, the
// one formula callers plan with: with 4 ranks sending 0, 1000, 2000 and
// 4000 bytes on a 10 µs, 100 MB/s network, 3·(10 µs + 1000 bytes) =
// 60 µs after the last arrival; and a call allocates nothing.
func TestAlltoallCost(t *testing.T) {
	const n = 4
	w := NewWorld(n, Config{Latency: 10_000, Bandwidth: 100e6})
	parts := make([][]any, n)
	for r := range parts {
		parts[r] = make([]any, n)
	}
	sends := []int64{0, 1000, 2000, 4000}
	err := w.Run(func(c *Comm) {
		c.Compute(sim.Duration(c.Rank()) * 1000) // the last arrives at 3 µs
		c.Alltoall(parts[c.Rank()], sends[c.Rank()])
		if got := c.Now(); got != sim.Time(3000+60_000) {
			t.Errorf("rank %d leaves at %v, want 63µs", c.Rank(), got)
		}
		if got := c.AlltoallCost(4000); got != 60_000 {
			t.Errorf("AlltoallCost(4000) = %v, want 60µs", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(calls int) float64 {
		return testing.AllocsPerRun(5, func() {
			w.Run(func(c *Comm) {
				for range calls {
					c.Alltoall(parts[c.Rank()], sends[c.Rank()])
				}
			})
		})
	}
	if few, many := allocs(10), allocs(1000); many != few {
		t.Errorf("a run of 1000 Alltoalls allocated %.0f times, of 10 %.0f", many, few)
	}
}

func TestAllreduce(t *testing.T) {
	run(t, 5, fastConfig(), func(c *Comm) {
		if got := c.AllreduceFloat64(float64(c.Rank()), OpMax); got != 4 {
			t.Errorf("max = %v, want 4", got)
		}
		if got := c.AllreduceFloat64(float64(c.Rank()), OpMin); got != 0 {
			t.Errorf("min = %v, want 0", got)
		}
		if got := c.AllreduceFloat64(0.5, OpSum); got != 2.5 {
			t.Errorf("fsum = %v, want 2.5", got)
		}
	})
}

// TestAllreduceMinMax: random (lo, hi, n) triples per rank, some the
// empty sentinel (1<<62, -1, 0), reduce to the least lo, the greatest hi
// and the sum of n on every rank, at the last arrival plus one tree
// reduction — of 16 bytes for AllreduceMinMax, of 24 for
// AllreduceMinMaxSum, the two alternating — and a steady-state call of
// either allocates nothing.
func TestAllreduceMinMax(t *testing.T) {
	const n, rounds = 8, 40
	const emptyLo, emptyHi = int64(1 << 62), int64(-1)
	rng := rand.New(rand.NewPCG(1, 2))
	var lo, hi, cnt [rounds][n]int64
	var delay [rounds][n]sim.Duration // compute before the call: staggered arrivals
	var wantLo, wantHi, wantSum [rounds]int64
	for k := range rounds {
		wantLo[k], wantHi[k] = emptyLo, emptyHi
		for r := range n {
			lo[k][r], hi[k][r] = emptyLo, emptyHi
			if k > 0 && rng.IntN(3) != 0 { // round 0: no rank has data
				lo[k][r] = rng.Int64N(1<<40) - 1<<39
				hi[k][r] = lo[k][r] + rng.Int64N(1<<20)
				cnt[k][r] = rng.Int64N(1 << 20)
			}
			wantLo[k], wantHi[k] = min(wantLo[k], lo[k][r]), max(wantHi[k], hi[k][r])
			wantSum[k] += cnt[k][r]
			delay[k][r] = sim.Duration(rng.Int64N(int64(time.Millisecond)))
		}
	}
	cfg := Config{Latency: time.Millisecond, Bandwidth: 1e9}
	cost := func(bytes time.Duration) sim.Duration {
		return 3 * (time.Millisecond + bytes*time.Nanosecond) // log2(8) rounds
	}
	run(t, n, cfg, func(c *Comm) {
		r := c.Rank()
		for k := range rounds {
			start := c.Now() // every rank left the previous round together
			c.Compute(delay[k][r])
			gotLo, gotHi, gotSum, want := int64(0), int64(0), wantSum[k], cost(24)
			if k%2 == 0 {
				gotLo, gotHi = c.AllreduceMinMax(lo[k][r], hi[k][r])
				gotSum, want = wantSum[k], cost(16)
			} else {
				gotLo, gotHi, gotSum = c.AllreduceMinMaxSum(lo[k][r], hi[k][r], cnt[k][r])
			}
			if gotLo != wantLo[k] || gotHi != wantHi[k] || gotSum != wantSum[k] {
				t.Errorf("round %d rank %d: (%d, %d, %d), want (%d, %d, %d)",
					k, r, gotLo, gotHi, gotSum, wantLo[k], wantHi[k], wantSum[k])
			}
			if want := start.Add(slices.Max(delay[k][:]) + want); c.Now() != want {
				t.Errorf("round %d rank %d: clock %v, want %v", k, r, c.Now(), want)
			}
		}
		// Every rank makes the same 101 calls of each; AllocsPerRun counts
		// the whole process's allocations, all ranks' included.
		for _, call := range []func(){
			func() { c.AllreduceMinMax(int64(r), int64(r)) },
			func() { c.AllreduceMinMaxSum(int64(r), int64(r), 1) },
		} {
			if r != 0 {
				for range 101 { // AllocsPerRun's warm-up call and its 100 runs
					call()
				}
				continue
			}
			if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
				t.Errorf("extent reduction allocated %.2f times per call, want 0", allocs)
			}
		}
	})
}

func TestCollectiveMismatchPanics(t *testing.T) {
	w := NewWorld(2, fastConfig())
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier()
		} else {
			c.AllreduceFloat64(1, OpSum)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
		t.Fatalf("err = %v, want collective mismatch", err)
	}
}

func TestPanicAbortsWorld(t *testing.T) {
	w := NewWorld(3, fastConfig())
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			panic("deliberate failure")
		}
		// Other ranks block forever unless the abort wakes them.
		_, _ = c.Recv(AnySource, AnyTag)
	})
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunReportsDeadlock: when no unfinished rank can run, Run returns
// an error naming what the ranks wait in instead of hanging.
func TestRunReportsDeadlock(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		fn   func(*Comm)
		want string
	}{
		{"rank 0 returns before a Barrier", 4, func(c *Comm) {
			if c.Rank() != 0 {
				c.Barrier()
			}
		}, "deadlock: 3 of 4 ranks wait in Barrier"},
		{"each receives from the other", 2, func(c *Comm) {
			c.Recv(1-c.Rank(), 0)
		}, "deadlock: every unfinished rank waits in Recv"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- NewWorld(tc.n, fastConfig()).Run(tc.fn) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want one containing %q", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run still waits after 10 s")
			}
		})
	}
}

func TestSendToInvalidRank(t *testing.T) {
	w := NewWorld(2, fastConfig())
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(5, 0, nil, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Fatalf("err = %v", err)
	}
}

func TestTrafficCounters(t *testing.T) {
	w := NewWorld(2, fastConfig())
	_ = w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			sendSlice(c, 1, 0, make([]float64, 100)) // 800 bytes
		} else {
			_, _ = recvSlice[float64](c, 0, 0)
		}
	})
	bytes, msgs := w.Traffic()
	if bytes != 800 || msgs != 1 {
		t.Fatalf("traffic = %d bytes %d msgs, want 800, 1", bytes, msgs)
	}
}

func TestRunRepeatedPhases(t *testing.T) {
	w := NewWorld(3, fastConfig())
	var total atomic.Int64
	for phase := 0; phase < 3; phase++ {
		if err := w.Run(func(c *Comm) {
			total.Add(int64(c.AllreduceFloat64(1, OpSum)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if total.Load() != 27 { // 3 phases * 3 ranks * sum(3)
		t.Fatalf("total = %d, want 27", total.Load())
	}
}

func TestBcastTreeCost(t *testing.T) {
	cfg := Config{Latency: time.Millisecond, Bandwidth: 1e9}
	run(t, 8, cfg, func(c *Comm) {
		var buf []int64
		if c.Rank() == 0 {
			buf = make([]int64, 125_000) // 1 MB: 1ms per round at 1GB/s
		}
		BcastSlice(c, 0, buf)
		// One rendezvous charged the root's size: 3 rounds of (1ms + 1ms).
		want := sim.Time(3 * 2 * time.Millisecond)
		if c.Now() != want {
			t.Errorf("clock %v, want %v", c.Now(), want)
		}
	})
}

// TestBcastChargesRootSize: when only the root knows the payload size,
// the cost is the root's declared size whichever rank arrives last. In
// rank order and in the seeded turn orders below the last arriver —
// whose size used to be charged — is not the root.
func TestBcastChargesRootSize(t *testing.T) {
	cfg := Config{Latency: time.Millisecond, Bandwidth: 1e9}
	const root, size = 1, 1_000_000 // 1 ms per round at 1 GB/s
	t.Cleanup(func() { turnSeed = 0 })
	for _, seed := range []uint64{0, 2, 3, 4} { // 0: rank order
		turnSeed = seed
		var arrivals []int // ranks take turns: no rank runs between an append and its Bcast
		run(t, 8, cfg, func(c *Comm) {
			var v any
			bytes := int64(16)
			if c.Rank() == root {
				v, bytes = "payload", size
			}
			arrivals = append(arrivals, c.Rank())
			if got := c.Bcast(root, v, bytes); got != "payload" {
				t.Errorf("rank %d received %v", c.Rank(), got)
			}
			if want := sim.Time(3 * 2 * time.Millisecond); c.Now() != want {
				t.Errorf("rank %d clock %v, want %v (three rounds of the root's size)", c.Rank(), c.Now(), want)
			}
		})
		if arrivals[len(arrivals)-1] == root {
			t.Errorf("seed %d: the root arrived last (%v), so the order proves nothing", seed, arrivals)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6, 100: 7}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestAllreduceMatchesSerialProperty cross-checks the collective against
// a serial reference for random inputs and world sizes.
func TestAllreduceMatchesSerialProperty(t *testing.T) {
	f := func(vals []int32) bool {
		if len(vals) == 0 || len(vals) > 16 {
			return true // world size limits
		}
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		var got atomic.Int64
		w := NewWorld(len(vals), fastConfig())
		err := w.Run(func(c *Comm) {
			r := c.AllreduceFloat64(float64(vals[c.Rank()]), OpSum)
			if c.Rank() == 0 {
				got.Store(int64(r))
			}
		})
		return err == nil && got.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallTransposeProperty: alltoall twice is the identity when
// each part is returned to its sender.
func TestAlltoallTransposeProperty(t *testing.T) {
	f := func(seed int64, sizeHint uint8) bool {
		n := int(sizeHint%6) + 2
		w := NewWorld(n, fastConfig())
		ok := atomic.Bool{}
		ok.Store(true)
		err := w.Run(func(c *Comm) {
			parts := make([][]int64, n)
			for i := range parts {
				parts[i] = []int64{seed + int64(c.Rank())*1000 + int64(i)}
			}
			recv := alltoall(c, parts)
			back := alltoall(c, recv)
			// back[i] must be what this rank originally addressed to i...
			// after two transposes each part returns to its owner.
			for i := range back {
				if back[i][0] != parts[i][0] {
					ok.Store(false)
				}
			}
		})
		return err == nil && ok.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0, fastConfig())
}

func TestMaxTime(t *testing.T) {
	w := NewWorld(3, fastConfig())
	_ = w.Run(func(c *Comm) {
		c.Compute(time.Duration(c.Rank()) * time.Second)
	})
	if got := w.MaxTime(); got != sim.Time(2*time.Second) {
		t.Fatalf("MaxTime = %v, want 2s", got)
	}
}
