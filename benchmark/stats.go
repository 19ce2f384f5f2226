package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

// The host this benchmark runs on is a small shared VM, and two things
// about it defeat a plain median of wall times (measured here;
// README.md has the numbers):
//
//   - Its hypervisor takes the virtual CPUs away in bursts that last
//     seconds. A phase that keeps both CPUs busy then takes 2-6x as long
//     on the wall clock, and its CPU time grows by up to half (waiters
//     spin while a lock holder's CPU is stolen).
//   - The whole machine runs 10-25 % faster or slower for minutes at a
//     time (a neighbour on the sibling hyperthread or in the shared
//     cache; no steal is reported), so every metric of a run moves
//     together.
//
// The estimator that repeats under those conditions, chosen among
// thirteen candidates on ten runs per workload with ten seeds, is:
//
//	host cost = lower quartile of the repetitions' CPU seconds
//	            x refNominalCPU / lower quartile of the run's
//	              reference-kernel CPU seconds
//
// CPU seconds, because wall time depends on how many CPUs the
// hypervisor lends at that instant. The lower quartile, because every
// disturbance adds time and none removes it: up to three quarters of
// the repetitions may be hit before the statistic moves, with no need
// to decide which ones were (a gate on reference speed and measured
// steal was tried first; it kept too few repetitions and made the
// spread between runs worse, 0.14 against 0.09). The reference kernel,
// a fixed piece of work that touches no SDM code and is run before
// every phase of every round, because a machine-wide slowdown inflates
// it and the phases alike and cancels in the ratio. None of this looks
// at the measured value of the program under test.

// The reference kernel: on every CPU at once (as the phases are),
// xorshift steps and two copies of a buffer that does not fit the
// cache.
const (
	refSteps    = 2_500_000
	refBufBytes = 6 << 20
)

// refNominalCPU is the reference kernel's CPU time per lane on this
// sandbox when nothing disturbs it. It only fixes the scale of the
// normalised numbers, so that they read like CPU seconds of the quiet
// machine; any constant would compare two commits equally well.
const refNominalCPU = 0.0066

type refLane struct {
	src, dst []byte
	sink     uint64
}

var refLanes = func() []refLane {
	lanes := make([]refLane, min(runtime.GOMAXPROCS(0), 8))
	for i := range lanes {
		lanes[i] = refLane{src: make([]byte, refBufBytes), dst: make([]byte, refBufBytes)}
	}
	return lanes
}()

// refKernel runs the fixed reference work on every lane at once and
// reports the CPU seconds it took per lane.
func refKernel() float64 {
	cpu0 := cpuSeconds()
	var wg sync.WaitGroup
	for i := range refLanes {
		wg.Add(1)
		go func(l *refLane) {
			defer wg.Done()
			x := uint64(0x9E3779B97F4A7C15)
			for i := 0; i < refSteps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			l.src[int(x%refBufBytes)] = byte(x)
			copy(l.dst, l.src)
			copy(l.src, l.dst)
			l.sink += x + uint64(l.dst[int(x>>8)%refBufBytes])
		}(&refLanes[i])
	}
	wg.Wait()
	return (cpuSeconds() - cpu0) / float64(len(refLanes))
}

// cpuClock reads a POSIX CPU-time clock in seconds; negative if the
// kernel refuses.
func cpuClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return -1
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// cpuSeconds is the CPU time (user + system) this process has used,
// from CLOCK_PROCESS_CPUTIME_ID (nanosecond accounting; getrusage moves
// in scheduler ticks), falling back to getrusage.
func cpuSeconds() float64 {
	const clockProcessCPUTime = 2
	if t := cpuClock(clockProcessCPUTime); t >= 0 {
		return t
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// stolenTicks reads the machine-wide CPU accounting: ticks stolen by
// the hypervisor and ticks in total (both zero where /proc/stat does
// not say). It feeds host.steal_frac, the traced run's note on how
// disturbed the machine was; no metric is filtered by it.
func stolenTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// hostCost is the estimator: the lower quartile of the repetitions'
// costs, in reference-normalised units.
func hostCost(reps, refs []float64) float64 {
	ref := quantile(refs, 0.25)
	if len(reps) == 0 || !(ref > 0) {
		return math.NaN()
	}
	return quantile(reps, 0.25) * refNominalCPU / ref
}

// perSecond is a rate over host seconds; a phase too short for the
// clock's microsecond resolution (test sizes only) counts as one tick.
func perSecond(amount, seconds float64) float64 {
	return amount / max(seconds, 1e-6)
}

// quantile is the value a fraction p of vals lies below (nearest rank);
// vals is not modified. NaN when empty.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median of vals (NaN when empty); vals is not modified.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is quantile in percent, with the sample count it rests on,
// so that no percentile is printed without saying how many samples
// stand behind it.
func percentile(vals []float64, p float64) (v float64, n int) {
	return quantile(vals, p/100), len(vals)
}
