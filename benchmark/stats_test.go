package main

import (
	"math"
	"testing"
)

// syntheticRun builds n repetitions of a phase whose clean cost is 100
// (1 % noise) next to reference runs whose clean cost is 7, slows the
// repetitions slow() selects by 2x, and slows the whole machine —
// repetitions and references alike — by the factor machine.
func syntheticRun(n int, slow func(i int) bool, machine float64, seed uint64) (reps, refs []float64) {
	rng := newRNG(seed)
	noise := func() float64 { return 1 + (float64(rng.intn(2001))-1000)/1e5 } // +-1 %
	for i := 0; i < n; i++ {
		v := 100 * noise() * machine
		if slow(i) {
			v *= 2
		}
		reps = append(reps, v)
		refs = append(refs, 7*noise()*machine)
	}
	return reps, refs
}

func TestHostCostIgnoresSlowWindows(t *testing.T) {
	want := 100 * refNominalCPU / 7
	for _, tc := range []struct {
		name string
		slow func(i int) bool
	}{
		{"none", func(int) bool { return false }},
		{"one long window", func(i int) bool { return i >= 5 && i < 14 }},
		{"every other repetition", func(i int) bool { return i%2 == 1 }},
		{"two thirds of the run", func(i int) bool { return i%3 != 0 }},
	} {
		reps, refs := syntheticRun(24, tc.slow, 1, 7)
		if got := hostCost(reps, refs); math.Abs(got-want)/want > 0.03 {
			t.Errorf("%s: estimate %.5f, clean cost %.5f", tc.name, got, want)
		}
		// The plain median is what the quartile is chosen over: with half
		// the repetitions slow it lands far from the clean value.
		if tc.name == "every other repetition" {
			if plain := median(reps) * refNominalCPU / 7; math.Abs(plain-want)/want < 0.2 {
				t.Errorf("plain median %.5f is unexpectedly close to %.5f; the case tests nothing", plain, want)
			}
		}
	}
}

func TestHostCostCancelsAMachineWideSlowdown(t *testing.T) {
	base, refs := syntheticRun(24, func(int) bool { return false }, 1, 11)
	want := hostCost(base, refs)
	for _, machine := range []float64{0.8, 1.25, 1.5} {
		reps, refs := syntheticRun(24, func(i int) bool { return i%4 == 0 }, machine, 11)
		if got := hostCost(reps, refs); math.Abs(got-want)/want > 0.03 {
			t.Errorf("machine x%.2f: estimate %.5f, undisturbed %.5f", machine, got, want)
		}
	}
}

func TestHostCostOfNothing(t *testing.T) {
	if v := hostCost(nil, []float64{7}); !math.IsNaN(v) {
		t.Errorf("no repetitions: %v", v)
	}
	if v := hostCost([]float64{1}, nil); !math.IsNaN(v) {
		t.Errorf("no reference runs: %v", v)
	}
}

func TestQuantileAndPercentile(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {25, 25}, {95, 95}, {99, 99}, {100, 100}, {0, 1}} {
		got, n := percentile(vals, tc.p)
		if got != tc.want || n != 100 {
			t.Errorf("p%v = %v (n=%d), want %v (n=100)", tc.p, got, n, tc.want)
		}
	}
	if vals[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if v, n := percentile(nil, 50); !math.IsNaN(v) || n != 0 {
		t.Errorf("empty input: %v, n=%d", v, n)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if got := quantile([]float64{3, 1, 2}, 0.25); got != 1 {
		t.Errorf("lower quartile of three = %v, want the smallest", got)
	}
}

func TestReferenceKernelAndClocks(t *testing.T) {
	c0 := cpuSeconds()
	ref := refKernel()
	if !(ref > 0) || cpuSeconds() <= c0 {
		t.Errorf("reference kernel took %v CPU seconds per lane; process CPU %v -> %v", ref, c0, cpuSeconds())
	}
	if steal, total := stolenTicks(); total != 0 && (steal < 0 || steal > total) {
		t.Errorf("steal %d of total %d ticks", steal, total)
	}
}
