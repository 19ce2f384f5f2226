package mesh

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// Frozen copies of the synthesized fields as they were before their
// trigonometric terms went through a trigMemo: every value evaluated
// directly. They exist only as references for TestFieldsMatchDirect.

func frozenEdgeData(m *Mesh, k int) []float64 {
	out := make([]float64, m.NumEdges())
	phase := float64(k+1) * 0.7
	for i := range out {
		a, b := m.Coords[m.Edge1[i]], m.Coords[m.Edge2[i]]
		mx := (a[0] + b[0]) / 2
		my := (a[1] + b[1]) / 2
		mz := (a[2] + b[2]) / 2
		out[i] = math.Sin(phase+3*mx) * math.Cos(phase+2*my) * (1 + mz)
	}
	return out
}

func frozenNodeData(m *Mesh, k int) []float64 {
	out := make([]float64, m.NumNodes())
	phase := float64(k+1) * 1.3
	for i, c := range m.Coords {
		out[i] = math.Cos(phase+2*c[0]+c[1]) * (1 + c[2]*c[2])
	}
	return out
}

func frozenInterfaceHeight(r *RT, x, y, t float64) float64 {
	amp := r.amp0 * math.Exp(r.growth*t)
	if amp > 0.25 {
		amp = 0.25 + 0.1*math.Tanh((amp-0.25)*4) // saturation
	}
	return 0.5 + amp*math.Cos(r.waveNumX*x)*math.Cos(r.waveNumY*y)
}

func frozenNodeDataset(r *RT, t float64) []float64 {
	out := make([]float64, r.mesh.NumNodes())
	rhoH, rhoL := 1+r.atwood, 1-r.atwood
	for i, c := range r.mesh.Coords {
		h := frozenInterfaceHeight(r, c[0], c[1], t)
		s := math.Tanh((c[2] - h) * 20) // -1 below, +1 above
		out[i] = (rhoH+rhoL)/2 + s*(rhoH-rhoL)/2
	}
	return out
}

func frozenTriangleDataset(r *RT, t float64) []float64 {
	out := make([]float64, len(r.tris))
	for i, tri := range r.tris {
		var cx, cy, cz float64
		for _, n := range tri {
			cx += r.mesh.Coords[n][0]
			cy += r.mesh.Coords[n][1]
			cz += r.mesh.Coords[n][2]
		}
		cx, cy, cz = cx/3, cy/3, cz/3
		h := frozenInterfaceHeight(r, cx, cy, t)
		out[i] = math.Exp(-(cz - h) * (cz - h) * 50)
	}
	return out
}

// sameBits fails t unless got and want hold the same float64 bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v (%#x), direct evaluation %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// jitter moves every coordinate of m: a third to a small pool of
// values (so arguments repeat and hit), a sixth to +0 or -0, and the
// rest to fresh random values (so they miss, and with thousands of
// arguments over 4096 slots, share slots and evict each other).
func jitter(m *Mesh, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 1))
	pool := []float64{0.125, -0.5, 0.75, 1, 1e-300, 3.25}
	for i := range m.Coords {
		for d := range 3 {
			switch rng.IntN(6) {
			case 0, 1:
				m.Coords[i][d] = pool[rng.IntN(len(pool))]
			case 2:
				m.Coords[i][d] = math.Copysign(0, float64(rng.IntN(2))-0.5)
			default:
				m.Coords[i][d] = rng.Float64()*4 - 2
			}
		}
	}
}

// TestFieldsMatchDirect: the memoized fields — FUN3D's EdgeData and
// NodeData, RT's NodeDataset and TriangleDataset — are bit-identical to
// direct evaluation on generated lattices and on jittered coordinates
// where the memo misses, collides and sees both zeros.
func TestFieldsMatchDirect(t *testing.T) {
	type mcase struct {
		name string
		m    *Mesh
	}
	var meshes []mcase
	for _, nx := range []int{4, 16} {
		m, err := GenerateTet(nx, nx, nx)
		if err != nil {
			t.Fatal(err)
		}
		meshes = append(meshes, mcase{fmt.Sprintf("lattice-%d", nx), m})
	}
	for seed := range uint64(3) {
		m, err := GenerateTet(12, 12, 12)
		if err != nil {
			t.Fatal(err)
		}
		jitter(m, seed)
		meshes = append(meshes, mcase{fmt.Sprintf("jittered-%d", seed), m})
	}
	for _, c := range meshes {
		for k := range 4 {
			sameBits(t, fmt.Sprintf("%s EdgeData(%d)", c.name, k), c.m.EdgeData(k), frozenEdgeData(c.m, k))
			sameBits(t, fmt.Sprintf("%s NodeData(%d)", c.name, k), c.m.NodeData(k), frozenNodeData(c.m, k))
		}
		r := NewRT(c.m)
		// Amplitude saturates past t ~ 4.
		for _, tm := range []float64{0, 1.5, 5} {
			sameBits(t, fmt.Sprintf("%s NodeDataset(%g)", c.name, tm), r.NodeDataset(tm), frozenNodeDataset(r, tm))
			sameBits(t, fmt.Sprintf("%s TriangleDataset(%g)", c.name, tm), r.TriangleDataset(tm), frozenTriangleDataset(r, tm))
		}
	}
	// The benchmark's FUN3D mesh, whose NodeData arguments fill 1681 of
	// the 4096 slots.
	m, err := GenerateTetEdges(40, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "lattice-40 EdgeData(0)", m.EdgeData(0), frozenEdgeData(m, 0))
	sameBits(t, "lattice-40 NodeData(3)", m.NodeData(3), frozenNodeData(m, 3))
}

// TestTrigMemoCollisions drives one slot with two arguments in turn,
// and the slot reset fills with +0's value with -0: every answer is
// the function's own. Counting the evaluations shows that the two
// arguments did share a slot.
func TestTrigMemoCollisions(t *testing.T) {
	slot := func(x float64) uint64 { return (math.Float64bits(x) * 0x9E3779B97F4A7C15) >> (64 - memoBits) }
	rng := rand.New(rand.NewPCG(7, 7))
	x0 := 0.5
	x1 := x0
	for x1 == x0 || slot(x1) != slot(x0) {
		x1 = rng.Float64()
	}
	negZero := math.Copysign(0, -1)
	for _, fn := range []func(float64) float64{math.Sin, math.Cos} {
		calls := 0
		var memo trigMemo
		memo.reset(func(x float64) float64 { calls++; return fn(x) })
		for _, x := range []float64{x0, x1, x0} {
			if got, want := memo.at(x), fn(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("at(%v) = %v, want %v", x, got, want)
			}
		}
		if calls != 4 { // +0 at reset, then x0, x1 and x0 again
			t.Fatalf("%d evaluations for x0, x1, x0: the two arguments did not share a slot", calls)
		}
		for _, x := range []float64{x0, x0, negZero, 0, negZero, math.NaN(), math.Inf(1)} {
			if got, want := memo.at(x), fn(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("at(%v) = %v, want %v", x, got, want)
			}
		}
	}
}
