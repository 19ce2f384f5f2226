package mesh

import (
	"fmt"
	"math"
)

// RT models the Rayleigh–Taylor instability application of the paper's
// second benchmark: a heavy fluid over a light fluid with a perturbed
// interface, evolved with a simplified single-mode growth model on a
// tetrahedral mesh. At every checkpoint the application produces two
// datasets — one value per mesh vertex (density) and one value per
// boundary triangle (interface indicator) — which is all the I/O system
// ever sees of the physics. The full hydrodynamics of the original
// FLASH-adjacent code is replaced by an analytic interface evolution
// (documented substitution; the I/O pattern, dataset shapes, and sizes
// are preserved).
type RT struct {
	mesh     *Mesh
	tris     [][3]int32
	atwood   float64 // density contrast (rhoH-rhoL)/(rhoH+rhoL)
	amp0     float64 // initial perturbation amplitude
	growth   float64 // exponential growth rate of the linear phase
	waveNumX float64
	waveNumY float64
}

// NewRT builds the workload on a mesh.
func NewRT(m *Mesh) *RT {
	return &RT{
		mesh:     m,
		tris:     m.BoundaryTriangles(),
		atwood:   0.5,
		amp0:     0.01,
		growth:   0.8,
		waveNumX: 2 * math.Pi * 2,
		waveNumY: 2 * math.Pi * 3,
	}
}

// Mesh returns the underlying mesh.
func (r *RT) Mesh() *Mesh { return r.mesh }

// NumTriangles reports the boundary triangle count.
func (r *RT) NumTriangles() int { return len(r.tris) }

// amplitude is the interface perturbation's amplitude at time t,
// growing exponentially (linear regime) and saturating (nonlinear
// regime).
func (r *RT) amplitude(t float64) float64 {
	amp := r.amp0 * math.Exp(r.growth*t)
	if amp > 0.25 {
		amp = 0.25 + 0.1*math.Tanh((amp-0.25)*4) // saturation
	}
	return amp
}

// interfaceHeight is the perturbed interface z-position at (x, y) for
// perturbation amplitude amp: a single-mode perturbation, its cosines
// taken through cos, a trigMemo of math.Cos (the lattice repeats a few
// x and y values, see Mesh.EdgeData).
func (r *RT) interfaceHeight(amp, x, y float64, cos *trigMemo) float64 {
	return 0.5 + amp*cos.at(r.waveNumX*x)*cos.at(r.waveNumY*y)
}

// NodeDataset returns the density field at checkpoint time t: heavy
// fluid above the interface, light below, smoothed across it.
func (r *RT) NodeDataset(t float64) []float64 {
	out := make([]float64, r.mesh.NumNodes())
	rhoH, rhoL := 1+r.atwood, 1-r.atwood
	amp := r.amplitude(t)
	var cos trigMemo
	cos.reset(math.Cos)
	for i, c := range r.mesh.Coords {
		h := r.interfaceHeight(amp, c[0], c[1], &cos)
		s := math.Tanh((c[2] - h) * 20) // -1 below, +1 above
		out[i] = (rhoH+rhoL)/2 + s*(rhoH-rhoL)/2
	}
	return out
}

// TriangleDataset returns the per-triangle interface indicator at time
// t: how close the triangle centroid sits to the interface, the field
// the application visualizes.
func (r *RT) TriangleDataset(t float64) []float64 {
	out := make([]float64, len(r.tris))
	amp := r.amplitude(t)
	var cos trigMemo
	cos.reset(math.Cos)
	for i, tri := range r.tris {
		var cx, cy, cz float64
		for _, n := range tri {
			cx += r.mesh.Coords[n][0]
			cy += r.mesh.Coords[n][1]
			cz += r.mesh.Coords[n][2]
		}
		cx, cy, cz = cx/3, cy/3, cz/3
		h := r.interfaceHeight(amp, cx, cy, &cos)
		out[i] = math.Exp(-(cz - h) * (cz - h) * 50)
	}
	return out
}

// MixingWidth is a scalar diagnostic (the vertical extent over which
// densities are mixed), handy for example programs to print progress.
func (r *RT) MixingWidth(t float64) float64 {
	return 2 * r.amplitude(t)
}

func (r *RT) String() string {
	return fmt.Sprintf("RT{nodes=%d tris=%d atwood=%.2f}",
		r.mesh.NumNodes(), len(r.tris), r.atwood)
}
