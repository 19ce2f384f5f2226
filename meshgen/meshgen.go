// Package meshgen provides the unstructured-mesh tooling that SDM's
// example applications and benchmarks are built on: a synthetic
// tetrahedral mesh generator, the binary uns3d.msh mesh-file format SDM
// imports, the FUN3D-style edge-sweep kernel, and the Rayleigh–Taylor
// workload. It re-exports the implementation in internal/mesh as
// stable public API.
package meshgen

import (
	"sdm/internal/mesh"
)

// Mesh is an unstructured tetrahedral mesh with unique normalized
// edges.
type Mesh = mesh.Mesh

// MshLayout describes the binary layout of a uns3d.msh-style file.
type MshLayout = mesh.MshLayout

// RT is the Rayleigh–Taylor instability workload: one node dataset and
// one boundary-triangle dataset per checkpoint.
type RT = mesh.RT

// GridTooLargeError is the error every generator returns, before it
// allocates anything, for a grid of more than math.MaxInt32 nodes.
type GridTooLargeError = mesh.GridTooLargeError

// GenerateTet builds a deterministic tetrahedral mesh over the unit
// cube from an nx x ny x nz grid (six tets per hex).
func GenerateTet(nx, ny, nz int) (*Mesh, error) { return mesh.GenerateTet(nx, ny, nz) }

// GenerateTetEdges builds the same mesh as GenerateTet minus the
// tetrahedra, from the streamed closed-form edge stencil — the
// paper-scale path for edge/node workloads (~15M edges at nx=128 with
// no tet array).
func GenerateTetEdges(nx, ny, nz int) (*Mesh, error) { return mesh.GenerateTetEdges(nx, ny, nz) }

// StreamTetEdges generates GenerateTet's unique sorted edges in reused
// blocks of at most blockEdges entries, in O(blockEdges) memory.
func StreamTetEdges(nx, ny, nz, blockEdges int, yield func(edge1, edge2 []int32) error) error {
	return mesh.StreamTetEdges(nx, ny, nz, blockEdges, yield)
}

// EdgeCount reports GenerateTet's unique edge count in closed form.
func EdgeCount(nx, ny, nz int) int64 { return mesh.EdgeCount(nx, ny, nz) }

// EncodeMsh serializes a mesh and its per-edge/per-node double arrays
// into the uns3d.msh layout.
func EncodeMsh(m *Mesh, edgeData, nodeData [][]float64) ([]byte, MshLayout, error) {
	return mesh.EncodeMsh(m, edgeData, nodeData)
}

// DecodeMsh parses a uns3d.msh file given its layout.
func DecodeMsh(buf []byte, layout MshLayout) (edge1, edge2 []int32, edgeData, nodeData [][]float64, err error) {
	return mesh.DecodeMsh(buf, layout)
}

// NewRT builds the Rayleigh–Taylor workload on a mesh.
func NewRT(m *Mesh) *RT { return mesh.NewRT(m) }

// SweepLocal runs one edge-based sweep over a partitioned subdomain
// with ghost handling; contributions accumulate only into owned nodes.
func SweepLocal(edge1, edge2 []int32, x, y []float64, owned []bool) (p, q []float64) {
	return mesh.SweepLocal(edge1, edge2, x, y, owned)
}

// SweepSerial is the single-process reference sweep.
func SweepSerial(edge1, edge2 []int32, x, y []float64, nNodes int) (p, q []float64) {
	return mesh.SweepSerial(edge1, edge2, x, y, nNodes)
}
