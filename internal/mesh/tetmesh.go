// Package mesh provides the unstructured-mesh workloads the paper
// evaluates SDM with: a synthetic tetrahedral mesh generator standing in
// for the FUN3D grids (W. K. Anderson's vertex-centered unstructured
// code), the binary uns3d.msh mesh-file format SDM imports, an
// edge-based sweep kernel with ghost-node handling (the irregular
// computation of the paper's Figure 1), and a Rayleigh–Taylor-style
// time-stepping workload producing the node and triangle datasets of the
// paper's second application.
package mesh

import (
	"math"
	"slices"
)

// Mesh is an unstructured tetrahedral mesh. Edges are unique and
// normalized (Edge1[i] < Edge2[i]), the layout SDM's edge1/edge2 import
// arrays use.
type Mesh struct {
	Coords [][3]float64 // node positions
	Edge1  []int32      // one endpoint per edge
	Edge2  []int32      // the other endpoint
	Tets   [][4]int32   // tetrahedra (node ids)
}

// NumNodes reports the node count.
func (m *Mesh) NumNodes() int { return len(m.Coords) }

// NumEdges reports the unique edge count.
func (m *Mesh) NumEdges() int { return len(m.Edge1) }

// GenerateTet builds a structured nx x ny x nz hexahedral grid over the
// unit cube and splits each hex into six tetrahedra — the standard
// synthetic stand-in for an unstructured CFD grid: connectivity is
// genuinely irregular (interior nodes have degree up to 14) while the
// generator stays deterministic and scalable. The coordinates and edges
// are GenerateTetEdges's; this adds the tetrahedra.
func GenerateTet(nx, ny, nz int) (*Mesh, error) {
	m, err := GenerateTetEdges(nx, ny, nz)
	if err != nil {
		return nil, err
	}
	px, py := nx+1, ny+1
	id := func(x, y, z int) int32 { return int32((z*py+y)*px + x) }

	// Six-tet decomposition of each hex (the Kuhn triangulation),
	// consistent across neighbouring hexes so shared faces agree.
	m.Tets = make([][4]int32, 0, 6*nx*ny*nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := [8]int32{
					id(x, y, z), id(x+1, y, z), id(x, y+1, z), id(x+1, y+1, z),
					id(x, y, z+1), id(x+1, y, z+1), id(x, y+1, z+1), id(x+1, y+1, z+1),
				}
				// Kuhn simplices along the main diagonal v0-v7.
				tets := [6][4]int{
					{0, 1, 3, 7}, {0, 1, 5, 7}, {0, 2, 3, 7},
					{0, 2, 6, 7}, {0, 4, 5, 7}, {0, 4, 6, 7},
				}
				for _, t := range tets {
					m.Tets = append(m.Tets, [4]int32{v[t[0]], v[t[1]], v[t[2]], v[t[3]]})
				}
			}
		}
	}
	return m, nil
}

// BoundaryTriangles returns the triangular faces that belong to exactly
// one tetrahedron — the surface mesh, which the Rayleigh–Taylor
// application writes a dataset over ("a triangle data set associated
// with triangles on tetrahedral faces"), sorted by (a, b, c). Every
// face (a < b < c) is bucketed by a with its (b, c) packed into one
// key; a face whose key occurs once in its sorted bucket is boundary.
func (m *Mesh) BoundaryTriangles() [][3]int32 {
	// Of a sorted tet's nodes, each face's first is its smallest.
	faces := [4][3]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}
	// pos[a+2] counts the faces whose smallest node is a; after the
	// prefix sum and the placement pass, bucket a is keys[pos[a]:pos[a+1]].
	pos := make([]int, m.NumNodes()+2)
	for _, t := range m.Tets {
		slices.Sort(t[:])
		for _, f := range faces {
			pos[int(t[f[0]])+2]++
		}
	}
	for i := 2; i < len(pos); i++ {
		pos[i] += pos[i-1]
	}
	keys := make([]uint64, 4*len(m.Tets))
	for _, t := range m.Tets {
		slices.Sort(t[:])
		for _, f := range faces {
			keys[pos[t[f[0]]+1]] = uint64(t[f[1]])<<32 | uint64(t[f[2]])
			pos[t[f[0]]+1]++
		}
	}
	// Sort each bucket and pack the keys that occur once to the front of
	// keys; pos becomes the packed offsets.
	k := 0
	for a := range m.NumNodes() {
		b := keys[pos[a]:pos[a+1]]
		slices.Sort(b)
		pos[a] = k
		for i, key := range b {
			if (i == 0 || key != b[i-1]) && (i+1 == len(b) || key != b[i+1]) {
				keys[k] = key
				k++
			}
		}
	}
	pos[m.NumNodes()] = k
	tris := make([][3]int32, 0, k)
	for a := range m.NumNodes() {
		for _, key := range keys[pos[a]:pos[a+1]] {
			tris = append(tris, [3]int32{int32(a), int32(key >> 32), int32(uint32(key))})
		}
	}
	return tris
}

// EdgeData synthesizes a deterministic per-edge double array (array k
// of the FUN3D import set): a smooth function of the edge midpoint so
// values are meaningful for the sweep kernel and reproducible.
func (m *Mesh) EdgeData(k int) []float64 {
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

// NodeData synthesizes a deterministic per-node double array (array k
// of the FUN3D import set).
func (m *Mesh) NodeData(k int) []float64 {
	out := make([]float64, m.NumNodes())
	phase := float64(k+1) * 1.3
	for i, c := range m.Coords {
		out[i] = math.Cos(phase+2*c[0]+c[1]) * (1 + c[2]*c[2])
	}
	return out
}
