package mesh

import (
	"fmt"
	"math"
	"math/bits"
)

// Mesh generation from a closed-form stencil.
//
// The Kuhn (six-tet) triangulation has a closed-form edge set: node
// (x,y,z) connects to its neighbours along the three axes, the three
// face diagonals (+1,+1,0), (0,+1,+1), (+1,0,+1), and the body
// diagonal (+1,+1,+1) — exactly the 19 intra-tet pairs of the six
// simplices, deduplicated. Walking that stencil in node-id order
// yields the unique edges in sorted order, with no tet array and no
// dedup pass; every generator in this package takes its edges from
// GenerateTetEdges, which does.

// edgeStencil is the seven positive-direction neighbour offsets of the
// Kuhn triangulation, in increasing node-id delta order (so emitting
// them per node in id order produces globally (edge1, edge2)-sorted
// edges).
var edgeStencil = [7][3]int{
	{1, 0, 0}, {0, 1, 0}, {1, 1, 0},
	{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
}

// GridTooLargeError reports a grid whose node ids would not fit the
// int32 ids every mesh array holds (more than math.MaxInt32 nodes,
// e.g. 1291³). It is returned before anything is allocated.
type GridTooLargeError struct {
	NX, NY, NZ int
	Nodes      uint64 // (nx+1)(ny+1)(nz+1), saturated at math.MaxUint64
}

func (e *GridTooLargeError) Error() string {
	return fmt.Sprintf("mesh: %dx%dx%d grid has %d nodes, more than the %d an int32 node id addresses",
		e.NX, e.NY, e.NZ, e.Nodes, math.MaxInt32)
}

// checkGrid rejects a grid dimension below 1 and a grid whose node ids
// overflow int32.
func checkGrid(nx, ny, nz int) error {
	if nx < 1 || ny < 1 || nz < 1 {
		return fmt.Errorf("mesh: grid dimensions must be >= 1, got %dx%dx%d", nx, ny, nz)
	}
	hi1, xy := bits.Mul64(uint64(nx)+1, uint64(ny)+1)
	hi2, nodes := bits.Mul64(xy, uint64(nz)+1)
	if hi1 != 0 || hi2 != 0 {
		nodes = math.MaxUint64
	}
	if nodes > math.MaxInt32 {
		return &GridTooLargeError{NX: nx, NY: ny, NZ: nz, Nodes: nodes}
	}
	return nil
}

// EdgeCount reports the number of unique edges GenerateTet(nx, ny, nz)
// produces, in closed form.
func EdgeCount(nx, ny, nz int) int64 {
	px, py, pz := int64(nx+1), int64(ny+1), int64(nz+1)
	ex, ey, ez := int64(nx), int64(ny), int64(nz)
	return ex*py*pz + px*ey*pz + ex*ey*pz + // x, y, xy-diagonal
		px*py*ez + ex*py*ez + px*ey*ez + // z, xz-, yz-diagonal
		ex*ey*ez // body diagonal
}

// GenerateTetEdges builds the mesh's coordinates and its sorted unique
// edge arrays from the stencil, in one pass over the nodes. The returned
// mesh has no Tets (GenerateTet adds them); use it for edge/node
// workloads (FUN3D) where the triangulation itself is never consumed. A
// grid of more than math.MaxInt32 nodes is a *GridTooLargeError,
// returned before anything is allocated.
func GenerateTetEdges(nx, ny, nz int) (*Mesh, error) {
	if err := checkGrid(nx, ny, nz); err != nil {
		return nil, err
	}
	px, py, pz := nx+1, ny+1, nz+1
	n := EdgeCount(nx, ny, nz)
	m := &Mesh{
		Coords: make([][3]float64, 0, px*py*pz),
		Edge1:  make([]int32, 0, n),
		Edge2:  make([]int32, 0, n),
	}
	for z := 0; z < pz; z++ {
		for y := 0; y < py; y++ {
			for x := 0; x < px; x++ {
				m.Coords = append(m.Coords, [3]float64{
					float64(x) / float64(nx),
					float64(y) / float64(ny),
					float64(z) / float64(nz),
				})
				id := int32((z*py+y)*px + x)
				for _, d := range edgeStencil {
					tx, ty, tz := x+d[0], y+d[1], z+d[2]
					if tx >= px || ty >= py || tz >= pz {
						continue
					}
					m.Edge1 = append(m.Edge1, id)
					m.Edge2 = append(m.Edge2, int32((tz*py+ty)*px+tx))
				}
			}
		}
	}
	return m, nil
}
