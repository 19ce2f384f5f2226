package mesh

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestStreamMatchesGenerateTet pins the closed-form stencil, which
// every generator takes its edges from, to the map-based dedup of the
// tetrahedra it replaced: identical edges in identical order, and
// GenerateTetEdges's mesh is GenerateTet's minus the tets.
func TestStreamMatchesGenerateTet(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {1, 6, 2}} {
		nx, ny, nz := dims[0], dims[1], dims[2]
		t.Run(fmt.Sprintf("%dx%dx%d", nx, ny, nz), func(t *testing.T) {
			full, err := GenerateTet(nx, ny, nz)
			if err != nil {
				t.Fatal(err)
			}
			ref1, ref2 := frozenBuildEdges(full.Tets)
			got, err := GenerateTetEdges(nx, ny, nz)
			if err != nil {
				t.Fatal(err)
			}
			if want := EdgeCount(nx, ny, nz); want != int64(len(ref1)) {
				t.Fatalf("EdgeCount = %d, the tets have %d", want, len(ref1))
			}
			for _, m := range []*Mesh{full, got} {
				if m.NumEdges() != len(ref1) || m.NumNodes() != full.NumNodes() {
					t.Fatalf("mesh %d nodes/%d edges, want %d/%d",
						m.NumNodes(), m.NumEdges(), full.NumNodes(), len(ref1))
				}
				for i := range ref1 {
					if m.Edge1[i] != ref1[i] || m.Edge2[i] != ref2[i] {
						t.Fatalf("edge %d = (%d,%d), want (%d,%d)",
							i, m.Edge1[i], m.Edge2[i], ref1[i], ref2[i])
					}
				}
			}
			for i := range full.Coords {
				if got.Coords[i] != full.Coords[i] {
					t.Fatalf("coord %d differs", i)
				}
			}
		})
	}
}

// TestBoundaryTrianglesMatchesFrozen pins the bucketed face count to
// the map-based one it replaced: the same faces in the same order.
func TestBoundaryTrianglesMatchesFrozen(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {1, 6, 2}, {12, 9, 7}} {
		nx, ny, nz := dims[0], dims[1], dims[2]
		t.Run(fmt.Sprintf("%dx%dx%d", nx, ny, nz), func(t *testing.T) {
			m, err := GenerateTet(nx, ny, nz)
			if err != nil {
				t.Fatal(err)
			}
			got, want := m.BoundaryTriangles(), frozenBoundaryTriangles(m.Tets)
			if len(got) != len(want) {
				t.Fatalf("%d boundary triangles, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("triangle %d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestGridTooLarge: a grid whose node ids overflow int32 is refused
// with a *GridTooLargeError naming its node count, before any
// coordinate or edge is allocated. 1291³ would otherwise allocate tens
// of GB of coordinates and edges with wrapped ids.
func TestGridTooLarge(t *testing.T) {
	const n = 1291
	const nodes = uint64(n+1) * (n + 1) * (n + 1)
	check := func(t *testing.T, err error) {
		t.Helper()
		var big *GridTooLargeError
		if !errors.As(err, &big) {
			t.Fatalf("err = %v, want a *GridTooLargeError", err)
		}
		if big.Nodes != nodes || !strings.Contains(err.Error(), fmt.Sprint(nodes)) {
			t.Fatalf("error %q (Nodes %d) does not name the %d nodes", err, big.Nodes, nodes)
		}
	}
	t.Run("GenerateTetEdges", func(t *testing.T) {
		m, err := GenerateTetEdges(n, n, n)
		if m != nil {
			t.Fatal("a mesh was returned")
		}
		check(t, err)
	})
	t.Run("GenerateTet", func(t *testing.T) {
		m, err := GenerateTet(n, n, n)
		if m != nil {
			t.Fatal("a mesh was returned")
		}
		check(t, err)
	})
	// The bound is exact: 1290³ cells have 1291³ > MaxInt32 nodes, 1289³
	// cells 1290³ < MaxInt32; a dimension overflowing uint64 saturates.
	if err := checkGrid(1289, 1289, 1289); err != nil {
		t.Fatalf("1289³: %v", err)
	}
	if err := checkGrid(1290, 1290, 1290); err == nil {
		t.Fatal("1290³ accepted")
	}
	var big *GridTooLargeError
	if err := checkGrid(math.MaxInt, math.MaxInt, 1); !errors.As(err, &big) || big.Nodes != math.MaxUint64 {
		t.Fatalf("MaxInt² grid: %v", err)
	}
}

// TestStreamPaperScale builds the paper-scale nx=128 grid (~15M edges):
// the count must match the closed form and the edges must be sorted and
// in range. Gated out of -short so the ordinary test cycle stays fast.
func TestStreamPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale mesh (nx=128) skipped in -short")
	}
	const nx = 128
	m, err := GenerateTetEdges(nx, nx, nx)
	if err != nil {
		t.Fatal(err)
	}
	nNodes := int32(m.NumNodes())
	e1, e2 := m.Edge1, m.Edge2
	for i := range e1 {
		if i > 0 && (e1[i] < e1[i-1] || (e1[i] == e1[i-1] && e2[i] <= e2[i-1])) {
			t.Fatalf("edges unsorted at %d: (%d,%d) after (%d,%d)", i, e1[i], e2[i], e1[i-1], e2[i-1])
		}
		if e1[i] >= e2[i] || e2[i] >= nNodes {
			t.Fatalf("edge (%d,%d) malformed", e1[i], e2[i])
		}
	}
	n := int64(len(e1))
	if want := EdgeCount(nx, nx, nx); n != want || int64(len(e2)) != want {
		t.Fatalf("%d/%d edges, closed form says %d", n, len(e2), want)
	}
	if n < 14_000_000 {
		t.Fatalf("paper-scale mesh has only %d edges", n)
	}
}

// TestBoundaryTrianglesAllocsConstant: the face count costs a fixed
// number of allocations whatever the mesh's size — its bucket offsets,
// its face keys and the result (3). A hash map or a per-bucket
// allocation coming back would grow the count with the mesh.
func TestBoundaryTrianglesAllocsConstant(t *testing.T) {
	for _, nx := range []int{3, 9} {
		m, err := GenerateTet(nx, nx, nx)
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(5, func() { m.BoundaryTriangles() }); a != 3 {
			t.Errorf("nx %d: BoundaryTriangles made %v allocations, want 3", nx, a)
		}
	}
}
