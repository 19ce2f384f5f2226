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
// coordinate is allocated or any edge yielded. 1291³ would otherwise
// allocate tens of GB of coordinates, or stream wrapped ids.
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
	t.Run("StreamTetEdges", func(t *testing.T) {
		err := StreamTetEdges(n, n, n, 0, func(e1, e2 []int32) error {
			t.Fatal("an edge was yielded")
			return nil
		})
		check(t, err)
	})
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

// TestStreamBlocksAndAbort checks block sizing and early abort.
func TestStreamBlocksAndAbort(t *testing.T) {
	var blocks, edges int
	err := StreamTetEdges(3, 3, 3, 7, func(e1, e2 []int32) error {
		if len(e1) != len(e2) || len(e1) == 0 || len(e1) > 7 {
			t.Fatalf("bad block size %d/%d", len(e1), len(e2))
		}
		blocks++
		edges += len(e1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(edges) != EdgeCount(3, 3, 3) {
		t.Fatalf("streamed %d edges, want %d", edges, EdgeCount(3, 3, 3))
	}
	if blocks < 2 {
		t.Fatalf("expected multiple blocks, got %d", blocks)
	}
	wantErr := fmt.Errorf("stop")
	calls := 0
	err = StreamTetEdges(3, 3, 3, 7, func(e1, e2 []int32) error {
		calls++
		return wantErr
	})
	if err != wantErr || calls != 1 {
		t.Fatalf("abort: err=%v calls=%d", err, calls)
	}
}

// TestStreamPaperScale runs the paper-scale nx=128 grid (~15M edges)
// through the stream in O(block) memory: the count must match the
// closed form and the stream must stay sorted and in range. Gated out
// of -short so the ordinary test cycle stays fast.
func TestStreamPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale mesh stream (nx=128) skipped in -short")
	}
	const nx = 128
	nNodes := int64(nx+1) * (nx + 1) * (nx + 1)
	var n int64
	var prev1, prev2 int32 = -1, -1
	err := StreamTetEdges(nx, nx, nx, 1<<20, func(e1, e2 []int32) error {
		for i := range e1 {
			if e1[i] < prev1 || (e1[i] == prev1 && e2[i] <= prev2) {
				return fmt.Errorf("stream unsorted at edge %d: (%d,%d) after (%d,%d)",
					n+int64(i), e1[i], e2[i], prev1, prev2)
			}
			if e1[i] >= e2[i] || int64(e2[i]) >= nNodes {
				return fmt.Errorf("edge (%d,%d) malformed", e1[i], e2[i])
			}
			prev1, prev2 = e1[i], e2[i]
		}
		n += int64(len(e1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := EdgeCount(nx, nx, nx); n != want {
		t.Fatalf("streamed %d edges, closed form says %d", n, want)
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
