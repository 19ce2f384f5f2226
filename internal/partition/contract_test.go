package partition

import (
	"fmt"
	"slices"
	"testing"

	"sdm/internal/mesh"
	"sdm/internal/sim"
)

// sameGraph fails t unless got and want have identical CSR arrays.
func sameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.XAdj, want.XAdj) || !slices.Equal(got.Adj, want.Adj) ||
		!slices.Equal(got.EWgt, want.EWgt) || !slices.Equal(got.VWgt, want.VWgt) {
		t.Fatalf("%s: graph differs from the frozen builder's (%d/%d vertices, %d/%d adjacency entries)",
			what, got.NumVertices(), want.NumVertices(), len(got.Adj), len(want.Adj))
	}
}

// randomEdges draws an edge list over n nodes with repeats, self loops,
// and pairs in either orientation and in no order.
func randomEdges(rng *sim.RNG, n, m int) (edge1, edge2 []int32) {
	for range m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		switch rng.Intn(8) {
		case 0:
			v = u // self loop
		case 1, 2:
			if k := len(edge1); k > 0 { // repeat an earlier pair, maybe reversed
				j := rng.Intn(k)
				u, v = edge1[j], edge2[j]
				if rng.Intn(2) == 0 {
					u, v = v, u
				}
			}
		}
		edge1 = append(edge1, u)
		edge2 = append(edge2, v)
	}
	return edge1, edge2
}

// TestFromEdgesMatchesFrozen: on random edge lists with duplicates,
// self loops, and reversed or unsorted pairs, the counting-sort
// FromEdges builds the map-based builder's exact XAdj, Adj and EWgt,
// one coarsening round of it matches the triple-sorting contraction
// (cmap and coarse graph), and out-of-range input fails with the same
// error text.
func TestFromEdgesMatchesFrozen(t *testing.T) {
	rng := sim.NewRNG(41)
	for trial := range 300 {
		n := 1 + rng.Intn(80)
		edge1, edge2 := randomEdges(rng, n, rng.Intn(6*n))
		what := fmt.Sprintf("trial %d (%d nodes, %d edges)", trial, n, len(edge1))
		want, err := frozenFromEdges(n, edge1, edge2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromEdges(n, edge1, edge2)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		sameGraph(t, what, got, want)

		seed := uint64(trial) + 1
		wantC, wantMap := frozenCoarsen(want, sim.NewRNG(seed), &frozenWorkspace{})
		gotC, gotMap := coarsen(got, sim.NewRNG(seed), &mlWorkspace{})
		if !slices.Equal(gotMap, wantMap) {
			t.Fatalf("%s: coarsen cmap differs", what)
		}
		sameGraph(t, what+" coarsened", gotC, wantC)
	}
	for _, bad := range [][2][]int32{
		{{0, 1, 5}, {1, 2, 0}},
		{{0, -1}, {1, 2}},
		{{0}, {1, 2}},
	} {
		_, wantErr := frozenFromEdges(5, bad[0], bad[1])
		_, gotErr := FromEdges(5, bad[0], bad[1])
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("edges %v: err %v, want %v", bad, gotErr, wantErr)
		}
	}
}

// TestPartitionVectorsMatchFrozen: the partition vectors every workload
// computes are bit-identical to the frozen builders' and partitioner's.
// FUN3D streams GenerateTetEdges's edges into FromEdgeStream (nx 8, 16,
// 32 and the lifecycle benchmark's nx 40 at 64 ranks); RT builds
// FromEdges over GenerateTet's edges (Figure 7's 32 and 64 ranks).
func TestPartitionVectorsMatchFrozen(t *testing.T) {
	type tc struct {
		app    string
		nx     int
		nparts []int
	}
	for _, c := range []tc{
		{"fun3d", 8, []int{4, 16, 64}},
		{"fun3d", 16, []int{4, 16, 64}},
		{"fun3d", 32, []int{8, 64}},
		{"fun3d", 40, []int{64}},
		{"rt", 10, []int{32, 64}},
		{"rt", 20, []int{32, 64}},
	} {
		t.Run(fmt.Sprintf("%s-nx%d", c.app, c.nx), func(t *testing.T) {
			var got, want *Graph
			var err error
			if c.app == "fun3d" {
				m, err := mesh.GenerateTetEdges(c.nx, c.nx, c.nx)
				if err != nil {
					t.Fatal(err)
				}
				stream := streamOf(m.Edge1, m.Edge2)
				if got, err = FromEdgeStream(m.NumNodes(), stream); err != nil {
					t.Fatal(err)
				}
				want, err = frozenFromEdgeStream(m.NumNodes(), stream)
			} else {
				m, err := mesh.GenerateTet(c.nx, c.nx, c.nx)
				if err != nil {
					t.Fatal(err)
				}
				if got, err = FromEdges(m.NumNodes(), m.Edge1, m.Edge2); err != nil {
					t.Fatal(err)
				}
				want, err = frozenFromEdges(m.NumNodes(), m.Edge1, m.Edge2)
			}
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, "graph", got, want)
			for _, nparts := range c.nparts {
				opts := Options{Seed: 1}
				vGot, err := Multilevel(got, nparts, opts)
				if err != nil {
					t.Fatal(err)
				}
				vWant, err := frozenMultilevel(want, nparts, opts)
				if err != nil {
					t.Fatal(err)
				}
				if i := firstDiff(vGot, vWant); i >= 0 {
					t.Fatalf("%d parts: vector differs at node %d: %d, frozen %d", nparts, i, vGot[i], vWant[i])
				}
			}
		})
	}
}

func firstDiff(a, b Vector) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestSetupAllocsConstant: building a graph and contracting it cost a
// fixed number of allocations, whatever the graph's size — a hash map
// or a per-row allocation coming back would grow the count with it.
// FromEdges allocates its bucket offsets, buckets, fill cursors, the
// three CSR arrays and the Graph (7); one coarsen round with a warmed
// workspace allocates cmap, the vertex weights, the three CSR arrays
// and the Graph (6).
func TestSetupAllocsConstant(t *testing.T) {
	for _, nx := range []int{6, 12} {
		m, err := mesh.GenerateTet(nx, nx, nx)
		if err != nil {
			t.Fatal(err)
		}
		n := m.NumNodes()
		if a := testing.AllocsPerRun(5, func() {
			if _, err := FromEdges(n, m.Edge1, m.Edge2); err != nil {
				t.Fatal(err)
			}
		}); a != 7 {
			t.Errorf("nx %d: FromEdges made %v allocations, want 7", nx, a)
		}
		g, err := FromEdges(n, m.Edge1, m.Edge2)
		if err != nil {
			t.Fatal(err)
		}
		ws := &mlWorkspace{}
		seed := *sim.NewRNG(3)
		if a := testing.AllocsPerRun(5, func() {
			rng := seed
			coarsen(g, &rng, ws)
		}); a != 6 {
			t.Errorf("nx %d: one coarsen round made %v allocations, want 6", nx, a)
		}
	}
}
