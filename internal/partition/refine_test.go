package partition

import (
	"fmt"
	"testing"

	"sdm/internal/sim"
)

// irregularGraph draws a graph over n vertices made of several
// components of mostly local edges (so parts have boundaries worth
// refining) with long edges inside each component, repeated edges that
// merge into heavier ones, and every 19th vertex isolated.
func irregularGraph(t *testing.T, rng *sim.RNG, n int) *Graph {
	t.Helper()
	var edge1, edge2 []int32
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(n/2+1))
		size := hi - lo
		for range 3 * size {
			u := lo + rng.Intn(size)
			v := u + 1 + rng.Intn(4)
			switch rng.Intn(8) {
			case 0:
				v = lo + rng.Intn(size) // a long edge
			case 1:
				if k := len(edge1); k > 0 { // repeat an earlier edge
					j := rng.Intn(k)
					u, v = int(edge1[j]), int(edge2[j])
				}
			}
			if v < hi && u%19 != 7 && v%19 != 7 {
				edge1 = append(edge1, int32(u))
				edge2 = append(edge2, int32(v))
			}
		}
		lo = hi
	}
	g, err := FromEdges(n, edge1, edge2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMultilevelMatchesFrozenOnIrregularGraphs: on random graphs with
// isolated vertices, several components and weighted repeated edges,
// the boundary-only refinement and the transposing contraction give the
// frozen partitioner's vectors at every part count.
func TestMultilevelMatchesFrozenOnIrregularGraphs(t *testing.T) {
	rng := sim.NewRNG(53)
	for trial := range 12 {
		n := 200 + rng.Intn(4000)
		g := irregularGraph(t, rng, n)
		for _, nparts := range []int{2, 3, 7, 16, 64} {
			opts := Options{Seed: uint64(trial) + 1}
			got, err := Multilevel(g, nparts, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := frozenMultilevel(g, nparts, opts)
			if err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("trial %d (%d vertices, %d edges), %d parts: vector differs at node %d: %d, frozen %d",
					trial, n, g.NumEdges(), nparts, i, got[i], want[i])
			}
		}
	}
}

// TestSettledStatesHold drives Multilevel's phases one refinement pass
// at a time and checks, after every pass and every projection, the
// states that let a pass skip a vertex: no vertex marked interior has a
// neighbour in another part, and no vertex marked noGain has a
// neighbouring part it would gain by joining. It also requires that
// the runs did mark vertices with both states, and that each driven run
// ends on Multilevel's vector.
func TestSettledStatesHold(t *testing.T) {
	rng := sim.NewRNG(23)
	settled := map[vertexState]int{}
	for trial := range 6 {
		n := 500 + rng.Intn(3000)
		g := irregularGraph(t, rng, n)
		for _, nparts := range []int{2, 5, 16} {
			what := fmt.Sprintf("trial %d (%d vertices), %d parts", trial, n, nparts)
			ws := &mlWorkspace{state: make([]vertexState, n)}
			check := func(g *Graph, part Vector, after string) {
				t.Helper()
				for u := range int32(g.NumVertices()) {
					st := ws.state[u]
					if st == unsettled {
						continue
					}
					settled[st]++
					conn := map[int32]int64{}
					for i := g.XAdj[u]; i < g.XAdj[u+1]; i++ {
						conn[part[g.Adj[i]]] += int64(g.ewgt(i))
					}
					for pv, c := range conn {
						if pv == part[u] {
							continue
						}
						if st == interior {
							t.Fatalf("%s: after %s, vertex %d is marked interior in part %d and has a neighbour in part %d",
								what, after, u, part[u], pv)
						}
						if c > conn[part[u]] {
							t.Fatalf("%s: after %s, vertex %d is marked noGain and gains %d by joining part %d",
								what, after, u, c-conn[part[u]], pv)
						}
					}
				}
			}
			passes := func(g *Graph, part Vector, lv int) {
				maxW := partWeights(g, part, nparts, ws)
				for pass := range refinePasses {
					moved := refinePass(g, part, maxW, ws)
					check(g, part, fmt.Sprintf("level %d pass %d", lv, pass))
					if moved == 0 {
						break
					}
				}
			}
			r := sim.NewRNG(1)
			levels, cur := coarsenAll(g, nparts, r, ws)
			part := growPartition(cur, nparts, r, ws)
			clear(ws.state)
			passes(cur, part, len(levels))
			for i := len(levels) - 1; i >= 0; i-- {
				part = uncoarsen(levels[i], part, ws)
				check(levels[i].finer, part, fmt.Sprintf("projection to level %d", i))
				passes(levels[i].finer, part, i)
			}
			want, err := Multilevel(g, nparts, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(part, want); i >= 0 {
				t.Fatalf("%s: driven phases differ from Multilevel at node %d", what, i)
			}
		}
	}
	if settled[interior] == 0 || settled[noGain] == 0 {
		t.Fatalf("settled states seen %v, want both", settled)
	}
}
