package partition

import (
	"fmt"
	"testing"

	"sdm/internal/mesh"
	"sdm/internal/sim"
)

func streamOf(edge1, edge2 []int32) func(func(u, v int32) error) error {
	return func(yield func(u, v int32) error) error {
		for i := range edge1 {
			if err := yield(edge1[i], edge2[i]); err != nil {
				return err
			}
		}
		return nil
	}
}

// takesDirectPath reports whether FromEdges takes its direct path for the edges.
func takesDirectPath(nNodes int, edge1, edge2 []int32) bool {
	return directEdges(nNodes, edge1, edge2, make([]int32, nNodes+2), make([]int32, nNodes+1))
}

// TestFromEdgeStreamMatchesFromEdges: FromEdges builds the frozen edge
// stream builder's graph from a generated mesh's edges, which take the
// direct path, and from the same edges shuffled with some written as
// (v, u), which take the checked one; both give the same multilevel
// partition.
func TestFromEdgeStreamMatchesFromEdges(t *testing.T) {
	m, err := mesh.GenerateTet(6, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumNodes()
	if !takesDirectPath(n, m.Edge1, m.Edge2) {
		t.Fatal("a generated mesh's edges are not in the direct path's form")
	}
	direct, err := FromEdges(n, m.Edge1, m.Edge2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := frozenFromEdgeStream(n, streamOf(m.Edge1, m.Edge2))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, "sorted", direct, want)

	rng := sim.NewRNG(5)
	e1 := append([]int32(nil), m.Edge1...)
	e2 := append([]int32(nil), m.Edge2...)
	for i := len(e1) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		e1[i], e1[j] = e1[j], e1[i]
		e2[i], e2[j] = e2[j], e2[i]
		if rng.Intn(3) == 0 {
			e1[i], e2[i] = e2[i], e1[i]
		}
	}
	if takesDirectPath(n, e1, e2) {
		t.Fatal("the permuted edges are in the direct path's form")
	}
	checked, err := FromEdges(n, e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, "permuted", checked, want)

	vDirect, err := Multilevel(direct, 4, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	vChecked, err := Multilevel(checked, 4, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range vDirect {
		if vChecked[i] != vDirect[i] {
			t.Fatalf("partition vector diverges at node %d: %d vs %d", i, vChecked[i], vDirect[i])
		}
	}
}

// TestFromEdgeStreamValidation: edges outside the stream form (in
// range, normalized, unique and sorted) fail the direct path's check
// and go through the checked builder — out-of-range edges fail with its
// error, self loops drop and repeats merge into one weighted edge
// exactly as the frozen map builder does.
func TestFromEdgeStreamValidation(t *testing.T) {
	cases := []struct {
		name         string
		edge1, edge2 []int32
	}{
		{"out-of-range", []int32{0, 1}, []int32{1, 9}},
		{"negative", []int32{-1}, []int32{2}},
		{"self-loop", []int32{0, 2}, []int32{1, 2}},
		{"unnormalized", []int32{0, 3}, []int32{1, 1}},
		{"unsorted", []int32{1, 0}, []int32{2, 1}},
		{"duplicate", []int32{0, 0}, []int32{1, 1}},
	}
	for _, c := range cases {
		if takesDirectPath(4, c.edge1, c.edge2) {
			t.Errorf("%s: taken for the direct path", c.name)
		}
		want, wantErr := frozenFromEdges(4, c.edge1, c.edge2)
		got, gotErr := FromEdges(4, c.edge1, c.edge2)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: err %v, want %v", c.name, gotErr, wantErr)
			continue
		}
		if wantErr == nil {
			sameGraph(t, c.name, got, want)
		}
	}
}
