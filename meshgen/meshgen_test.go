package meshgen

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sdm/internal/mesh"
)

func TestPublicSurface(t *testing.T) {
	m, err := GenerateTet(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 4*3*3 || m.NumEdges() == 0 {
		t.Fatalf("mesh: %d nodes %d edges", m.NumNodes(), m.NumEdges())
	}
	buf, layout, err := EncodeMsh(m, [][]float64{m.EdgeData(0)}, [][]float64{m.NodeData(0)})
	if err != nil {
		t.Fatal(err)
	}
	e1, e2, ed, nd, err := mesh.DecodeMsh(buf, layout)
	if err != nil {
		t.Fatal(err)
	}
	if len(e1) != m.NumEdges() || len(e2) != m.NumEdges() {
		t.Fatal("edge arrays truncated")
	}
	if len(ed) != 1 || len(nd) != 1 {
		t.Fatal("data arrays missing")
	}
	rt := NewRT(m)
	if rt.NumTriangles() == 0 {
		t.Fatal("no boundary triangles")
	}
	if rt.MixingWidth(1) <= rt.MixingWidth(0) {
		t.Fatal("instability not growing")
	}
}

func TestPublicSweepConservation(t *testing.T) {
	m, err := GenerateTet(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := SweepSerial(m.Edge1, m.Edge2, m.EdgeData(0), m.NodeData(0), m.NumNodes())
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum) > 1e-8 {
		t.Fatalf("flux sum %g", sum)
	}
	owned := make([]bool, m.NumNodes())
	pl, ql := SweepLocal(m.Edge1, m.Edge2, m.EdgeData(0), m.NodeData(0), owned)
	for i := range pl {
		if pl[i] != 0 || ql[i] != 0 {
			t.Fatal("unowned nodes accumulated flux")
		}
	}
}

// TestPublicGridTooLarge: through the public surface too, a 1291³ grid
// is a *GridTooLargeError before anything is allocated or yielded.
func TestPublicGridTooLarge(t *testing.T) {
	const n = 1291
	calls := map[string]func() error{
		"GenerateTet": func() error {
			_, err := GenerateTet(n, n, n)
			return err
		},
	}
	for name, call := range calls {
		var big *GridTooLargeError
		err := call()
		if !errors.As(err, &big) || big.Nodes != 1292*1292*1292 {
			t.Errorf("%s(%d³) = %v, want a *GridTooLargeError of %d nodes", name, n, err, 1292*1292*1292)
		} else if !strings.Contains(err.Error(), "1291x1291x1291 grid has 2156689088 nodes") {
			t.Errorf("%s(%d³): error %q does not name the grid and its node count", name, n, err)
		}
	}
}
