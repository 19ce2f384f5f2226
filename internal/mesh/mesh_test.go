package mesh

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateTetCounts(t *testing.T) {
	m, err := GenerateTet(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.NumNodes(), 3*4*5; got != want {
		t.Fatalf("nodes = %d, want %d", got, want)
	}
	if got, want := len(m.Tets), 6*2*3*4; got != want {
		t.Fatalf("tets = %d, want %d", got, want)
	}
	if m.NumEdges() == 0 {
		t.Fatal("no edges")
	}
}

func TestGenerateTetValidation(t *testing.T) {
	if _, err := GenerateTet(0, 1, 1); err == nil {
		t.Fatal("invalid dimensions accepted")
	}
}

func TestEdgesNormalizedUniqueSorted(t *testing.T) {
	m, _ := GenerateTet(3, 3, 3)
	for i := range m.Edge1 {
		if m.Edge1[i] >= m.Edge2[i] {
			t.Fatalf("edge %d not normalized: (%d,%d)", i, m.Edge1[i], m.Edge2[i])
		}
		if i > 0 {
			prev := [2]int32{m.Edge1[i-1], m.Edge2[i-1]}
			cur := [2]int32{m.Edge1[i], m.Edge2[i]}
			if prev == cur {
				t.Fatalf("duplicate edge at %d", i)
			}
			if prev[0] > cur[0] || (prev[0] == cur[0] && prev[1] >= cur[1]) {
				t.Fatalf("edges not sorted at %d", i)
			}
		}
		n := int32(m.NumNodes())
		if m.Edge1[i] < 0 || m.Edge2[i] >= n {
			t.Fatalf("edge %d out of range", i)
		}
	}
}

func TestEdgeCountMatchesEulerishBound(t *testing.T) {
	// For the Kuhn 6-tet decomposition of an n^3 grid the edge count is
	// known in closed form: grid edges + face diagonals (2 per face) +
	// one body diagonal per hex... verify against a direct small case.
	m, _ := GenerateTet(1, 1, 1)
	// 8 nodes; 12 cube edges + 6 face diagonals + 1 body diagonal = 19.
	if m.NumEdges() != 19 {
		t.Fatalf("unit cube edges = %d, want 19", m.NumEdges())
	}
}

func TestBoundaryTriangles(t *testing.T) {
	m, _ := GenerateTet(2, 2, 2)
	tris := m.BoundaryTriangles()
	// Each boundary quad face splits into 2 triangles; 6 faces of 2x2
	// quads = 24 quads = 48 triangles.
	if len(tris) != 48 {
		t.Fatalf("boundary triangles = %d, want 48", len(tris))
	}
	// All triangle nodes must be on the cube surface.
	for _, tri := range tris {
		for _, n := range tri {
			c := m.Coords[n]
			onSurface := false
			for _, v := range c {
				if v == 0 || v == 1 {
					onSurface = true
				}
			}
			if !onSurface {
				t.Fatalf("triangle node %d at %v not on surface", n, c)
			}
		}
	}
}

func TestMshRoundTrip(t *testing.T) {
	m, _ := GenerateTet(2, 2, 2)
	edgeData := [][]float64{m.EdgeData(0), m.EdgeData(1)}
	nodeData := [][]float64{m.NodeData(0)}
	buf, layout, err := EncodeMsh(m, edgeData, nodeData)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(buf)) != layout.TotalSize() {
		t.Fatalf("buffer %d bytes, layout %d", len(buf), layout.TotalSize())
	}
	e1, e2, ed, nd, err := DecodeMsh(buf, layout)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e1 {
		if e1[i] != m.Edge1[i] || e2[i] != m.Edge2[i] {
			t.Fatalf("edge %d mismatch", i)
		}
	}
	for k := range ed {
		for i := range ed[k] {
			if ed[k][i] != edgeData[k][i] {
				t.Fatalf("edge data [%d][%d] mismatch", k, i)
			}
		}
	}
	if nd[0][5] != nodeData[0][5] {
		t.Fatal("node data mismatch")
	}
}

func TestMshLayoutOffsets(t *testing.T) {
	l := MshLayout{NumEdges: 10, NumNodes: 4, EdgeArrays: 2, NodeArrays: 3}
	if l.Edge1Offset() != 0 || l.Edge2Offset() != 40 {
		t.Fatalf("edge offsets %d, %d", l.Edge1Offset(), l.Edge2Offset())
	}
	if l.EdgeDataOffset(0) != 80 || l.EdgeDataOffset(1) != 160 {
		t.Fatalf("edge data offsets %d, %d", l.EdgeDataOffset(0), l.EdgeDataOffset(1))
	}
	if l.NodeDataOffset(0) != 240 || l.NodeDataOffset(2) != 304 {
		t.Fatalf("node data offsets %d, %d", l.NodeDataOffset(0), l.NodeDataOffset(2))
	}
	if l.TotalSize() != 336 {
		t.Fatalf("total = %d", l.TotalSize())
	}
}

func TestDecodeMshShortBuffer(t *testing.T) {
	l := MshLayout{NumEdges: 10, NumNodes: 4, EdgeArrays: 1, NodeArrays: 1}
	if _, _, _, _, err := DecodeMsh(make([]byte, 10), l); err == nil {
		t.Fatal("short buffer accepted")
	}
}

// FuzzDecodeMsh feeds DecodeMsh hostile layouts — negative counts,
// products that wrap int64, more arrays than bytes — over arbitrary
// bytes. It must never panic, and every layout it accepts must
// round-trip: EncodeMsh of what it decoded is the layout and the
// layout's prefix of the bytes.
func FuzzDecodeMsh(f *testing.F) {
	m, _ := GenerateTet(1, 1, 1)
	buf, l, err := EncodeMsh(m, [][]float64{m.EdgeData(0)}, [][]float64{m.NodeData(0)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf, l.NumEdges, l.NumNodes, l.EdgeArrays, l.NodeArrays)
	f.Add(buf, l.NumEdges-1, l.NumNodes, l.EdgeArrays, l.NodeArrays+1)
	f.Add(buf, int64(-1), l.NumNodes, l.EdgeArrays, l.NodeArrays)
	f.Add(buf, l.NumEdges, l.NumNodes, -1, l.NodeArrays)
	f.Add([]byte{}, int64(1)<<61, int64(0), 0, 0)     // 8·NumEdges wraps to 0
	f.Add([]byte{}, int64(0), int64(1)<<60, 0, 2)     // 2·8·NumNodes wraps to 0
	f.Add([]byte{}, int64(0), int64(0), 1<<40, 1<<40) // empty arrays, no bytes
	f.Fuzz(func(t *testing.T, buf []byte, numEdges, numNodes int64, edgeArrays, nodeArrays int) {
		l := MshLayout{NumEdges: numEdges, NumNodes: numNodes, EdgeArrays: edgeArrays, NodeArrays: nodeArrays}
		e1, e2, ed, nd, err := DecodeMsh(buf, l)
		if err != nil {
			return
		}
		if l.NumNodes > int64(len(buf)) {
			return // a node count no array spans: building its mesh would cost memory the input did not
		}
		m := &Mesh{Coords: make([][3]float64, l.NumNodes), Edge1: e1, Edge2: e2}
		out, got, err := EncodeMsh(m, ed, nd)
		if err != nil {
			t.Fatalf("accepted layout %+v does not re-encode: %v", l, err)
		}
		if got != l {
			t.Fatalf("layout %+v re-encodes as %+v", l, got)
		}
		if !bytes.Equal(out, buf[:l.TotalSize()]) {
			t.Fatalf("layout %+v: re-encoded bytes differ from the input's first %d", l, l.TotalSize())
		}
	})
}

func TestEncodeMshValidatesLengths(t *testing.T) {
	m, _ := GenerateTet(1, 1, 1)
	if _, _, err := EncodeMsh(m, [][]float64{{1, 2}}, nil); err == nil {
		t.Fatal("wrong edge array length accepted")
	}
	if _, _, err := EncodeMsh(m, nil, [][]float64{{1}}); err == nil {
		t.Fatal("wrong node array length accepted")
	}
}

func TestSweepPartitionedMatchesSerial(t *testing.T) {
	m, _ := GenerateTet(3, 3, 3)
	x := m.EdgeData(0)
	y := m.NodeData(0)
	nNodes := m.NumNodes()
	pRef, qRef := SweepSerial(m.Edge1, m.Edge2, x, y, nNodes)

	// Partition nodes into 3 parts round-robin; build each part's local
	// subdomain with ghost edges exactly as SDM does: an edge belongs to
	// every part owning at least one endpoint.
	const nparts = 3
	part := make([]int32, nNodes)
	for i := range part {
		part[i] = int32(i % nparts)
	}
	pSum := make([]float64, nNodes)
	qSum := make([]float64, nNodes)
	for pr := int32(0); pr < nparts; pr++ {
		// Collect local nodes (owned + ghosts) and local edges.
		g2l := make(map[int32]int32)
		var l2g []int32
		local := func(g int32) int32 {
			if l, ok := g2l[g]; ok {
				return l
			}
			l := int32(len(l2g))
			g2l[g] = l
			l2g = append(l2g, g)
			return l
		}
		var le1, le2 []int32
		var lx []float64
		for e := range m.Edge1 {
			u, v := m.Edge1[e], m.Edge2[e]
			if part[u] == pr || part[v] == pr {
				le1 = append(le1, local(u))
				le2 = append(le2, local(v))
				lx = append(lx, x[e])
			}
		}
		ly := make([]float64, len(l2g))
		owned := make([]bool, len(l2g))
		for l, g := range l2g {
			ly[l] = y[g]
			owned[l] = part[g] == pr
		}
		p, q := SweepLocal(le1, le2, lx, ly, owned)
		for l, g := range l2g {
			if owned[l] {
				pSum[g] += p[l]
				qSum[g] += q[l]
			}
		}
	}
	for i := 0; i < nNodes; i++ {
		if math.Abs(pSum[i]-pRef[i]) > 1e-9 || math.Abs(qSum[i]-qRef[i]) > 1e-9 {
			t.Fatalf("node %d: partitioned (%g,%g) vs serial (%g,%g)",
				i, pSum[i], qSum[i], pRef[i], qRef[i])
		}
	}
}

func TestSweepConservation(t *testing.T) {
	// The antisymmetric flux must cancel: sum(p) == 0.
	m, _ := GenerateTet(4, 4, 4)
	p, _ := SweepSerial(m.Edge1, m.Edge2, m.EdgeData(0), m.NodeData(0), m.NumNodes())
	var total float64
	for _, v := range p {
		total += v
	}
	if math.Abs(total) > 1e-8 {
		t.Fatalf("flux sum = %g, want ~0", total)
	}
}

func TestRTDatasets(t *testing.T) {
	m, _ := GenerateTet(4, 4, 4)
	rt := NewRT(m)
	if rt.NumTriangles() == 0 {
		t.Fatal("no boundary triangles")
	}
	nd := rt.NodeDataset(0)
	td := rt.TriangleDataset(0)
	if len(nd) != m.NumNodes() || len(td) != rt.NumTriangles() {
		t.Fatalf("sizes %d/%d", len(nd), len(td))
	}
	// Densities bounded by the two fluids.
	for _, v := range nd {
		if v < 0.5-1e-9 || v > 1.5+1e-9 {
			t.Fatalf("density %g out of [0.5, 1.5]", v)
		}
	}
	// Heavy fluid on top at t=0: node at z=1 denser than node at z=0.
	var topV, botV float64
	for i, c := range m.Coords {
		if c[0] == 0 && c[1] == 0 && c[2] == 0 {
			botV = nd[i]
		}
		if c[0] == 0 && c[1] == 0 && c[2] == 1 {
			topV = nd[i]
		}
	}
	if topV <= botV {
		t.Fatalf("top density %g <= bottom %g", topV, botV)
	}
	// Instability grows monotonically in the diagnostic.
	if rt.MixingWidth(1) <= rt.MixingWidth(0) {
		t.Fatal("mixing width did not grow")
	}
	// Determinism.
	nd2 := rt.NodeDataset(0)
	for i := range nd {
		if nd[i] != nd2[i] {
			t.Fatal("RT dataset not deterministic")
		}
	}
}

func TestPutGetRoundTripProperty(t *testing.T) {
	f := func(ints []int32, floats []float64) bool {
		bi := make([]byte, len(ints)*4)
		PutInt32s(bi, ints)
		gi := GetInt32s(bi, len(ints))
		for i := range ints {
			if gi[i] != ints[i] {
				return false
			}
		}
		bf := make([]byte, len(floats)*8)
		PutFloat64s(bf, floats)
		gf := GetFloat64s(bf, len(floats))
		for i := range floats {
			if gf[i] != floats[i] && !(math.IsNaN(gf[i]) && math.IsNaN(floats[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every tet's nodes are in range and every edge appears in
// some tet, for random grid sizes.
func TestMeshConsistencyProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		nx, ny, nz := int(a%3)+1, int(b%3)+1, int(c%3)+1
		m, err := GenerateTet(nx, ny, nz)
		if err != nil {
			return false
		}
		n := int32(m.NumNodes())
		for _, tet := range m.Tets {
			for _, v := range tet {
				if v < 0 || v >= n {
					return false
				}
			}
		}
		// Edges referenced by tets must all exist in the edge list.
		type pair struct{ a, b int32 }
		set := make(map[pair]bool, m.NumEdges())
		for i := range m.Edge1 {
			set[pair{m.Edge1[i], m.Edge2[i]}] = true
		}
		for _, tet := range m.Tets {
			for i := 0; i < 4; i++ {
				for j := i + 1; j < 4; j++ {
					x, y := tet[i], tet[j]
					if x > y {
						x, y = y, x
					}
					if !set[pair{x, y}] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
