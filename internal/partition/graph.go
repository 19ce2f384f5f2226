// Package partition generates the partitioning vector irregular
// applications feed SDM. The paper assumes the vector comes from MeTis;
// this package implements the same contract from scratch: a multilevel
// graph partitioner (heavy-edge matching coarsening, greedy graph
// growing initial partition, boundary Kernighan–Lin/FM refinement) plus
// block and random baselines, and the quality metrics (edge cut,
// balance) needed to validate it.
package partition

import (
	"fmt"
	"slices"
)

// Graph is an undirected graph in compressed sparse row form. Vertex v
// has neighbours Adj[XAdj[v]:XAdj[v+1]] with matching EWgt entries.
type Graph struct {
	XAdj []int32 // length n+1
	Adj  []int32
	VWgt []int32 // vertex weights; nil means all 1
	EWgt []int32 // edge weights; nil means all 1
}

// NumVertices reports the vertex count.
func (g *Graph) NumVertices() int { return len(g.XAdj) - 1 }

// NumEdges reports the undirected edge count (each edge stored twice).
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// vwgt returns v's weight.
func (g *Graph) vwgt(v int32) int32 {
	if g.VWgt == nil {
		return 1
	}
	return g.VWgt[v]
}

// ewgt returns the weight of adjacency slot i.
func (g *Graph) ewgt(i int32) int32 {
	if g.EWgt == nil {
		return 1
	}
	return g.EWgt[i]
}

// TotalVWgt sums all vertex weights.
func (g *Graph) TotalVWgt() int64 {
	var t int64
	if g.VWgt == nil {
		return int64(g.NumVertices())
	}
	for _, w := range g.VWgt {
		t += int64(w)
	}
	return t
}

// FromEdges builds a CSR graph over nNodes vertices from an edge list
// (the mesh's edge1/edge2 arrays). Self loops are dropped and duplicate
// edges merge with accumulated weight, so irregular meshes with repeated
// connectivity are handled. The normalized edges are counting-sorted by
// their smaller endpoint; each bucket is sorted and its repeats become
// one weighted edge, so rows come out in ascending neighbour order.
func FromEdges(nNodes int, edge1, edge2 []int32) (*Graph, error) {
	if len(edge1) != len(edge2) {
		return nil, fmt.Errorf("partition: edge1 has %d entries, edge2 %d", len(edge1), len(edge2))
	}
	// pos[u+2] counts the edges whose smaller endpoint is u; after the
	// prefix sum and the placement pass, bucket u is hi[pos[u]:pos[u+1]].
	pos := make([]int32, nNodes+2)
	for i := range edge1 {
		u, v := edge1[i], edge2[i]
		if u < 0 || v < 0 || int(u) >= nNodes || int(v) >= nNodes {
			return nil, fmt.Errorf("partition: edge %d (%d,%d) out of range [0,%d)", i, u, v, nNodes)
		}
		if u != v {
			pos[int(min(u, v))+2]++
		}
	}
	for i := 2; i < len(pos); i++ {
		pos[i] += pos[i-1]
	}
	hi := make([]int32, pos[nNodes+1])
	for i := range edge1 {
		u, v := edge1[i], edge2[i]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		hi[pos[u+1]] = v
		pos[u+1]++
	}
	xadj := make([]int32, nNodes+1)
	for u := range nNodes {
		b := hi[pos[u]:pos[u+1]]
		slices.Sort(b)
		eachRun(b, func(v, _ int32) {
			xadj[u+1]++
			xadj[v+1]++
		})
	}
	for i := 0; i < nNodes; i++ {
		xadj[i+1] += xadj[i]
	}
	adj := make([]int32, xadj[nNodes])
	ewgt := make([]int32, xadj[nNodes])
	fill := make([]int32, nNodes)
	for u := range int32(nNodes) {
		eachRun(hi[pos[u]:pos[u+1]], func(v, w int32) {
			adj[xadj[u]+fill[u]] = v
			ewgt[xadj[u]+fill[u]] = w
			fill[u]++
			adj[xadj[v]+fill[v]] = u
			ewgt[xadj[v]+fill[v]] = w
			fill[v]++
		})
	}
	return &Graph{XAdj: xadj, Adj: adj, EWgt: ewgt}, nil
}

// eachRun calls fn with each distinct value of the sorted slice b and
// the number of times it occurs.
func eachRun(b []int32, fn func(v, n int32)) {
	for i := 0; i < len(b); {
		j := i + 1
		for j < len(b) && b[j] == b[i] {
			j++
		}
		fn(b[i], int32(j-i))
		i = j
	}
}

// FromEdgeStream builds a CSR graph from an edge stream invoked twice
// (a degree-counting pass, then a fill pass), so paper-scale meshes
// partition without sorting or copying the edge arrays. The stream must
// produce unique normalized edges (u < v) in increasing (u, v) order —
// what mesh.StreamTetEdges and every generated mesh's edge arrays
// provide — and must be deterministic across the two passes. The result
// is identical to FromEdges over the same edges.
func FromEdgeStream(nNodes int, stream func(yield func(u, v int32) error) error) (*Graph, error) {
	deg := make([]int32, nNodes)
	var prevU, prevV int32 = -1, -1
	count := func(u, v int32) error {
		if u < 0 || v < 0 || int(u) >= nNodes || int(v) >= nNodes {
			return fmt.Errorf("partition: edge (%d,%d) out of range [0,%d)", u, v, nNodes)
		}
		if u >= v {
			return fmt.Errorf("partition: edge stream must be normalized (u < v), got (%d,%d)", u, v)
		}
		if u < prevU || (u == prevU && v <= prevV) {
			return fmt.Errorf("partition: edge stream not sorted/unique at (%d,%d)", u, v)
		}
		prevU, prevV = u, v
		deg[u]++
		deg[v]++
		return nil
	}
	if err := stream(count); err != nil {
		return nil, err
	}
	xadj := make([]int32, nNodes+1)
	for i := 0; i < nNodes; i++ {
		xadj[i+1] = xadj[i] + deg[i]
	}
	adj := make([]int32, xadj[nNodes])
	ewgt := make([]int32, xadj[nNodes])
	fill := make([]int32, nNodes)
	edges := int64(xadj[nNodes]) / 2
	var seen int64
	fillOne := func(u, v int32) error {
		seen++
		if seen > edges {
			return fmt.Errorf("partition: edge stream grew between passes")
		}
		adj[xadj[u]+fill[u]] = v
		ewgt[xadj[u]+fill[u]] = 1
		fill[u]++
		adj[xadj[v]+fill[v]] = u
		ewgt[xadj[v]+fill[v]] = 1
		fill[v]++
		return nil
	}
	if err := stream(fillOne); err != nil {
		return nil, err
	}
	if seen != edges {
		return nil, fmt.Errorf("partition: edge stream shrank between passes (%d of %d edges)", seen, edges)
	}
	return &Graph{XAdj: xadj, Adj: adj, EWgt: ewgt}, nil
}

// Vector is a partitioning vector: Vector[node] is the rank the node is
// assigned to. This is the structure the paper requires to be
// "replicated among processes".
type Vector []int32

// Counts tallies nodes per part.
func (v Vector) Counts(nparts int) []int64 {
	counts := make([]int64, nparts)
	for _, p := range v {
		counts[p]++
	}
	return counts
}

// Validate checks every assignment is within [0, nparts).
func (v Vector) Validate(nparts int) error {
	for i, p := range v {
		if p < 0 || int(p) >= nparts {
			return fmt.Errorf("partition: node %d assigned to invalid part %d", i, p)
		}
	}
	return nil
}

// EdgeCut counts the total weight of edges crossing part boundaries.
func EdgeCut(g *Graph, v Vector) int64 {
	var cut int64
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for i := g.XAdj[u]; i < g.XAdj[u+1]; i++ {
			w := g.Adj[i]
			if v[u] != v[w] {
				cut += int64(g.ewgt(i))
			}
		}
	}
	return cut / 2 // every crossing counted from both sides
}

// Balance reports max part weight divided by average part weight
// (1.0 is perfect).
func Balance(g *Graph, v Vector, nparts int) float64 {
	if nparts <= 0 || len(v) == 0 {
		return 1
	}
	weights := make([]int64, nparts)
	for node, p := range v {
		weights[p] += int64(g.vwgt(int32(node)))
	}
	var max, total int64
	for _, w := range weights {
		total += w
		if w > max {
			max = w
		}
	}
	avg := float64(total) / float64(nparts)
	if avg == 0 {
		return 1
	}
	return float64(max) / avg
}
