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
// connectivity are handled. Rows come out in ascending neighbour order:
// the normalized edges are grouped by their smaller endpoint into sorted
// buckets whose repeats become one weighted edge. Edges already in that
// form — in range, normalized (u < v), unique and sorted, as every
// generated mesh's are — are their own buckets, with no copy and no sort.
func FromEdges(nNodes int, edge1, edge2 []int32) (*Graph, error) {
	if len(edge1) != len(edge2) {
		return nil, fmt.Errorf("partition: edge1 has %d entries, edge2 %d", len(edge1), len(edge2))
	}
	// Bucket u is hi[pos[u]:pos[u+1]]; xadj[u+1] counts u's neighbours
	// until the prefix sum turns it into row u's end.
	pos := make([]int32, nNodes+2)
	xadj := make([]int32, nNodes+1)
	hi := edge2
	if !directEdges(nNodes, edge1, edge2, pos, xadj) {
		clear(pos)
		clear(xadj)
		var err error
		if hi, err = bucketEdges(nNodes, edge1, edge2, pos, xadj); err != nil {
			return nil, err
		}
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

// directEdges sets FromEdges's bucket offsets and degree counts for
// edges that are in range, normalized (u < v), unique and sorted, and
// are therefore their own buckets. At the first edge that is not, it
// stops and reports false, leaving pos and deg partly counted.
func directEdges(nNodes int, edge1, edge2, pos, deg []int32) bool {
	var prevU, prevV int32 = -1, -1
	for i := range edge1 {
		u, v := edge1[i], edge2[i]
		if u < 0 || u >= v || int(v) >= nNodes || u < prevU || (u == prevU && v <= prevV) {
			return false
		}
		prevU, prevV = u, v
		pos[u+1]++
		deg[u+1]++
		deg[v+1]++
	}
	for i := 1; i < len(pos); i++ {
		pos[i] += pos[i-1]
	}
	return true
}

// bucketEdges counting-sorts the normalized edges, self loops dropped,
// by their smaller endpoint, sorts each bucket and counts each distinct
// edge in deg. It returns the larger endpoints with pos set so that
// bucket u is hi[pos[u]:pos[u+1]].
func bucketEdges(nNodes int, edge1, edge2, pos, deg []int32) ([]int32, error) {
	// pos[u+2] counts the edges whose smaller endpoint is u; after the
	// prefix sum the placement pass advances pos[u+1] to bucket u's end.
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
	for u := range nNodes {
		b := hi[pos[u]:pos[u+1]]
		slices.Sort(b)
		eachRun(b, func(v, _ int32) {
			deg[u+1]++
			deg[v+1]++
		})
	}
	return hi, nil
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
