// Package partitioner generates the node partitioning vectors SDM's
// irregular import and index distribution are driven by — the role
// MeTis plays in the paper. It re-exports the multilevel graph
// partitioner in internal/partition as stable public API.
package partitioner

import (
	"sdm/internal/partition"
)

// Graph is an undirected graph in CSR form.
type Graph = partition.Graph

// Vector assigns each node a rank; it must be replicated on all
// processes before SDM partitions indexes with it.
type Vector = partition.Vector

// Options tunes the multilevel partitioner.
type Options = partition.Options

// FromEdges builds a graph over nNodes vertices from a mesh's
// edge1/edge2 arrays (self loops dropped, duplicates merged).
func FromEdges(nNodes int, edge1, edge2 []int32) (*Graph, error) {
	return partition.FromEdges(nNodes, edge1, edge2)
}

// Multilevel partitions g into nparts with heavy-edge-matching
// coarsening, greedy growing, and boundary refinement.
func Multilevel(g *Graph, nparts int, opts Options) (Vector, error) {
	return partition.Multilevel(g, nparts, opts)
}

// Block assigns nodes to parts in contiguous equal ranges (baseline).
func Block(n, nparts int) Vector { return partition.Block(n, nparts) }

// Random assigns nodes uniformly at random (baseline).
func Random(n, nparts int, seed uint64) Vector { return partition.Random(n, nparts, seed) }

// EdgeCut reports the weight of edges crossing part boundaries.
func EdgeCut(g *Graph, v Vector) int64 { return partition.EdgeCut(g, v) }

// Balance reports max part weight over average part weight.
func Balance(g *Graph, v Vector, nparts int) float64 { return partition.Balance(g, v, nparts) }
