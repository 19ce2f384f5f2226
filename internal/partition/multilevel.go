package partition

import (
	"fmt"
	"slices"
	"sort"

	"sdm/internal/sim"
)

// Block assigns nodes to parts in contiguous equal ranges — the naive
// baseline.
func Block(n, nparts int) Vector {
	v := make(Vector, n)
	if nparts <= 0 {
		return v
	}
	per := (n + nparts - 1) / nparts
	for i := 0; i < n; i++ {
		p := i / per
		if p >= nparts {
			p = nparts - 1
		}
		v[i] = int32(p)
	}
	return v
}

// Random assigns nodes uniformly at random (deterministic in seed) —
// the worst-case baseline for locality.
func Random(n, nparts int, seed uint64) Vector {
	rng := sim.NewRNG(seed)
	v := make(Vector, n)
	for i := range v {
		v[i] = int32(rng.Intn(nparts))
	}
	return v
}

// Options tunes the multilevel partitioner.
type Options struct {
	// CoarsenTo stops coarsening when the graph has at most this many
	// vertices (default 30*nparts).
	CoarsenTo int
	// RefinePasses bounds boundary-refinement sweeps per level
	// (default 4).
	RefinePasses int
	// ImbalanceTol is the allowed max/avg part weight (default 1.05).
	ImbalanceTol float64
	// Seed drives matching and growing order.
	Seed uint64
}

func (o *Options) fill(nparts int) {
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 30 * nparts
		if o.CoarsenTo < 64 {
			o.CoarsenTo = 64
		}
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 4
	}
	if o.ImbalanceTol <= 1 {
		o.ImbalanceTol = 1.05
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Multilevel partitions g into nparts parts with a MeTis-style
// multilevel scheme and returns the partitioning vector.
func Multilevel(g *Graph, nparts int, opts Options) (Vector, error) {
	if nparts <= 0 {
		return nil, fmt.Errorf("partition: nparts must be positive, got %d", nparts)
	}
	n := g.NumVertices()
	if n == 0 {
		return Vector{}, nil
	}
	if nparts == 1 {
		return make(Vector, n), nil
	}
	if nparts >= n {
		// Degenerate: one node per part.
		v := make(Vector, n)
		for i := range v {
			v[i] = int32(i % nparts)
		}
		return v, nil
	}
	opts.fill(nparts)

	// Workspace buffers shared across coarsening and refinement rounds,
	// so the multilevel hierarchy allocates per-level state only for
	// what it must keep (the coarse graphs and projection maps).
	ws := &mlWorkspace{}

	// Coarsening phase: build a hierarchy of smaller graphs.
	type level struct {
		g     *Graph
		cmap  []int32 // fine vertex -> coarse vertex
		finer *Graph
	}
	var levels []level
	cur := g
	rng := sim.NewRNG(opts.Seed)
	for cur.NumVertices() > opts.CoarsenTo {
		coarse, cmap := coarsen(cur, rng, ws)
		if coarse.NumVertices() >= cur.NumVertices()*95/100 {
			break // matching stalled; further coarsening is pointless
		}
		levels = append(levels, level{g: coarse, cmap: cmap, finer: cur})
		cur = coarse
	}

	// Initial partition on the coarsest graph.
	part := growPartition(cur, nparts, rng, ws)
	refine(cur, part, nparts, opts, ws)

	// Uncoarsening: project and refine at each finer level.
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		finerPart := make(Vector, lv.finer.NumVertices())
		for v := range finerPart {
			finerPart[v] = part[lv.cmap[v]]
		}
		part = finerPart
		refine(lv.finer, part, nparts, opts, ws)
	}
	return part, nil
}

// mlWorkspace holds the multilevel partitioner's reusable round
// buffers: the matching, shuffle and contraction arrays of each
// coarsening round, and the weight/gain arrays of each refinement
// sweep. One workspace serves a whole Multilevel call; rounds reuse the
// grown capacity instead of reallocating per level.
type mlWorkspace struct {
	match    []int32
	order    []int
	mark     []int32 // coarse vertex -> 1 + the coarse row that last saw it
	acc      []int32 // coarse vertex -> weight summed into the current row
	adj      []int32 // coarse adjacency, before its exact-size copy
	ewgt     []int32
	weights  []int64
	gains    []int64
	growOrd  []int
	adjParts []int32
}

// grow returns buf resized to n, reallocating only on growth.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// coarsen contracts a heavy-edge matching of g. Each coarse row merges
// the adjacency of its one or two fine vertices through a marker array
// (METIS's contraction): O(|E|), with no sort over the level's edges
// and no hash map. A row sums each weight from its own side, which the
// symmetric graph makes equal to the other side's sum, and is sorted
// ascending, so matching and refinement meet neighbours in id order.
func coarsen(g *Graph, rng *sim.RNG, ws *mlWorkspace) (*Graph, []int32) {
	n := g.NumVertices()
	ws.match = grow(ws.match, n)
	match := ws.match
	for i := range match {
		match[i] = -1
	}
	ws.order = grow(ws.order, n)
	order := rng.PermInto(ws.order)
	for _, u32 := range order {
		u := int32(u32)
		if match[u] != -1 {
			continue
		}
		var best int32 = -1
		var bestW int32 = -1
		for i := g.XAdj[u]; i < g.XAdj[u+1]; i++ {
			v := g.Adj[i]
			if match[v] == -1 && v != u && g.ewgt(i) > bestW {
				best, bestW = v, g.ewgt(i)
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
		} else {
			match[u] = u
		}
	}
	// Number coarse vertices in order of their lower (or only) fine
	// vertex u, the one with match[u] >= u.
	cmap := make([]int32, n)
	var nc int32
	for u := int32(0); u < int32(n); u++ {
		if match[u] >= u {
			cmap[u], cmap[match[u]] = nc, nc
			nc++
		}
	}
	// Build the coarse rows in the same order: a neighbour's first
	// sighting in row c marks it and appends it, and every sighting adds
	// the fine edge's weight.
	ws.mark = grow(ws.mark, int(nc))
	mark := ws.mark
	clear(mark)
	ws.acc = grow(ws.acc, int(nc))
	acc := ws.acc
	ws.adj = grow(ws.adj, len(g.Adj))
	ws.ewgt = grow(ws.ewgt, len(g.Adj))
	cadj, cew := ws.adj, ws.ewgt
	vwgt := make([]int32, nc)
	xadj := make([]int32, nc+1)
	var k int32
	for u := int32(0); u < int32(n); u++ {
		if match[u] < u {
			continue
		}
		c := cmap[u]
		for _, f := range [2]int32{u, match[u]} {
			vwgt[c] += g.vwgt(f)
			for i := g.XAdj[f]; i < g.XAdj[f+1]; i++ {
				cv := cmap[g.Adj[i]]
				if cv == c {
					continue
				}
				if mark[cv] != c+1 {
					mark[cv] = c + 1
					acc[cv] = 0
					cadj[k] = cv
					k++
				}
				acc[cv] += g.ewgt(i)
			}
			if match[u] == u {
				break
			}
		}
		row := cadj[xadj[c]:k]
		slices.Sort(row)
		for j, cv := range row {
			cew[xadj[c]+int32(j)] = acc[cv]
		}
		xadj[c+1] = k
	}
	return &Graph{XAdj: xadj, Adj: slices.Clone(cadj[:k]), VWgt: vwgt, EWgt: slices.Clone(cew[:k])}, cmap
}

// growPartition seeds nparts regions and grows them by BFS, weight-
// balanced (greedy graph growing).
func growPartition(g *Graph, nparts int, rng *sim.RNG, ws *mlWorkspace) Vector {
	n := g.NumVertices()
	part := make(Vector, n)
	for i := range part {
		part[i] = -1
	}
	target := (g.TotalVWgt() + int64(nparts) - 1) / int64(nparts)
	ws.weights = grow(ws.weights, nparts)
	weights := ws.weights
	clear(weights)
	var frontier [][]int32
	frontier = make([][]int32, nparts)
	// Seed each part with a random unassigned vertex.
	for p := 0; p < nparts; p++ {
		for tries := 0; tries < 2*n; tries++ {
			s := int32(rng.Intn(n))
			if part[s] == -1 {
				part[s] = int32(p)
				weights[p] += int64(g.vwgt(s))
				frontier[p] = append(frontier[p], s)
				break
			}
		}
	}
	// Round-robin growth, lightest part first.
	ws.growOrd = grow(ws.growOrd, nparts)
	for {
		progress := false
		order := ws.growOrd
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return weights[order[a]] < weights[order[b]] })
		for _, p := range order {
			if weights[p] >= target {
				continue
			}
			// Take one vertex from the frontier.
			for len(frontier[p]) > 0 && weights[p] < target {
				u := frontier[p][0]
				frontier[p] = frontier[p][1:]
				for i := g.XAdj[u]; i < g.XAdj[u+1]; i++ {
					v := g.Adj[i]
					if part[v] == -1 {
						part[v] = int32(p)
						weights[p] += int64(g.vwgt(v))
						frontier[p] = append(frontier[p], v)
						progress = true
						if weights[p] >= target {
							break
						}
					}
				}
			}
		}
		if !progress {
			break
		}
	}
	// Any disconnected leftovers go to the lightest part.
	for u := 0; u < n; u++ {
		if part[u] == -1 {
			best := 0
			for p := 1; p < nparts; p++ {
				if weights[p] < weights[best] {
					best = p
				}
			}
			part[u] = int32(best)
			weights[best] += int64(g.vwgt(int32(u)))
		}
	}
	return part
}

// refine runs boundary FM-style passes: move boundary vertices to the
// neighbouring part with the best edge-cut gain, subject to balance.
func refine(g *Graph, part Vector, nparts int, opts Options, ws *mlWorkspace) {
	n := g.NumVertices()
	ws.weights = grow(ws.weights, nparts)
	weights := ws.weights
	clear(weights)
	for u := 0; u < n; u++ {
		weights[part[u]] += int64(g.vwgt(int32(u)))
	}
	total := g.TotalVWgt()
	maxW := int64(float64(total) / float64(nparts) * opts.ImbalanceTol)
	if maxW <= 0 {
		maxW = 1
	}
	ws.gains = grow(ws.gains, nparts)
	gains := ws.gains
	clear(gains)
	parts := ws.adjParts[:0] // adjacent-part scratch, reused across vertices
	for pass := 0; pass < opts.RefinePasses; pass++ {
		moved := 0
		for u := 0; u < n; u++ {
			pu := part[u]
			// Compute connectivity to each adjacent part.
			parts = parts[:0]
			for i := g.XAdj[u]; i < g.XAdj[u+1]; i++ {
				pv := part[g.Adj[i]]
				if gains[pv] == 0 {
					parts = append(parts, pv)
				}
				gains[pv] += int64(g.ewgt(i))
			}
			internal := gains[pu]
			bestPart := pu
			bestGain := int64(0)
			for _, pv := range parts {
				if pv == pu {
					continue
				}
				gain := gains[pv] - internal
				w := int64(g.vwgt(int32(u)))
				if gain > bestGain && weights[pv]+w <= maxW && weights[pu]-w > 0 {
					bestGain = gain
					bestPart = pv
				}
			}
			for _, pv := range parts {
				gains[pv] = 0
			}
			if bestPart != pu {
				w := int64(g.vwgt(int32(u)))
				weights[pu] -= w
				weights[bestPart] += w
				part[u] = bestPart
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	ws.adjParts = parts[:0]
}
