package partition

import (
	"fmt"
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
	// Seed drives matching and growing order (0 means 1).
	Seed uint64
}

// The partitioner's fixed tuning: coarsening stops at coarsenPerPart
// vertices per part (never below 64), each level runs at most
// refinePasses boundary-refinement sweeps, and a part may weigh
// imbalanceTol times the average.
const (
	coarsenPerPart = 30
	refinePasses   = 4
	imbalanceTol   = 1.05
)

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
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	// Workspace buffers shared across coarsening and refinement rounds,
	// so the multilevel hierarchy allocates per-level state only for
	// what it must keep (the coarse graphs and projection maps). The
	// vertex states are sized once for the finest level.
	ws := &mlWorkspace{state: make([]vertexState, n)}

	rng := sim.NewRNG(opts.Seed)
	levels, cur := coarsenAll(g, nparts, rng, ws)

	// Initial partition on the coarsest graph, every vertex still to be
	// scanned.
	part := growPartition(cur, nparts, rng, ws)
	clear(ws.state)
	refine(cur, part, nparts, ws)

	// Uncoarsening: project and refine at each finer level.
	for i := len(levels) - 1; i >= 0; i-- {
		part = uncoarsen(levels[i], part, ws)
		refine(levels[i].finer, part, nparts, ws)
	}
	return part, nil
}

// level is one step of the coarsening hierarchy.
type level struct {
	g     *Graph
	cmap  []int32 // fine vertex -> coarse vertex
	finer *Graph
}

// coarsenAll is the coarsening phase: it contracts g until the graph
// has at most coarsenPerPart vertices per part (or 64, if that is more)
// or a round stops shrinking it, and returns the levels, finest first,
// with the coarsest graph.
func coarsenAll(g *Graph, nparts int, rng *sim.RNG, ws *mlWorkspace) ([]level, *Graph) {
	var levels []level
	cur := g
	for cur.NumVertices() > max(coarsenPerPart*nparts, 64) {
		coarse, cmap := coarsen(cur, rng, ws)
		if coarse.NumVertices() >= cur.NumVertices()*95/100 {
			break // matching stalled; further coarsening is pointless
		}
		levels = append(levels, level{g: coarse, cmap: cmap, finer: cur})
		cur = coarse
	}
	return levels, cur
}

// uncoarsen projects the coarse level's parts and states onto its
// finer graph. A coarse vertex whose neighbours all share its part has
// fine vertices whose neighbours do too, so interior carries over; a
// fine vertex of any other coarse vertex is to be scanned. The states
// project in place: cmap[v] <= v, so a descending pass reads each
// coarse state before the fine one overwrites its slot.
func uncoarsen(lv level, part Vector, ws *mlWorkspace) Vector {
	finerPart := make(Vector, lv.finer.NumVertices())
	for v := range finerPart {
		finerPart[v] = part[lv.cmap[v]]
	}
	for v := len(finerPart) - 1; v >= 0; v-- {
		if ws.state[lv.cmap[v]] == interior {
			ws.state[v] = interior
		} else {
			ws.state[v] = unsettled
		}
	}
	return finerPart
}

// mlWorkspace holds the multilevel partitioner's reusable round
// buffers: the matching, shuffle and contraction arrays of each
// coarsening round, and the weight/gain arrays and vertex states of
// each refinement sweep. One workspace serves a whole Multilevel call;
// rounds reuse the grown capacity instead of reallocating per level.
type mlWorkspace struct {
	match    []int32
	order    []int
	mark     []int32 // coarse vertex -> 1 + the coarse row that last saw it; then the transpose's fill cursor
	acc      []int32 // coarse vertex -> weight summed into the current row
	rows     []int32 // coarse vertex -> end of its unsorted row in adj
	adj      []int32 // coarse adjacency in unsorted rows, before the transpose
	ewgt     []int32
	weights  []int64
	gains    []int64
	growOrd  []int
	adjParts []int32
	state    []vertexState
}

// vertexState says whether a refinement pass must scan a vertex. A scan
// moves a vertex only to a neighbouring part with a positive gain, so
// one in either settled state would stay put.
type vertexState uint8

const (
	unsettled vertexState = iota // scan it
	interior                     // every neighbour shares its part
	noGain                       // no neighbouring part gains: a boundary vertex that stays until a neighbour moves
)

// grow returns buf resized to n, reallocating only on growth.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// coarsen contracts a heavy-edge matching of g. Each coarse row merges
// the adjacency of its one or two fine vertices through a marker array
// (METIS's contraction): O(|E|), with no sort and no hash map. A row
// sums each weight from its own side and comes out in first-sighting
// order; one counting transpose then makes every row ascending, so
// matching and refinement meet neighbours in id order. The graph is
// symmetric, so row c of the transpose holds row c's neighbours, and
// the weight summed from the other side equals the one summed from c's.
func coarsen(g *Graph, rng *sim.RNG, ws *mlWorkspace) (*Graph, []int32) {
	n := g.NumVertices()
	ws.match = grow(ws.match, n)
	match := ws.match
	for i := range match {
		match[i] = -1
	}
	// No neighbour beats one joined by the graph's heaviest edge, so a
	// row's scan stops there; every edge of a mesh's own graph weighs 1.
	heaviest := int32(1)
	for _, w := range g.EWgt {
		heaviest = max(heaviest, w)
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
				if bestW == heaviest {
					break
				}
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
	ws.rows = grow(ws.rows, int(nc))
	rows := ws.rows
	ws.adj = grow(ws.adj, len(g.Adj))
	ws.ewgt = grow(ws.ewgt, len(g.Adj))
	radj, rew := ws.adj, ws.ewgt
	vwgt := make([]int32, nc)
	xadj := make([]int32, nc+1)
	var k int32
	for u := int32(0); u < int32(n); u++ {
		if match[u] < u {
			continue
		}
		c := cmap[u]
		start := k
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
					radj[k] = cv
					k++
				}
				acc[cv] += g.ewgt(i)
			}
			if match[u] == u {
				break
			}
		}
		for j := start; j < k; j++ {
			rew[j] = acc[radj[j]]
			xadj[radj[j]+1]++ // row c appears once in each of its neighbours' rows
		}
		rows[c] = k
	}
	// Transpose: visiting the rows in ascending c appends c to each
	// neighbour's row, so every row fills in ascending order.
	for c := range nc {
		xadj[c+1] += xadj[c]
	}
	next := mark
	copy(next, xadj[:nc])
	adj, ewgt := make([]int32, k), make([]int32, k)
	var j int32
	for c := range nc {
		for ; j < rows[c]; j++ {
			cv := radj[j]
			adj[next[cv]], ewgt[next[cv]] = c, rew[j]
			next[cv]++
		}
	}
	return &Graph{XAdj: xadj, Adj: adj, VWgt: vwgt, EWgt: ewgt}, cmap
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
// neighbouring part with the best edge-cut gain, subject to balance,
// until a pass moves none or refinePasses have run.
func refine(g *Graph, part Vector, nparts int, ws *mlWorkspace) {
	maxW := partWeights(g, part, nparts, ws)
	for range refinePasses {
		if refinePass(g, part, maxW, ws) == 0 {
			break
		}
	}
}

// partWeights sums each part's vertex weight into ws.weights and
// returns the weight a part may reach.
func partWeights(g *Graph, part Vector, nparts int, ws *mlWorkspace) int64 {
	ws.weights = grow(ws.weights, nparts)
	weights := ws.weights
	clear(weights)
	for u := range g.NumVertices() {
		weights[part[u]] += int64(g.vwgt(int32(u)))
	}
	maxW := int64(float64(g.TotalVWgt()) / float64(nparts) * imbalanceTol)
	if maxW <= 0 {
		maxW = 1
	}
	ws.gains = grow(ws.gains, nparts)
	clear(ws.gains)
	return maxW
}

// refinePass scans every unsettled vertex, in id order, moves it where
// the gain is best, and returns how many moved. A settled vertex's
// gains depend only on its neighbours' parts, so until one of them
// moves a scan could not move it: skipping it scans, gains and moves
// exactly as a full sweep would. A scan settles a vertex that it
// leaves with no gain anywhere; a move unsettles the mover's
// neighbours.
func refinePass(g *Graph, part Vector, maxW int64, ws *mlWorkspace) int {
	weights, gains, state := ws.weights, ws.gains, ws.state
	parts := ws.adjParts[:0] // adjacent-part scratch, reused across vertices
	moved := 0
	for u := range int32(g.NumVertices()) {
		if state[u] != unsettled {
			continue
		}
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
		boundary, gainful := false, false
		w := int64(g.vwgt(u))
		for _, pv := range parts {
			if pv == pu {
				continue
			}
			gain := gains[pv] - internal
			boundary = true
			gainful = gainful || gain > 0
			if gain > bestGain && weights[pv]+w <= maxW && weights[pu]-w > 0 {
				bestGain = gain
				bestPart = pv
			}
		}
		for _, pv := range parts {
			gains[pv] = 0
		}
		switch {
		case !boundary:
			state[u] = interior
		case !gainful:
			state[u] = noGain
		}
		if bestPart != pu {
			weights[pu] -= w
			weights[bestPart] += w
			part[u] = bestPart
			for i := g.XAdj[u]; i < g.XAdj[u+1]; i++ {
				state[g.Adj[i]] = unsettled
			}
			moved++
		}
	}
	ws.adjParts = parts[:0]
	return moved
}
