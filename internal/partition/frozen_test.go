package partition

import (
	"fmt"
	"slices"
	"sort"

	"sdm/internal/sim"
)

// Frozen copies of the graph builders and the multilevel partitioner as
// they were before coarsen contracted through a marker array and
// FromEdges through a counting sort: FromEdges dedups through a map,
// and coarsen sorts every level's cross edges as (u, v, w) triples.
// They exist only as references for the differential tests, which
// require the live code to produce the same graphs and the same
// partition vectors.

// frozenFromEdges builds a CSR graph over nNodes vertices from an edge list
// (the mesh's edge1/edge2 arrays). Self loops are dropped and duplicate
// edges merge with accumulated weight, so irregular meshes with repeated
// connectivity are handled.
func frozenFromEdges(nNodes int, edge1, edge2 []int32) (*Graph, error) {
	if len(edge1) != len(edge2) {
		return nil, fmt.Errorf("partition: edge1 has %d entries, edge2 %d", len(edge1), len(edge2))
	}
	type pair struct{ u, v int32 }
	seen := make(map[pair]int32, len(edge1))
	for i := range edge1 {
		u, v := edge1[i], edge2[i]
		if u < 0 || v < 0 || int(u) >= nNodes || int(v) >= nNodes {
			return nil, fmt.Errorf("partition: edge %d (%d,%d) out of range [0,%d)", i, u, v, nNodes)
		}
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		seen[pair{u, v}]++
	}
	deg := make([]int32, nNodes)
	for p := range seen {
		deg[p.u]++
		deg[p.v]++
	}
	xadj := make([]int32, nNodes+1)
	for i := 0; i < nNodes; i++ {
		xadj[i+1] = xadj[i] + deg[i]
	}
	adj := make([]int32, xadj[nNodes])
	ewgt := make([]int32, xadj[nNodes])
	fill := make([]int32, nNodes)
	// Deterministic order: sort the unique edges.
	pairs := make([]pair, 0, len(seen))
	for p := range seen {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].u != pairs[j].u {
			return pairs[i].u < pairs[j].u
		}
		return pairs[i].v < pairs[j].v
	})
	for _, p := range pairs {
		w := seen[p]
		adj[xadj[p.u]+fill[p.u]] = p.v
		ewgt[xadj[p.u]+fill[p.u]] = w
		fill[p.u]++
		adj[xadj[p.v]+fill[p.v]] = p.u
		ewgt[xadj[p.v]+fill[p.v]] = w
		fill[p.v]++
	}
	return &Graph{XAdj: xadj, Adj: adj, EWgt: ewgt}, nil
}

// frozenFromEdgeStream builds a CSR graph from an edge stream invoked twice
// (a degree-counting pass, then a fill pass), so paper-scale meshes
// partition without a dedup map or a second copy of the edge arrays.
// The stream must produce unique normalized edges (u < v) in
// nondecreasing (u, v) order — what mesh.StreamTetEdges and the arrays
// GenerateTet builds provide — and must be deterministic across the two
// passes. The result is identical to FromEdges over the same edges.
func frozenFromEdgeStream(nNodes int, stream func(yield func(u, v int32) error) error) (*Graph, error) {
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

// frozenMultilevel partitions g into nparts parts with a MeTis-style
// multilevel scheme and returns the partitioning vector.
func frozenMultilevel(g *Graph, nparts int, opts Options) (Vector, error) {
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
	// what it must keep (the coarse graphs and projection maps).
	ws := &frozenWorkspace{}

	// Coarsening phase: build a hierarchy of smaller graphs.
	type level struct {
		g     *Graph
		cmap  []int32 // fine vertex -> coarse vertex
		finer *Graph
	}
	var levels []level
	cur := g
	rng := sim.NewRNG(opts.Seed)
	for cur.NumVertices() > max(coarsenPerPart*nparts, 64) {
		coarse, cmap := frozenCoarsen(cur, rng, ws)
		if coarse.NumVertices() >= cur.NumVertices()*95/100 {
			break // matching stalled; further coarsening is pointless
		}
		levels = append(levels, level{g: coarse, cmap: cmap, finer: cur})
		cur = coarse
	}

	// Initial partition on the coarsest graph.
	part := frozenGrowPartition(cur, nparts, rng, ws)
	frozenRefine(cur, part, nparts, opts, ws)

	// Uncoarsening: project and refine at each finer level.
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		finerPart := make(Vector, lv.finer.NumVertices())
		for v := range finerPart {
			finerPart[v] = part[lv.cmap[v]]
		}
		part = finerPart
		frozenRefine(lv.finer, part, nparts, opts, ws)
	}
	return part, nil
}

// frozenWorkspace holds the multilevel partitioner's reusable round
// buffers: the matching and shuffle arrays and edge-triple scratch of
// each coarsening round, and the weight/gain arrays of each refinement
// sweep. One workspace serves a whole Multilevel call; rounds reuse the
// grown capacity instead of reallocating per level.
type frozenWorkspace struct {
	match    []int32
	order    []int
	triples  []frozenCedge
	deg      []int32
	fill     []int32
	weights  []int64
	gains    []int64
	growOrd  []int
	adjParts []int32
}

// frozenGrow returns buf resized to n, reallocating only on growth.
func frozenGrow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// frozenCedge is one cross edge of the contracted graph during aggregation.
type frozenCedge struct {
	u, v int32
	w    int32
}

// frozenCoarsen contracts a heavy-edge matching of g.
func frozenCoarsen(g *Graph, rng *sim.RNG, ws *frozenWorkspace) (*Graph, []int32) {
	n := g.NumVertices()
	ws.match = frozenGrow(ws.match, n)
	match := ws.match
	for i := range match {
		match[i] = -1
	}
	ws.order = frozenGrow(ws.order, n)
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
	// Number coarse vertices.
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	var nc int32
	for u := int32(0); u < int32(n); u++ {
		if cmap[u] != -1 {
			continue
		}
		cmap[u] = nc
		if match[u] != u && match[u] >= 0 {
			cmap[match[u]] = nc
		}
		nc++
	}
	// Build the coarse graph. Cross edges are aggregated by sorting
	// normalized (u, v, w) triples and merging equal pairs — the same
	// deterministic (u, v)-ordered result the map-based version
	// produced, without a per-level hash map.
	vwgt := make([]int32, nc)
	for u := int32(0); u < int32(n); u++ {
		vwgt[cmap[u]] += g.vwgt(u)
	}
	triples := ws.triples[:0]
	for u := int32(0); u < int32(n); u++ {
		cu := cmap[u]
		for i := g.XAdj[u]; i < g.XAdj[u+1]; i++ {
			cv := cmap[g.Adj[i]]
			if cu == cv {
				continue
			}
			a, b := cu, cv
			if a > b {
				a, b = b, a
			}
			triples = append(triples, frozenCedge{a, b, g.ewgt(i)})
		}
	}
	ws.triples = triples
	slices.SortFunc(triples, func(x, y frozenCedge) int {
		if x.u != y.u {
			return int(x.u - y.u)
		}
		return int(x.v - y.v)
	})
	// Merge equal (u, v) runs in place, summing weights.
	merged := triples[:0]
	for _, t := range triples {
		if k := len(merged); k > 0 && merged[k-1].u == t.u && merged[k-1].v == t.v {
			merged[k-1].w += t.w
		} else {
			merged = append(merged, t)
		}
	}
	ws.deg = frozenGrow(ws.deg, int(nc))
	deg := ws.deg
	clear(deg)
	for _, e := range merged {
		deg[e.u]++
		deg[e.v]++
	}
	xadj := make([]int32, nc+1)
	for i := int32(0); i < nc; i++ {
		xadj[i+1] = xadj[i] + deg[i]
	}
	adj := make([]int32, xadj[nc])
	ew := make([]int32, xadj[nc])
	ws.fill = frozenGrow(ws.fill, int(nc))
	fill := ws.fill
	clear(fill)
	for _, e := range merged {
		w := e.w / 2 // each fine edge contributes from both endpoints
		adj[xadj[e.u]+fill[e.u]] = e.v
		ew[xadj[e.u]+fill[e.u]] = w
		fill[e.u]++
		adj[xadj[e.v]+fill[e.v]] = e.u
		ew[xadj[e.v]+fill[e.v]] = w
		fill[e.v]++
	}
	return &Graph{XAdj: xadj, Adj: adj, VWgt: vwgt, EWgt: ew}, cmap
}

// frozenGrowPartition seeds nparts regions and grows them by BFS, weight-
// balanced (greedy graph growing).
func frozenGrowPartition(g *Graph, nparts int, rng *sim.RNG, ws *frozenWorkspace) Vector {
	n := g.NumVertices()
	part := make(Vector, n)
	for i := range part {
		part[i] = -1
	}
	target := (g.TotalVWgt() + int64(nparts) - 1) / int64(nparts)
	ws.weights = frozenGrow(ws.weights, nparts)
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
	ws.growOrd = frozenGrow(ws.growOrd, nparts)
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

// frozenRefine runs boundary FM-style passes: move boundary vertices to the
// neighbouring part with the best edge-cut gain, subject to balance.
func frozenRefine(g *Graph, part Vector, nparts int, opts Options, ws *frozenWorkspace) {
	n := g.NumVertices()
	ws.weights = frozenGrow(ws.weights, nparts)
	weights := ws.weights
	clear(weights)
	for u := 0; u < n; u++ {
		weights[part[u]] += int64(g.vwgt(int32(u)))
	}
	total := g.TotalVWgt()
	maxW := int64(float64(total) / float64(nparts) * imbalanceTol)
	if maxW <= 0 {
		maxW = 1
	}
	ws.gains = frozenGrow(ws.gains, nparts)
	gains := ws.gains
	clear(gains)
	parts := ws.adjParts[:0] // adjacent-part scratch, reused across vertices
	for pass := 0; pass < refinePasses; pass++ {
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
