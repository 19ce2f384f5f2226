package mesh

import "sort"

// Frozen copies of the map-based builders the edge stencil and the
// bucketed face count replaced. They exist only as references for the
// differential tests; the package itself never dedups through a map.

// frozenBuildEdges extracts the unique undirected edges of all
// tetrahedra through a map, sorted by (a, b).
func frozenBuildEdges(tets [][4]int32) (edge1, edge2 []int32) {
	type pair struct{ a, b int32 }
	seen := make(map[pair]struct{}, len(tets)*6)
	for _, t := range tets {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				a, b := t[i], t[j]
				if a > b {
					a, b = b, a
				}
				seen[pair{a, b}] = struct{}{}
			}
		}
	}
	pairs := make([]pair, 0, len(seen))
	for p := range seen {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	edge1 = make([]int32, len(pairs))
	edge2 = make([]int32, len(pairs))
	for i, p := range pairs {
		edge1[i] = p.a
		edge2[i] = p.b
	}
	return edge1, edge2
}

// frozenBoundaryTriangles counts every normalized face in a map and
// returns those seen once, sorted by (a, b, c).
func frozenBoundaryTriangles(tets [][4]int32) [][3]int32 {
	type tri struct{ a, b, c int32 }
	count := make(map[tri]int, len(tets)*4)
	norm := func(a, b, c int32) tri {
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		return tri{a, b, c}
	}
	faces := [4][3]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}
	for _, t := range tets {
		for _, f := range faces {
			count[norm(t[f[0]], t[f[1]], t[f[2]])]++
		}
	}
	var out []tri
	for f, c := range count {
		if c == 1 {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].a != out[j].a {
			return out[i].a < out[j].a
		}
		if out[i].b != out[j].b {
			return out[i].b < out[j].b
		}
		return out[i].c < out[j].c
	})
	tris := make([][3]int32, len(out))
	for i, f := range out {
		tris[i] = [3]int32{f.a, f.b, f.c}
	}
	return tris
}
