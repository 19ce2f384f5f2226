package metadb

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// pair is the tests' entry: two fields ordered one after the other, as
// an index entry's key and id are, and comparable with ==.
type pair struct {
	k  uint64
	id int64
}

func (a pair) cmp(b pair) int {
	if c := cmp.Compare(a.k, b.k); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// treeEntries walks a tree version from its smallest entry.
func treeEntries(t tree[pair]) []pair {
	var out []pair
	for c := t.from(pair{}); ; {
		e, ok := c.next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// checkShape verifies the structural invariants: ordered leaves within
// fanout, every branch's lo the smallest entry below it, all leaves at
// one depth, and n the entry count.
func checkShape(t *testing.T, tr tree[pair]) {
	t.Helper()
	var walk func(nd *node[pair]) (depth, n int)
	walk = func(nd *node[pair]) (int, int) {
		if nd.kids == nil {
			if len(nd.ents) == 0 || len(nd.ents) > fanout || !slices.IsSortedFunc(nd.ents, pair.cmp) {
				t.Fatalf("bad leaf of %d entries", len(nd.ents))
			}
			return 1, len(nd.ents)
		}
		if len(nd.kids) == 0 || len(nd.kids) > fanout || nd.ents != nil {
			t.Fatalf("bad branch of %d children", len(nd.kids))
		}
		depth, total := 0, 0
		for i, kid := range nd.kids {
			d, n := walk(kid)
			if i > 0 && d != depth {
				t.Fatalf("leaves at depths %d and %d", depth, d)
			}
			if i > 0 && nd.kids[i-1].min().cmp(kid.min()) >= 0 {
				t.Fatal("children out of order")
			}
			depth, total = d, total+n
		}
		if nd.lo != nd.kids[0].min() {
			t.Fatalf("branch lo %v, smallest entry below %v", nd.lo, nd.kids[0].min())
		}
		return depth + 1, total
	}
	n := 0
	if tr.root != nil {
		_, n = walk(tr.root)
	}
	if n != tr.n {
		t.Fatalf("tree counts %d entries, holds %d", tr.n, n)
	}
}

// TestTreeAgainstModel drives random puts and dels — one generation
// per small batch, as commits do — against a sorted-slice model, and
// checks that every older version still reads exactly what it held
// when it was the tip: the edits copied the paths they changed and
// nothing a published version can reach.
func TestTreeAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tr tree[pair]
	var model []pair
	type version struct {
		tr   tree[pair]
		want []pair
	}
	var versions []version
	for gen := uint64(1); gen <= 400; gen++ {
		for range 1 + rng.Intn(24) {
			// Few distinct keys, so runs of one key span leaves.
			e := pair{uint64(rng.Intn(40)), int64(rng.Intn(300))}
			i, found := slices.BinarySearchFunc(model, e, pair.cmp)
			if gen > 250 || rng.Intn(3) == 0 { // the last generations drain the tree
				if tr.del(gen, e) != found {
					t.Fatalf("del(%v) = %v, want %v", e, !found, found)
				}
				if found {
					model = slices.Delete(model, i, i+1)
				}
			} else {
				tr.put(gen, e)
				if !found {
					model = slices.Insert(model, i, e)
				}
			}
			if got, ok := tr.get(e); ok != slices.Contains(model, e) || (ok && got != e) {
				t.Fatalf("get(%v) = %v, %v", e, got, ok)
			}
		}
		checkShape(t, tr)
		if gen%20 == 0 {
			versions = append(versions, version{tr, slices.Clone(model)})
		}
	}
	for i, v := range versions {
		if got := treeEntries(v.tr); !slices.Equal(got, v.want) {
			t.Fatalf("version %d changed after it was published: %d entries, want %d", i, len(got), len(v.want))
		}
	}
	// Cursors start mid-tree, between entries and past the end alike.
	for range 200 {
		key := pair{uint64(rng.Intn(42)), int64(rng.Intn(300))}
		v := versions[rng.Intn(len(versions))]
		i, _ := slices.BinarySearchFunc(v.want, key, pair.cmp)
		c := v.tr.from(key)
		for _, want := range v.want[i:] {
			if got, ok := c.next(); !ok || got != want {
				t.Fatalf("from(%v): got %v, %v, want %v", key, got, ok, want)
			}
		}
		if got, ok := c.next(); ok {
			t.Fatalf("from(%v): %v past the end", key, got)
		}
	}
}

// TestBulkTreeThenEdit builds trees of every small size in bulk —
// full, cap-limited leaves aliasing one slab — and edits each: the
// first put into a full leaf must split a copy, not the slab.
func TestBulkTreeThenEdit(t *testing.T) {
	for n := 0; n <= 3*fanout*fanout+1; n += 7 {
		ents := make([]pair, n)
		for i := range ents {
			ents[i] = pair{uint64(i / 3), int64(2 * i)}
		}
		base := bulkTree(slices.Clone(ents))
		checkShape(t, base)
		edited := base
		for i := 0; i < n; i += 5 {
			edited.put(1, pair{uint64(i / 3), int64(2*i + 1)})
		}
		checkShape(t, edited)
		if got := treeEntries(base); !slices.Equal(got, ents) {
			t.Fatalf("n=%d: editing a copy changed the bulk-built tree", n)
		}
		if want := n + (n+4)/5; edited.n != want {
			t.Fatalf("n=%d: %d entries after the puts, want %d", n, edited.n, want)
		}
	}
}
