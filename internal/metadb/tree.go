package metadb

import (
	"iter"
	"slices"
)

// A tree is a persistent B+tree, the one container behind both row
// storage (entries ordered by id) and indexes (entries ordered by their
// rows' index-column values, then id). Published nodes are immutable: a
// writer passes its edit's generation to put and del, which copy each
// node on the path the first time that edit touches it and mutate nodes
// the edit already owns in place. A commit therefore allocates
// O(batch × depth) nodes whatever the table holds, and every version
// shares the rest.
//
// Deletion does not rebalance: nodes may run underfull and are dropped
// only when empty, which keeps the structure valid and — in a store
// that mostly appends — loses nothing worth the code.

// fanout is the most entries a leaf and the most children a branch
// holds. A node copied for editing gets room for spare more: commits
// put one entry into most leaves they touch, so the copy is what a
// commit pays per row and is kept that small.
const (
	fanout = 32
	spare  = 2
)

// ordered is an entry type with a total order; entries comparing equal
// are the same key, and put replaces one with the other.
type ordered[E any] interface{ cmp(E) int }

// node is a leaf holding entries, or a branch holding children and, in
// lo, the smallest entry below it. A branch keeps no separator keys —
// a search reads each child's smallest entry through the child — so
// copying one for an edit copies only its child pointers.
type node[E ordered[E]] struct {
	gen  uint64 // the edit allowed to mutate this node; 0 for bulk-built
	ents []E
	kids []*node[E]
	lo   E
}

func (nd *node[E]) min() E {
	if nd.kids == nil {
		return nd.ents[0]
	}
	return nd.lo
}

type tree[E ordered[E]] struct {
	root *node[E]
	n    int
}

// bulkTree builds a tree of full leaves over entries already in order.
// The leaves alias ents, which the caller gives up.
func bulkTree[E ordered[E]](ents []E) tree[E] {
	if len(ents) == 0 {
		return tree[E]{}
	}
	leaves := make([]node[E], (len(ents)+fanout-1)/fanout)
	level := make([]*node[E], len(leaves))
	for i := range leaves {
		lo, hi := i*fanout, min((i+1)*fanout, len(ents))
		leaves[i].ents = ents[lo:hi:hi]
		level[i] = &leaves[i]
	}
	for len(level) > 1 {
		up := make([]*node[E], 0, (len(level)+fanout-1)/fanout)
		for lo := 0; lo < len(level); lo += fanout {
			hi := min(lo+fanout, len(level))
			up = append(up, &node[E]{kids: level[lo:hi:hi], lo: level[lo].min()})
		}
		level = up
	}
	return tree[E]{root: level[0], n: len(ents)}
}

// search returns the position of a leaf's first entry not below key
// and whether that entry equals key.
func (nd *node[E]) search(key E) (int, bool) {
	return slices.BinarySearchFunc(nd.ents, key, func(e, k E) int { return e.cmp(k) })
}

// child returns the index of the child whose range holds key.
func (nd *node[E]) child(key E) int {
	i, found := slices.BinarySearchFunc(nd.kids, key, func(kid *node[E], k E) int { return kid.min().cmp(k) })
	if !found && i > 0 {
		i--
	}
	return i
}

// get returns the entry equal to key.
func (t tree[E]) get(key E) (e E, ok bool) {
	nd := t.root
	if nd == nil {
		return e, false
	}
	for nd.kids != nil {
		nd = nd.kids[nd.child(key)]
	}
	if i, found := nd.search(key); found {
		return nd.ents[i], true
	}
	return e, false
}

// own returns nd if the edit already owns it, else a copy it owns.
func (nd *node[E]) own(gen uint64) *node[E] {
	if nd.gen == gen {
		return nd
	}
	c := &node[E]{gen: gen, lo: nd.lo}
	if nd.kids == nil {
		c.ents = append(make([]E, 0, len(nd.ents)+spare), nd.ents...)
	} else {
		c.kids = append(make([]*node[E], 0, len(nd.kids)+spare), nd.kids...)
	}
	return c
}

// put inserts e, or replaces the entry equal to it.
func (t *tree[E]) put(gen uint64, e E) {
	if t.root == nil {
		t.root = &node[E]{gen: gen, ents: []E{e}}
		t.n = 1
		return
	}
	root, right, grew := t.root.put(gen, e)
	if right != nil {
		root = &node[E]{gen: gen, kids: []*node[E]{root, right}, lo: root.min()}
	}
	t.root = root
	if grew {
		t.n++
	}
}

// put returns the node's replacement, the right half if the insert
// overflowed it, and whether an entry was added rather than replaced.
func (nd *node[E]) put(gen uint64, e E) (self, right *node[E], grew bool) {
	nd = nd.own(gen)
	atEnd := false
	if nd.kids == nil {
		i, found := nd.search(e)
		if found {
			nd.ents[i] = e
			return nd, nil, false
		}
		atEnd, grew = i == len(nd.ents), true
		nd.ents = slices.Insert(nd.ents, i, e)
	} else {
		i := nd.child(e)
		kid, kright, g := nd.kids[i].put(gen, e)
		nd.kids[i], grew = kid, g
		nd.lo = nd.kids[0].min()
		if kright != nil {
			atEnd = i+1 == len(nd.kids)
			nd.kids = slices.Insert(nd.kids, i+1, kright)
		}
	}
	n := max(len(nd.ents), len(nd.kids))
	if n <= fanout {
		return nd, nil, grew
	}
	// Split in half — except after an insert at the end, where the left
	// node stays full: ids only ascend, so a row tree split in the
	// middle would leave every leaf half empty for good.
	h := n / 2
	if atEnd {
		h = n - 1
	}
	if nd.kids == nil {
		right = &node[E]{gen: gen, ents: append(make([]E, 0, n-h+spare), nd.ents[h:]...)}
		clear(nd.ents[h:])
		nd.ents = nd.ents[:h]
	} else {
		right = &node[E]{gen: gen, kids: append(make([]*node[E], 0, n-h+spare), nd.kids[h:]...), lo: nd.kids[h].min()}
		clear(nd.kids[h:])
		nd.kids = nd.kids[:h]
	}
	return nd, right, grew
}

// del removes the entry equal to key and reports whether it was there.
func (t *tree[E]) del(gen uint64, key E) bool {
	if t.root == nil {
		return false
	}
	root, ok := t.root.del(gen, key)
	if !ok {
		return false
	}
	for root != nil && len(root.kids) == 1 {
		root = root.kids[0]
	}
	t.root = root
	t.n--
	return true
}

// del returns the node's replacement, nil once it is empty.
func (nd *node[E]) del(gen uint64, key E) (*node[E], bool) {
	if nd.kids == nil {
		i, found := nd.search(key)
		if !found {
			return nd, false
		}
		if len(nd.ents) == 1 {
			return nil, true
		}
		nd = nd.own(gen)
		nd.ents = slices.Delete(nd.ents, i, i+1)
		return nd, true
	}
	i := nd.child(key)
	kid, ok := nd.kids[i].del(gen, key)
	if !ok {
		return nd, false
	}
	if kid == nil && len(nd.kids) == 1 {
		return nil, true
	}
	nd = nd.own(gen)
	if kid == nil {
		nd.kids = slices.Delete(nd.kids, i, i+1)
	} else {
		nd.kids[i] = kid
	}
	nd.lo = nd.kids[0].min()
	return nd, true
}

// tail returns the rest of the leaf holding the first entry at or
// (strict) after key, starting at that entry; nil when there is none.
func (nd *node[E]) tail(key E, strict bool) []E {
	if nd.kids == nil {
		i, found := nd.search(key)
		if found && strict {
			i++
		}
		return nd.ents[i:]
	}
	// The entry is below the child covering key or, failing that, the
	// first one of the next child.
	for i := nd.child(key); i < len(nd.kids); i++ {
		if rest := nd.kids[i].tail(key, strict); len(rest) > 0 {
			return rest
		}
	}
	return nil
}

// A cursor walks one version of a tree in order. It keeps no path:
// leaving a leaf, it descends again from the root to the successor of
// the last entry it returned, once per fanout entries.
type cursor[E ordered[E]] struct {
	root *node[E]
	rest []E // unread entries of the current leaf
	last E
}

// from returns a cursor at the first entry not below key; the zero
// entry is below every id and index key in use, so from(zero) walks it
// all.
func (t tree[E]) from(key E) cursor[E] {
	if t.root == nil {
		return cursor[E]{}
	}
	if rest := t.root.tail(key, false); len(rest) > 0 {
		return cursor[E]{root: t.root, rest: rest}
	}
	return cursor[E]{}
}

// all yields every entry in order.
func (t tree[E]) all() iter.Seq[E] {
	return func(yield func(E) bool) {
		var zero E
		for c := t.from(zero); ; {
			if e, ok := c.next(); !ok || !yield(e) {
				return
			}
		}
	}
}

func (c *cursor[E]) next() (e E, ok bool) {
	if len(c.rest) == 0 {
		if c.root != nil {
			c.rest = c.root.tail(c.last, true)
		}
		if len(c.rest) == 0 {
			c.root = nil
			return e, false
		}
	}
	e, c.rest, c.last = c.rest[0], c.rest[1:], c.rest[0]
	return e, true
}
