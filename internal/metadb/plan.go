package metadb

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// ---------------------------------------------------------------------------
// Plan selection
// ---------------------------------------------------------------------------

// colBound is one `col OP const` conjunct extracted from a WHERE
// clause, with the constant evaluated.
type colBound struct {
	col string
	op  string
	v   Value
}

// collectBounds walks the top-level AND conjuncts of a WHERE clause and
// gathers every indexable `col OP const` comparison: the column on the
// left, a literal or parameter on the right, and for a range not NULL
// (which no value lies beside). A comparison written constant-first is
// answered by the scan it leaves the statement to.
func (ctx *evalCtx) collectBounds(where expr, bounds []colBound) []colBound {
	b, ok := where.(binExpr)
	if !ok {
		return bounds
	}
	switch b.op {
	case "AND":
		bounds = ctx.collectBounds(b.l, bounds)
		return ctx.collectBounds(b.r, bounds)
	case "=", "<", "<=", ">", ">=":
	default:
		return bounds
	}
	c, ok := b.l.(colExpr)
	if !ok {
		return bounds
	}
	switch b.r.(type) {
	case litExpr, paramExpr:
		if v, err := ctx.eval(b.r); err == nil && (b.op == "=" || !v.IsNull()) {
			bounds = append(bounds, colBound{normalizeIdent(c.name), b.op, v})
		}
	}
	return bounds
}

// planKind classifies how a statement obtains its candidate rows.
type planKind int

const (
	planScan  planKind = iota // every row: no conjunct opens a window on an index
	planEq                    // the window under an equality prefix of an index's columns
	planRange                 // a range window on an index's first column
)

// queryPlan is the chosen access path for one statement: a window on an
// index — the entries whose leading columns equal eqVals and whose next
// column, if lo or hi is set, lies between them — or every row. The
// execution path (matchingRows) and the EXPLAIN report are both driven
// by this one value, so the plan printed is by construction the plan
// executed. It keeps the numbers behind the EXPLAIN sentence, not the
// sentence: only String formats, and only EXPLAIN calls it.
type queryPlan struct {
	def *indexDef // the index walked; nil when a scan walks the table
	pos int       // the index's position in the table's idx

	scanWhy string // planScan: why no index serves the WHERE clause

	eqVals []Value // values of the window's leading index columns

	lo, hi       *Value // bounds on the column after them
	loInc, hiInc bool

	// ordered: the walk yields rows in the statement's ORDER BY order,
	// so no sort is needed.
	ordered bool
}

func (p queryPlan) kind() planKind {
	switch {
	case len(p.eqVals) > 0:
		return planEq
	case p.lo != nil || p.hi != nil:
		return planRange
	}
	return planScan
}

// String renders the plan as the EXPLAIN line.
func (p queryPlan) String() string {
	if p.kind() == planScan {
		return "full table scan: " + p.scanWhy
	}
	on := fmt.Sprintf("on index %s (%s): ", p.def.name, strings.Join(p.def.cols, ", "))
	switch n := len(p.eqVals); {
	case n == 0:
		return "range scan " + on + p.window()
	case n == len(p.def.cols):
		return fmt.Sprintf("equality probe %s%d equality conjunct(s) cover all %d index column(s)", on, n, n)
	case p.lo != nil || p.hi != nil:
		return fmt.Sprintf("prefix probe %s%d equality conjunct(s) bind its leading column(s), then %s", on, n, p.window())
	default:
		return fmt.Sprintf("prefix probe %s%d equality conjunct(s) bind its leading column(s)", on, n)
	}
}

// window describes a plan's range, e.g. "10 <= timestep < 20".
func (p queryPlan) window() string {
	var sb strings.Builder
	if p.lo != nil {
		sb.WriteString(p.lo.String())
		if p.loInc {
			sb.WriteString(" <= ")
		} else {
			sb.WriteString(" < ")
		}
	}
	sb.WriteString(p.def.cols[len(p.eqVals)])
	if p.hi != nil {
		if p.hiInc {
			sb.WriteString(" <= ")
		} else {
			sb.WriteString(" < ")
		}
		sb.WriteString(p.hi.String())
	}
	return sb.String()
}

// bound narrows the plan's range to the tightest the range conjuncts on
// col allow.
func (p *queryPlan) bound(bounds []colBound, col string) {
	for i := range bounds {
		bd := &bounds[i]
		if bd.col != col {
			continue
		}
		switch bd.op {
		case ">", ">=":
			inc := bd.op == ">="
			if p.lo == nil || compare(bd.v, *p.lo) > 0 || (compare(bd.v, *p.lo) == 0 && !inc) {
				p.lo, p.loInc = &bd.v, inc
			}
		case "<", "<=":
			inc := bd.op == "<="
			if p.hi == nil || compare(bd.v, *p.hi) < 0 || (compare(bd.v, *p.hi) == 0 && !inc) {
				p.hi, p.hiInc = &bd.v, inc
			}
		}
	}
}

// serves reports whether rows walked in the order of index d, all alike
// in its first nEq columns, come out as the ORDER BY wants them: it
// names the index's remaining columns, after any of the bound ones,
// which order nothing.
func (d *indexDef) serves(nEq int, orderBy []string) bool {
	first := len(d.cols) - len(orderBy)
	if len(orderBy) == 0 || first < 0 || first > nEq {
		return false
	}
	for i, col := range orderBy {
		if normalizeIdent(col) != d.cols[first+i] {
			return false
		}
	}
	return true
}

// planFor chooses the access path for a statement: the index with the
// longest run of leading columns bound by equality conjuncts — so the
// composite (runid, dataset, timestep) index serves a probe binding all
// three, the first two, or runid alone. Among equal runs, an index the
// run covers whole comes first, then one whose next column `<`, `<=`,
// `>`, `>=` conjuncts bound on both sides (BETWEEN-shaped
// `col >= lo AND col <= hi` pairs), then on one, then the lexically
// smallest key, for determinism. With no such index every row is a
// candidate, and an ORDER BY whose columns are an index's is served by
// walking that index instead of the table. The candidates a plan
// yields may over-approximate; matchingRows re-evaluates the complete
// predicate.
func (t *tableData) planFor(where expr, params []Value, orderBy []string) queryPlan {
	bounds := (&evalCtx{params: params}).collectBounds(where, nil)
	eqOn := func(col string) int {
		return slices.IndexFunc(bounds, func(b colBound) bool { return b.op == "=" && b.col == col })
	}
	var plan queryPlan
	score := 0
	for i := range t.defs { // sorted by key, so the first of a score wins
		d := &t.defs[i]
		w := queryPlan{def: d, pos: i}
		for n := 0; n < len(d.cols); n++ {
			b := eqOn(d.cols[n])
			if b < 0 {
				w.bound(bounds, d.cols[n])
				break
			}
			if w.eqVals == nil {
				w.eqVals = make([]Value, 0, len(d.cols))
			}
			w.eqVals = append(w.eqVals, bounds[b].v)
		}
		s := 4 * len(w.eqVals)
		switch {
		case len(w.eqVals) == len(d.cols):
			s += 3
		case w.lo != nil && w.hi != nil:
			s += 2
		case w.lo != nil || w.hi != nil:
			s++
		}
		if s > score {
			plan, score = w, s
		}
	}
	if plan.def != nil {
		plan.ordered = plan.def.serves(len(plan.eqVals), orderBy)
		return plan
	}
	switch {
	case where == nil:
		plan.scanWhy = "no WHERE clause"
	case len(bounds) == 0:
		plan.scanWhy = "no indexable conjunct in WHERE"
	default:
		plan.scanWhy = "range conjuncts bind no indexed column"
	}
	for i := range t.defs {
		if t.defs[i].serves(0, orderBy) {
			plan.def, plan.pos, plan.ordered = &t.defs[i], i, true
			break
		}
	}
	return plan
}

// walk is the cursor a plan executes through: over the table in
// insertion order, or from the lower bound of the plan's window on its
// index to the upper, in index order.
type walk struct {
	t    *tableData
	p    queryPlan
	rows cursor[rowEntry] // p.def == nil
	ents cursor[idxEntry]
}

func (t *tableData) walk(p queryPlan) walk {
	if p.def == nil {
		return walk{t: t, p: p, rows: t.rows.from(rowEntry{})}
	}
	// The cursor starts at the first key the window's lower bound
	// prefixes. A range without one starts above the NULLs, which no
	// range holds: NaN is the least value that is not NULL.
	from := p.eqVals
	switch {
	case p.lo != nil:
		from = append(slices.Clip(from), *p.lo)
	case p.hi != nil:
		from = append(slices.Clip(from), Real(math.NaN()))
	}
	return walk{t: t, p: p, ents: t.idx[p.pos].from(idxEntry{key: from})}
}

// next returns the next candidate row, and false once the walk has left
// the window.
func (w *walk) next() (rowEntry, bool) {
	if w.p.def == nil {
		return w.rows.next()
	}
	ranged := len(w.p.eqVals) // the column a range bounds
	for {
		e, ok := w.ents.next()
		if !ok {
			return rowEntry{}, false
		}
		for i, v := range w.p.eqVals {
			if compare(e.key[i], v) != 0 {
				return rowEntry{}, false
			}
		}
		if w.p.hi != nil {
			if c := compare(e.key[ranged], *w.p.hi); c > 0 || (c == 0 && !w.p.hiInc) {
				return rowEntry{}, false
			}
		}
		if w.p.lo != nil && !w.p.loInc && compare(e.key[ranged], *w.p.lo) == 0 {
			continue
		}
		return w.t.rows.get(rowEntry{id: e.id})
	}
}

// execExplain resolves the wrapped SELECT's plan against the snapshot.
// It shares planFor and walk with execution, so the printed plan
// cannot diverge from the executed one; the estimate is the candidate
// count the plan yields right now (the re-evaluation of the full
// predicate may keep fewer rows).
func (db *DB) execExplain(st *dbState, s explainStmt, params []Value) (*Rows, error) {
	t, ok := st.tables[normalizeIdent(s.sel.table)]
	if !ok {
		return nil, fmt.Errorf("metadb: no such table %q", s.sel.table)
	}
	plan := t.planFor(s.sel.where, params, s.sel.orderBy)
	ncands := t.rows.n
	if plan.kind() != planScan {
		ncands = 0
		for w := t.walk(plan); ; ncands++ {
			if _, ok := w.next(); !ok {
				break
			}
		}
	}
	lines := []string{
		plan.String(),
		fmt.Sprintf("estimate: scan %d of %d row(s)", ncands, t.rows.n),
	}
	if plan.ordered {
		lines = append(lines, fmt.Sprintf("order by %s served from index %s (no sort)",
			strings.Join(plan.def.cols[len(plan.def.cols)-len(s.sel.orderBy):], ", "), plan.def.name))
	}
	rows := &Rows{Columns: []string{"plan"}}
	for _, l := range lines {
		rows.Data = append(rows.Data, []Value{Text(l)})
	}
	return rows, nil
}
