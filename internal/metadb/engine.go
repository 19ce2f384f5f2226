package metadb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DB is an embedded database instance. It is safe for concurrent use,
// and readers scale: every SELECT/EXPLAIN runs against an immutable
// MVCC snapshot obtained with one atomic pointer load, so readers
// never block the writer and never observe a half-applied multi-row
// batch. Writers — INSERT/UPDATE/DELETE, DDL and Load — build the next
// version copy-on-write one at a time (see mvcc.go).
type DB struct {
	state atomic.Pointer[dbState]

	// writeMu orders all writers; no reader takes it. editGen names each
	// copy-on-write edit (see tree.go) and is guarded by it.
	writeMu sync.Mutex
	editGen uint64

	// stmtMu guards the shared prepared-statement cache used by the
	// DB-level convenience methods; Session handles bypass it.
	stmtMu    sync.Mutex
	stmtCache map[string]cachedStmt

	queryCount  atomic.Int64 // cumulative statements executed, for cost accounting
	rowsScanned atomic.Int64 // candidate rows examined by WHERE evaluation
	indexHits   atomic.Int64 // statements answered from an index (equality or range)
	orderSkips  atomic.Int64 // ORDER BYs served from index order, skipping the sort

	// Per-plan-kind counts: how WHERE candidates were obtained. The
	// EXPLAIN report and the execution path share one plan selector, so
	// these can never disagree with what EXPLAIN prints.
	planEqCount    atomic.Int64
	planRangeCount atomic.Int64
	planScanCount  atomic.Int64

	snapshots   atomic.Int64 // MVCC snapshots taken by read statements
	commits     atomic.Int64 // state versions published by writers
	writerWaits atomic.Int64 // contended acquisitions of writeMu
}

type cachedStmt struct {
	stmt    statement
	nparams int
}

// index is one version of a hash index over one or more columns (its
// indexDef lives in the table). Single-column indexes
// additionally support range scans and ORDER BY service through the
// sorted view; composite (multi-column) indexes answer only
// full-equality lookups — the shape of the catalog's
// (runid, dataset, timestep) execution-table probes.
type index struct {
	ents tree[idxEntry]
	// sorted is the single-column index's view in value order, built
	// lazily by the first range or ORDER BY statement to need it; sortMu
	// serializes racing builds. A published index is otherwise immutable
	// (a commit gives the table it edits fresh index values), so this is
	// the one tolerated in-place mutation and it is idempotent.
	sortMu sync.Mutex
	sorted []group
}

// group is the rows sharing one distinct value of a single-column
// index, ascending by id.
type group struct {
	val  Value
	rows []rowEntry
}

// lookupEq returns the rows whose index-column tuple equals an equality
// plan's probe tuple (one value per indexed column, in index column
// order), ascending by id. Rows filed under the same hash with another
// tuple are not candidates.
func (t *tableData) lookupEq(p queryPlan) []rowEntry {
	var out []rowEntry
	h := hashTuple(p.eqVals, nil)
	for c := t.idx[p.pos].ents.from(idxEntry{hash: h}); ; {
		e, ok := c.next()
		if !ok || e.hash != h {
			return out
		}
		r, _ := t.rows.get(rowEntry{id: e.id})
		same := true
		for k, col := range p.def.colPos {
			same = same && sameKey(r.vals[col], p.eqVals[k])
		}
		if same {
			out = append(out, r)
		}
	}
}

// sortedGroups builds (once per index version) and returns the value-
// ordered view of single-column index i. Entries arrive grouped by
// hash; the rows of one hash usually share one value, and are split by
// value where two collided.
func (t *tableData) sortedGroups(i int) []group {
	ix := t.idx[i]
	ix.sortMu.Lock()
	defer ix.sortMu.Unlock()
	if ix.sorted != nil {
		return ix.sorted
	}
	gs := make([]group, 0, 16)
	first, hash := 0, uint64(0) // where the current hash's groups start
	for e := range ix.ents.all() {
		if e.hash != hash {
			first, hash = len(gs), e.hash
		}
		r, _ := t.rows.get(rowEntry{id: e.id})
		v := r.vals[t.defs[i].colPos[0]]
		g := first
		for g < len(gs) && !sameKey(gs[g].val, v) {
			g++
		}
		if g == len(gs) {
			gs = append(gs, group{val: v})
		}
		gs[g].rows = append(gs[g].rows, r)
	}
	slices.SortFunc(gs, func(a, b group) int { return compare(a.val, b.val) })
	ix.sorted = gs
	return gs
}

// lookupRange returns the rows of every group within the given bounds.
// A nil bound is unbounded on that side. The result is a fresh slice in
// group order; callers re-evaluate the full predicate and sort, so
// over-approximation is harmless.
func (t *tableData) lookupRange(p queryPlan) []rowEntry {
	var out []rowEntry
	s := t.sortedGroups(p.pos)
	start := 0
	if p.lo != nil {
		start = sort.Search(len(s), func(i int) bool {
			c := compare(s[i].val, *p.lo)
			return c > 0 || (c == 0 && p.loInc)
		})
	}
	end := len(s)
	if p.hi != nil {
		end = sort.Search(len(s), func(i int) bool {
			c := compare(s[i].val, *p.hi)
			return c > 0 || (c == 0 && !p.hiInc)
		})
	}
	for _, g := range s[start:max(start, end)] { // contradictory bounds select nothing
		out = append(out, g.rows...)
	}
	return out
}

// orderRows reorders matched rows into an index's value order —
// groups ascending (or descending) by compare, ids ascending within
// each distinct value — which is exactly what the stable result sort
// over insertion-ordered rows produces, so serving ORDER BY from the
// index is output-identical to sorting.
func (t *tableData) orderRows(pos int, matched []rowEntry, desc bool, scr *sortScratch) []rowEntry {
	if scr == nil {
		scr = &sortScratch{}
	}
	if scr.want == nil {
		scr.want = make(map[int64]bool, len(matched))
	}
	clear(scr.want)
	for _, m := range matched {
		scr.want[m.id] = true
	}
	view := t.sortedGroups(pos)
	out := make([]rowEntry, 0, len(matched))
	for i := range view {
		if desc {
			i = len(view) - 1 - i
		}
		for _, r := range view[i].rows {
			if scr.want[r.id] {
				out = append(out, r)
			}
		}
	}
	return out
}

// New creates an empty database.
func New() *DB {
	db := &DB{stmtCache: make(map[string]cachedStmt)}
	db.state.Store(&dbState{tables: make(map[string]*tableData)})
	return db
}

// read takes an MVCC snapshot: one atomic load, no locks. Everything
// reachable from the returned state is immutable.
func (db *DB) read() *dbState {
	db.snapshots.Add(1)
	return db.state.Load()
}

// QueryCount reports how many statements have executed, which the
// catalog layer uses to charge simulated database-access time.
func (db *DB) QueryCount() int64 { return db.queryCount.Load() }

// Stats is one consistent view of every DB counter: statements
// executed, candidate rows the WHERE evaluator examined, statements
// answered from an index (equality or range), ORDER BYs served from
// index order, and how candidates were obtained, by plan kind.
type Stats struct {
	Queries     int64
	RowsScanned int64
	IndexHits   int64
	OrderSkips  int64

	PlanEq    int64
	PlanRange int64
	PlanScan  int64

	Snapshots int64
	Commits   int64

	// Named for the hash-sharded engine this one replaced and kept
	// because benchmark/ reads them; a benchmark-archetype PR retires
	// them. Every table is one tree set, so PlanSingleShard is every
	// planned statement and PlanScatter is 0; ShardWaits is the
	// contended acquisitions of the writer mutex.
	PlanSingleShard int64
	PlanScatter     int64
	ShardWaits      int64
}

func (db *DB) loadStats() Stats {
	st := Stats{
		Queries:     db.queryCount.Load(),
		RowsScanned: db.rowsScanned.Load(),
		IndexHits:   db.indexHits.Load(),
		OrderSkips:  db.orderSkips.Load(),
		PlanEq:      db.planEqCount.Load(),
		PlanRange:   db.planRangeCount.Load(),
		PlanScan:    db.planScanCount.Load(),
		Snapshots:   db.snapshots.Load(),
		Commits:     db.commits.Load(),
		ShardWaits:  db.writerWaits.Load(),
	}
	st.PlanSingleShard = st.PlanEq + st.PlanRange + st.PlanScan
	return st
}

// StatsSnapshot returns a stable snapshot of the counters: it re-reads
// until two consecutive reads agree, so a caller comparing counter
// deltas around a quiescent point cannot observe a half-updated set
// even while other statements are in flight.
func (db *DB) StatsSnapshot() Stats {
	s := db.loadStats()
	for {
		s2 := db.loadStats()
		if s2 == s {
			return s
		}
		s = s2
	}
}

// Rows is a query result: column labels plus row data.
type Rows struct {
	Columns []string
	Data    [][]Value
}

// Len reports the number of rows.
func (r *Rows) Len() int { return len(r.Data) }

// prepare parses src, consulting the shared statement cache.
func (db *DB) prepare(src string) (statement, int, error) {
	db.stmtMu.Lock()
	if c, ok := db.stmtCache[src]; ok {
		db.stmtMu.Unlock()
		return c.stmt, c.nparams, nil
	}
	db.stmtMu.Unlock()
	stmt, nparams, err := parse(src)
	if err != nil {
		return nil, 0, err
	}
	db.stmtMu.Lock()
	db.stmtCache[src] = cachedStmt{stmt, nparams}
	db.stmtMu.Unlock()
	return stmt, nparams, nil
}

func convertArgs(nparams int, args []any) ([]Value, error) {
	if len(args) != nparams {
		return nil, fmt.Errorf("metadb: statement has %d parameters, got %d arguments", nparams, len(args))
	}
	vals := make([]Value, len(args))
	for i, a := range args {
		v, err := GoValue(a)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// Exec runs a statement that returns no rows (DDL, INSERT, UPDATE,
// DELETE) and reports the number of affected rows.
func (db *DB) Exec(src string, args ...any) (int, error) {
	stmt, nparams, err := db.prepare(src)
	if err != nil {
		return 0, err
	}
	params, err := convertArgs(nparams, args)
	if err != nil {
		return 0, err
	}
	return db.execStmt(stmt, params)
}

func (db *DB) execStmt(stmt statement, params []Value) (int, error) {
	db.queryCount.Add(1)
	cur := db.beginWrite()
	defer db.writeMu.Unlock()
	switch s := stmt.(type) {
	case createTableStmt:
		return 0, db.execCreateTable(cur, s)
	case createIndexStmt:
		return 0, db.execCreateIndex(cur, s)
	case dropTableStmt:
		return 0, db.execDropTable(cur, s)
	case insertStmt:
		return db.execInsert(cur, s, params)
	case updateStmt:
		return db.execUpdate(cur, s, params)
	case deleteStmt:
		return db.execDelete(cur, s, params)
	case selectStmt:
		return 0, fmt.Errorf("metadb: use Query for SELECT")
	}
	return 0, fmt.Errorf("metadb: unhandled statement type %T", stmt)
}

// Query runs a SELECT (or EXPLAIN SELECT, whose rows are the chosen
// access plan) and returns its rows.
func (db *DB) Query(src string, args ...any) (*Rows, error) {
	stmt, nparams, err := db.prepare(src)
	if err != nil {
		return nil, err
	}
	params, err := convertArgs(nparams, args)
	if err != nil {
		return nil, err
	}
	return db.queryStmt(stmt, params, nil)
}

func (db *DB) queryStmt(stmt statement, params []Value, scr *sortScratch) (*Rows, error) {
	switch s := stmt.(type) {
	case selectStmt:
		db.queryCount.Add(1)
		return db.execSelect(db.read(), s, params, scr)
	case explainStmt:
		return db.execExplain(db.read(), s, params)
	}
	return nil, fmt.Errorf("metadb: Query requires a SELECT statement")
}

// execExplain resolves the wrapped SELECT's plan against the snapshot.
// It shares planFor/probe with execution, so the printed plan cannot
// diverge from the executed one; the estimate is the candidate count
// the plan yields right now (the re-evaluation of the full predicate
// may keep fewer rows).
func (db *DB) execExplain(st *dbState, s explainStmt, params []Value) (*Rows, error) {
	t, ok := st.tables[normalizeIdent(s.sel.table)]
	if !ok {
		return nil, fmt.Errorf("metadb: no such table %q", s.sel.table)
	}
	plan := t.planFor(s.sel.where, params)
	ncands := t.rows.n
	if plan.kind != planScan {
		ncands = len(t.probe(plan))
	}
	lines := []string{
		plan.String(),
		fmt.Sprintf("estimate: scan %d of %d row(s)", ncands, t.rows.n),
	}
	if len(s.sel.orderBy) == 1 {
		if i := t.indexOf(normalizeIdent(s.sel.orderBy[0].col)); i >= 0 {
			lines = append(lines, fmt.Sprintf("order by %s served from index %s (no sort)",
				s.sel.orderBy[0].col, t.defs[i].name))
		}
	}
	rows := &Rows{Columns: []string{"plan"}}
	for _, l := range lines {
		rows.Data = append(rows.Data, []Value{Text(l)})
	}
	return rows, nil
}

// QueryRow runs a SELECT expected to produce at most one row; it
// returns (nil, nil) when no row matches.
func (db *DB) QueryRow(src string, args ...any) ([]Value, error) {
	rows, err := db.Query(src, args...)
	if err != nil {
		return nil, err
	}
	if rows.Len() == 0 {
		return nil, nil
	}
	return rows.Data[0], nil
}

// TableNames lists tables in lexical order.
func (db *DB) TableNames() []string {
	st := db.state.Load()
	names := make([]string, 0, len(st.tables))
	for n := range st.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Columns reports a table's column names in declaration order.
func (db *DB) Columns(tableName string) ([]string, error) {
	st := db.state.Load()
	t, ok := st.tables[normalizeIdent(tableName)]
	if !ok {
		return nil, fmt.Errorf("metadb: no such table %q", tableName)
	}
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.name
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

// evalCtx binds an expression to an optional current row.
type evalCtx struct {
	t      *tableData
	row    []Value
	params []Value
}

func (ctx *evalCtx) eval(e expr) (Value, error) {
	switch x := e.(type) {
	case litExpr:
		return x.v, nil
	case paramExpr:
		return ctx.params[x.idx], nil
	case colExpr:
		if ctx.t == nil || ctx.row == nil {
			return Value{}, fmt.Errorf("metadb: column %q referenced outside row context", x.name)
		}
		pos, ok := ctx.t.colIdx[normalizeIdent(x.name)]
		if !ok {
			return Value{}, fmt.Errorf("metadb: no column %q in table %q", x.name, ctx.t.name)
		}
		return ctx.row[pos], nil
	case isNullExpr:
		v, err := ctx.eval(x.e)
		if err != nil {
			return Value{}, err
		}
		res := v.IsNull()
		if x.negate {
			res = !res
		}
		return boolVal(res), nil
	case unaryExpr:
		v, err := ctx.eval(x.e)
		if err != nil {
			return Value{}, err
		}
		switch x.op {
		case "NOT":
			if v.IsNull() {
				return Null(), nil
			}
			return boolVal(!truthy(v)), nil
		case "-":
			switch v.Kind() {
			case KindInt:
				return Int(-v.AsInt()), nil
			case KindReal:
				return Real(-v.AsReal()), nil
			case KindNull:
				return Null(), nil
			}
			return Value{}, fmt.Errorf("metadb: cannot negate %s value", v.Kind())
		}
		return Value{}, fmt.Errorf("metadb: unknown unary operator %q", x.op)
	case binExpr:
		return ctx.evalBinary(x)
	}
	return Value{}, fmt.Errorf("metadb: unhandled expression %T", e)
}

func (ctx *evalCtx) evalBinary(x binExpr) (Value, error) {
	l, err := ctx.eval(x.l)
	if err != nil {
		return Value{}, err
	}
	// Short-circuit logic operators.
	switch x.op {
	case "AND":
		if !l.IsNull() && !truthy(l) {
			return boolVal(false), nil
		}
		r, err := ctx.eval(x.r)
		if err != nil {
			return Value{}, err
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return boolVal(truthy(l) && truthy(r)), nil
	case "OR":
		if !l.IsNull() && truthy(l) {
			return boolVal(true), nil
		}
		r, err := ctx.eval(x.r)
		if err != nil {
			return Value{}, err
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return boolVal(truthy(l) || truthy(r)), nil
	}
	r, err := ctx.eval(x.r)
	if err != nil {
		return Value{}, err
	}
	switch x.op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c := compare(l, r)
		var res bool
		switch x.op {
		case "=":
			res = c == 0
		case "!=":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return boolVal(res), nil
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		if x.op == "+" && l.Kind() == KindText && r.Kind() == KindText {
			return Text(l.AsText() + r.AsText()), nil
		}
		if !l.numeric() || !r.numeric() {
			return Value{}, fmt.Errorf("metadb: arithmetic on non-numeric values (%s %s %s)", l.Kind(), x.op, r.Kind())
		}
		if l.Kind() == KindInt && r.Kind() == KindInt && x.op != "/" {
			a, b := l.AsInt(), r.AsInt()
			switch x.op {
			case "+":
				return Int(a + b), nil
			case "-":
				return Int(a - b), nil
			case "*":
				return Int(a * b), nil
			}
		}
		a, b := l.AsReal(), r.AsReal()
		switch x.op {
		case "+":
			return Real(a + b), nil
		case "-":
			return Real(a - b), nil
		case "*":
			return Real(a * b), nil
		case "/":
			if b == 0 {
				return Null(), nil
			}
			if l.Kind() == KindInt && r.Kind() == KindInt {
				return Int(l.AsInt() / r.AsInt()), nil
			}
			return Real(a / b), nil
		}
	}
	return Value{}, fmt.Errorf("metadb: unknown operator %q", x.op)
}

func boolVal(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

func truthy(v Value) bool {
	switch v.Kind() {
	case KindInt:
		return v.AsInt() != 0
	case KindReal:
		return v.AsReal() != 0
	case KindNull:
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// Plan selection
// ---------------------------------------------------------------------------

// colBound is one `col OP const` conjunct extracted from a WHERE
// clause, with OP normalized so the column is on the left.
type colBound struct {
	col string
	op  string
	e   expr
}

// flipOp mirrors a comparison when the column sits on the right-hand
// side (`5 < col` becomes `col > 5`).
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // "=" is symmetric
}

// collectBounds walks the top-level AND conjuncts of a WHERE clause and
// gathers every indexable `col OP const` comparison.
func collectBounds(where expr, bounds []colBound) []colBound {
	b, ok := where.(binExpr)
	if !ok {
		return bounds
	}
	if b.op == "AND" {
		bounds = collectBounds(b.l, bounds)
		return collectBounds(b.r, bounds)
	}
	switch b.op {
	case "=", "<", "<=", ">", ">=":
	default:
		return bounds
	}
	if c, ok := b.l.(colExpr); ok && isConstExpr(b.r) {
		bounds = append(bounds, colBound{normalizeIdent(c.name), b.op, b.r})
	} else if c, ok := b.r.(colExpr); ok && isConstExpr(b.l) {
		bounds = append(bounds, colBound{normalizeIdent(c.name), flipOp(b.op), b.l})
	}
	return bounds
}

// planKind classifies how a statement obtains its candidate rows.
type planKind int

const (
	planScan  planKind = iota // full table scan
	planEq                    // equality probe into an index's hash bucket
	planRange                 // range window over a single-column index
)

// queryPlan is the chosen access path for one WHERE clause: which
// index (if any), why, and the probe parameters. The execution path
// (matchingRows) and the EXPLAIN report are both driven by this one
// value, so the plan printed is by construction the plan executed. It
// keeps the numbers behind the EXPLAIN sentence, not the sentence:
// only String formats, and only EXPLAIN calls it.
type queryPlan struct {
	kind planKind
	def  *indexDef // nil for planScan
	pos  int       // the index's position in the table's idx

	scanWhy string // planScan: why no index serves the WHERE clause

	eqVals []Value // planEq probe tuple, in def.cols order
	nEq    int     // planEq: columns the WHERE clause binds by equality

	lo, hi       *Value // planRange window
	loInc, hiInc bool
}

// String renders the plan as the EXPLAIN line.
func (p queryPlan) String() string {
	switch p.kind {
	case planEq:
		return fmt.Sprintf("equality probe on index %s (%s): %d equality conjunct(s) cover all %d index column(s)",
			p.def.name, strings.Join(p.def.cols, ", "), p.nEq, len(p.def.cols))
	case planRange:
		return fmt.Sprintf("range scan on index %s (%s): %s",
			p.def.name, strings.Join(p.def.cols, ", "), p.window())
	default:
		return "full table scan: " + p.scanWhy
	}
}

// planFor chooses the access path for a WHERE clause. The index whose
// columns are all bound by equality conjuncts — the widest such index,
// so a composite (runid, dataset, timestep) index beats the
// single-column one when the probe binds all three — answers from its
// hash bucket; otherwise `<`, `<=`, `>`, `>=` conjuncts on an indexed
// column (including BETWEEN-shaped `lo <= col AND col <= hi` pairs)
// answer from a single-column index's ordered buckets. Only with no
// indexable conjunct does the full table scan remain. The candidates a
// plan yields may over-approximate; matchingIDs re-evaluates the
// complete predicate.
func (t *tableData) planFor(where expr, params []Value) queryPlan {
	bounds := collectBounds(where, nil)
	if len(bounds) == 0 {
		why := "no WHERE clause"
		if where != nil {
			why = "no indexable conjunct in WHERE"
		}
		return queryPlan{kind: planScan, scanWhy: why}
	}
	ctx := &evalCtx{params: params}
	// Prefer an exact equality lookup: gather the equality-bound
	// columns, then pick the widest index fully covered by them
	// (lexically smallest key on ties, for determinism).
	var eqCols map[string]Value
	for _, bd := range bounds {
		if bd.op != "=" {
			continue
		}
		v, err := ctx.eval(bd.e)
		if err != nil {
			continue
		}
		if eqCols == nil {
			eqCols = make(map[string]Value, 4)
		}
		if _, dup := eqCols[bd.col]; !dup {
			eqCols[bd.col] = v
		}
	}
	if eqCols != nil {
		best := -1
		for i, d := range t.defs { // sorted by key, so the first of a width wins
			covered := true
			for _, c := range d.cols {
				if _, ok := eqCols[c]; !ok {
					covered = false
					break
				}
			}
			if covered && (best < 0 || len(d.cols) > len(t.defs[best].cols)) {
				best = i
			}
		}
		if best >= 0 {
			d := &t.defs[best]
			vals := make([]Value, len(d.cols))
			for i, c := range d.cols {
				vals[i] = eqCols[c]
			}
			return queryPlan{kind: planEq, def: d, pos: best, eqVals: vals, nEq: len(eqCols)}
		}
	}
	// Otherwise intersect the range conjuncts per indexed column and
	// scan the tightest single-column window.
	type window struct {
		lo, hi       *Value
		loInc, hiInc bool
		bounded      bool
		pos          int
	}
	windows := make(map[string]*window)
	for _, bd := range bounds {
		pos := t.indexOf(bd.col)
		if pos < 0 {
			continue
		}
		v, err := ctx.eval(bd.e)
		if err != nil || v.IsNull() {
			continue
		}
		w := windows[bd.col]
		if w == nil {
			w = &window{pos: pos}
			windows[bd.col] = w
		}
		val := v
		switch bd.op {
		case ">", ">=":
			inc := bd.op == ">="
			if w.lo == nil || compare(val, *w.lo) > 0 || (compare(val, *w.lo) == 0 && !inc) {
				w.lo, w.loInc = &val, inc
			}
		case "<", "<=":
			inc := bd.op == "<="
			if w.hi == nil || compare(val, *w.hi) < 0 || (compare(val, *w.hi) == 0 && !inc) {
				w.hi, w.hiInc = &val, inc
			}
		}
		w.bounded = w.lo != nil || w.hi != nil
	}
	// Pick the two-sided window if one exists, else any one-sided one.
	var best *window
	for _, w := range windows {
		if !w.bounded {
			continue
		}
		if best == nil {
			best = w
			continue
		}
		if (w.lo != nil && w.hi != nil) && (best.lo == nil || best.hi == nil) {
			best = w
		}
	}
	if best == nil {
		return queryPlan{kind: planScan, scanWhy: "range conjuncts bind no indexed column"}
	}
	return queryPlan{
		kind: planRange, def: &t.defs[best.pos], pos: best.pos,
		lo: best.lo, hi: best.hi, loInc: best.loInc, hiInc: best.hiInc,
	}
}

// window describes a range plan's window, e.g. "10 <= timestep < 20".
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
	sb.WriteString(p.def.key)
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

// probe yields an index plan's candidate rows, in a fresh slice and no
// particular order.
func (t *tableData) probe(p queryPlan) []rowEntry {
	if p.kind == planRange {
		return t.lookupRange(p)
	}
	return t.lookupEq(p)
}

func isConstExpr(e expr) bool {
	switch x := e.(type) {
	case litExpr, paramExpr:
		return true
	case unaryExpr:
		return isConstExpr(x.e)
	case binExpr:
		return x.op != "AND" && x.op != "OR" && isConstExpr(x.l) && isConstExpr(x.r)
	}
	return false
}

// matchingRows evaluates the WHERE clause over candidates, returns the
// rows it keeps in insertion order, and accounts the rows examined so
// callers can verify scans were avoided.
func (db *DB) matchingRows(t *tableData, where expr, params []Value) ([]rowEntry, error) {
	plan := t.planFor(where, params)
	ctx := &evalCtx{t: t, params: params}
	if plan.kind == planScan {
		db.planScanCount.Add(1)
		db.rowsScanned.Add(int64(t.rows.n))
		var out []rowEntry
		for r := range t.rows.all() {
			if ok, err := ctx.matches(where, r.vals); err != nil {
				return nil, err
			} else if ok {
				out = append(out, r)
			}
		}
		return out, nil
	}
	if plan.kind == planEq {
		db.planEqCount.Add(1)
	} else {
		db.planRangeCount.Add(1)
	}
	cands := t.probe(plan)
	db.rowsScanned.Add(int64(len(cands)))
	db.indexHits.Add(1)
	out := cands[:0]
	for _, r := range cands {
		if ok, err := ctx.matches(where, r.vals); err != nil {
			return nil, err
		} else if ok {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, rowEntry.cmp)
	return out, nil
}

// matches reports whether a row satisfies a WHERE clause (nil: all do).
func (ctx *evalCtx) matches(where expr, row []Value) (bool, error) {
	if where == nil {
		return true, nil
	}
	ctx.row = row
	v, err := ctx.eval(where)
	return err == nil && !v.IsNull() && truthy(v), err
}

// validateColumns rejects references to columns the table lacks, so
// malformed queries fail even when no rows would be scanned.
func (t *tableData) validateColumns(e expr) error {
	switch x := e.(type) {
	case nil, litExpr, paramExpr:
		return nil
	case colExpr:
		if _, ok := t.colIdx[normalizeIdent(x.name)]; !ok {
			return fmt.Errorf("metadb: no column %q in table %q", x.name, t.name)
		}
		return nil
	case binExpr:
		if err := t.validateColumns(x.l); err != nil {
			return err
		}
		return t.validateColumns(x.r)
	case unaryExpr:
		return t.validateColumns(x.e)
	case isNullExpr:
		return t.validateColumns(x.e)
	}
	return nil
}

func (db *DB) execSelect(st *dbState, s selectStmt, params []Value, scr *sortScratch) (*Rows, error) {
	t, ok := st.tables[normalizeIdent(s.table)]
	if !ok {
		return nil, fmt.Errorf("metadb: no such table %q", s.table)
	}
	if err := t.validateColumns(s.where); err != nil {
		return nil, err
	}
	for _, it := range s.items {
		if it.star {
			continue
		}
		if err := t.validateColumns(it.expr); err != nil {
			return nil, err
		}
	}
	matched, err := db.matchingRows(t, s.where, params)
	if err != nil {
		return nil, err
	}

	// Expand the projection, replacing * with all columns.
	var items []selectItem
	aggregated := false
	for _, it := range s.items {
		if it.star {
			for _, c := range t.cols {
				items = append(items, selectItem{expr: colExpr{c.name}, name: c.name})
			}
			continue
		}
		if it.agg != "" {
			aggregated = true
		}
		items = append(items, it)
	}
	if aggregated {
		for _, it := range items {
			if it.agg == "" {
				return nil, fmt.Errorf("metadb: mixing aggregates and plain columns without GROUP BY")
			}
		}
	}

	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = it.name
	}
	res := &Rows{Columns: cols}
	ctx := &evalCtx{t: t, params: params}

	if aggregated {
		out := make([]Value, len(items))
		counts := make([]int64, len(items))
		for _, m := range matched {
			ctx.row = m.vals
			for i, it := range items {
				switch it.agg {
				case "COUNT":
					if it.expr == nil {
						counts[i]++
						continue
					}
					v, err := ctx.eval(it.expr)
					if err != nil {
						return nil, err
					}
					if !v.IsNull() {
						counts[i]++
					}
				case "MAX", "MIN":
					v, err := ctx.eval(it.expr)
					if err != nil {
						return nil, err
					}
					if v.IsNull() {
						continue
					}
					if out[i].IsNull() ||
						(it.agg == "MAX" && compare(v, out[i]) > 0) ||
						(it.agg == "MIN" && compare(v, out[i]) < 0) {
						out[i] = v
					}
				}
			}
		}
		for i, it := range items {
			if it.agg == "COUNT" {
				out[i] = Int(counts[i])
			}
		}
		res.Data = [][]Value{out}
		return res, nil
	}

	// When the single sort key is the indexed column, emit rows in the
	// index's value order and skip the sort entirely (the ROADMAP's
	// ORDER-BY-from-index step); the counter lets callers verify the
	// sort was skipped.
	orderedByIndex := false
	if len(s.orderBy) == 1 {
		if pos := t.indexOf(normalizeIdent(s.orderBy[0].col)); pos >= 0 {
			matched = t.orderRows(pos, matched, s.orderBy[0].desc, scr)
			orderedByIndex = true
			db.orderSkips.Add(1)
		}
	}

	for _, m := range matched {
		ctx.row = m.vals
		row := make([]Value, len(items))
		for i, it := range items {
			v, err := ctx.eval(it.expr)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		res.Data = append(res.Data, row)
	}

	if len(s.orderBy) > 0 && !orderedByIndex {
		// Order by the projected column when present; otherwise fall
		// back to the source row's column value.
		keyPos := make([]int, len(s.orderBy))
		srcPos := make([]int, len(s.orderBy))
		for i, k := range s.orderBy {
			pos, ok := t.colIdx[normalizeIdent(k.col)]
			if !ok {
				return nil, fmt.Errorf("metadb: ORDER BY unknown column %q", k.col)
			}
			keyPos[i], srcPos[i] = -1, pos
			for j, c := range cols {
				if normalizeIdent(c) == normalizeIdent(k.col) {
					keyPos[i] = j
					break
				}
			}
		}
		type sortable struct {
			row  []Value
			keys []Value
		}
		items2 := make([]sortable, len(res.Data))
		for r := range res.Data {
			keys := make([]Value, len(s.orderBy))
			for i, kp := range keyPos {
				if kp >= 0 {
					keys[i] = res.Data[r][kp]
				} else {
					keys[i] = matched[r].vals[srcPos[i]]
				}
			}
			items2[r] = sortable{res.Data[r], keys}
		}
		sort.SliceStable(items2, func(a, b int) bool {
			for i, k := range s.orderBy {
				c := compare(items2[a].keys[i], items2[b].keys[i])
				if c == 0 {
					continue
				}
				if k.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		for r := range items2 {
			res.Data[r] = items2[r].row
		}
	}

	if s.limit != nil {
		lv, err := (&evalCtx{params: params}).eval(s.limit)
		if err != nil {
			return nil, err
		}
		if lv.Kind() != KindInt {
			return nil, fmt.Errorf("metadb: LIMIT must be an integer")
		}
		n := int(lv.AsInt())
		if n < 0 {
			n = 0
		}
		if n < len(res.Data) {
			res.Data = res.Data[:n]
		}
	}
	return res, nil
}
