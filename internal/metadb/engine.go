package metadb

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// DB is an embedded database instance. It is safe for concurrent use,
// and readers scale: every SELECT/EXPLAIN runs against an immutable
// MVCC snapshot obtained with one atomic pointer load, so readers
// never block the writer and never observe a half-applied multi-row
// batch. Writers — INSERT/DELETE, DDL and Load — build the next
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

// Exec runs a statement that returns no rows (DDL, INSERT, DELETE) and
// reports the number of affected rows.
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
	return db.queryStmt(stmt, params)
}

func (db *DB) queryStmt(stmt statement, params []Value) (*Rows, error) {
	switch s := stmt.(type) {
	case selectStmt:
		db.queryCount.Add(1)
		return db.execSelect(db.read(), s, params)
	case explainStmt:
		return db.execExplain(db.read(), s, params)
	}
	return nil, fmt.Errorf("metadb: Query requires a SELECT statement")
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

// matchingRows evaluates the WHERE clause over the plan's candidates and
// returns the rows it keeps — as the ORDER BY wants them where the plan
// serves it (reported as ordered), in insertion order otherwise — and
// accounts the rows examined so callers can verify scans were avoided.
func (db *DB) matchingRows(t *tableData, where expr, params []Value, orderBy []string) (out []rowEntry, ordered bool, err error) {
	if err := t.validateColumns(where); err != nil {
		return nil, false, err
	}
	plan := t.planFor(where, params, orderBy)
	switch plan.kind() {
	case planScan:
		db.planScanCount.Add(1)
	case planEq:
		db.planEqCount.Add(1)
		db.indexHits.Add(1)
	case planRange:
		db.planRangeCount.Add(1)
		db.indexHits.Add(1)
	}
	ctx := &evalCtx{t: t, params: params}
	scanned := int64(0)
	for w := t.walk(plan); err == nil; {
		r, ok := w.next()
		if !ok {
			break
		}
		scanned++
		var keep bool
		if keep, err = ctx.matches(where, r.vals); keep {
			out = append(out, r)
		}
	}
	db.rowsScanned.Add(scanned)
	if err != nil {
		return nil, false, err
	}
	if !plan.ordered && plan.def != nil {
		slices.SortFunc(out, rowEntry.cmp)
	}
	return out, plan.ordered, nil
}

func (db *DB) execSelect(st *dbState, s selectStmt, params []Value) (*Rows, error) {
	t, ok := st.tables[normalizeIdent(s.table)]
	if !ok {
		return nil, fmt.Errorf("metadb: no such table %q", s.table)
	}
	for _, it := range s.items {
		if it.star {
			continue
		}
		if err := t.validateColumns(it.expr); err != nil {
			return nil, err
		}
	}
	matched, ordered, err := db.matchingRows(t, s.where, params, s.orderBy)
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

	// Rows that came out of an index already in the ORDER BY's order skip
	// the sort; the counter lets callers verify that.
	if ordered {
		db.orderSkips.Add(1)
	} else if len(s.orderBy) > 0 {
		pos := make([]int, len(s.orderBy))
		for i, col := range s.orderBy {
			var ok bool
			if pos[i], ok = t.colIdx[normalizeIdent(col)]; !ok {
				return nil, fmt.Errorf("metadb: ORDER BY unknown column %q", col)
			}
		}
		slices.SortStableFunc(matched, func(a, b rowEntry) int {
			for _, p := range pos {
				if c := compare(a.vals[p], b.vals[p]); c != 0 {
					return c
				}
			}
			return 0
		})
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
	return res, nil
}
