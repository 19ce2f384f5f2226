package metadb

// MVCC core: the entire database contents live in one immutable
// dbState reachable through an atomic pointer. A reader performs a
// single pointer load and owns a consistent snapshot for the whole
// statement — no locks, no torn multi-row batches, old versions are
// reclaimed by the GC once the last reader drops them. Writers take
// turns (LMDB's rule: one writer at a time, readers never block): a
// write statement holds the DB's writer mutex from loading the tip to
// storing its successor, so the tip cannot move under it and there is
// nothing to rebase.

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// dbState is one immutable version of the whole database. Everything
// reachable from it — tables, tree nodes, rows — is frozen at publish
// time.
type dbState struct {
	version int64
	tables  map[string]*tableData
}

// tableData is one immutable version of a table: schema, rows by
// ascending id, and one tree per index.
type tableData struct {
	name   string
	cols   []columnDef
	colIdx map[string]int
	// defs lists the indexes sorted by key; idx is parallel to it.
	defs []indexDef

	rows tree[rowEntry]
	idx  []tree[idxEntry]
	// nextID is the id the next inserted row gets. Ids are never reused,
	// so ascending id order is insertion order.
	nextID int64
}

// indexDef is the schema-level identity of an index. key is the column
// names joined by commas, which is how an index is found and what a
// table may hold only one of. adjacent: the columns lie side by side in
// the table, in index order.
type indexDef struct {
	name     string
	key      string
	cols     []string
	colPos   []int
	adjacent bool
}

func newIndexDef(name string, cols []string, colPos []int) indexDef {
	adjacent := true
	for i, p := range colPos {
		adjacent = adjacent && p == colPos[0]+i
	}
	return indexDef{name, strings.Join(cols, ","), cols, colPos, adjacent}
}

// entry files a row in the index. Where the index columns are adjacent,
// as those of every index the catalog declares are, the key is the
// row's own values; otherwise a copy of them.
func (d *indexDef) entry(id int64, row []Value) idxEntry {
	if d.adjacent {
		lo, hi := d.colPos[0], d.colPos[0]+len(d.colPos)
		return idxEntry{row[lo:hi:hi], id}
	}
	key := make([]Value, len(d.colPos))
	for i, p := range d.colPos {
		key[i] = row[p]
	}
	return idxEntry{key, id}
}

// byKey is the order a table lists its indexes in.
func byKey(a, b indexDef) int { return strings.Compare(a.key, b.key) }

// maxIndexes bounds the indexes of one table, and with it what a
// snapshot's index list can make Load build per row.
const maxIndexes = 32

// rowEntry is one stored row. Ids ascend in insertion order.
type rowEntry struct {
	id   int64
	vals []Value
}

func (a rowEntry) cmp(b rowEntry) int { return cmp.Compare(a.id, b.id) }

// idxEntry files a row under the values of its index columns, then its
// id: the order of compare, column by column, which is total. A probe
// is an entry whose key may stop short; it sorts before every key it
// prefixes, so a cursor from it starts at the first of them.
type idxEntry struct {
	key []Value
	id  int64
}

func (a idxEntry) cmp(b idxEntry) int {
	for i := range min(len(a.key), len(b.key)) {
		if c := a.key[i].compare(&b.key[i]); c != 0 {
			return c
		}
	}
	if c := cmp.Compare(len(a.key), len(b.key)); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// indexOf returns the position in defs of the index with this key, or
// -1.
func (t *tableData) indexOf(key string) int {
	return slices.IndexFunc(t.defs, func(d indexDef) bool { return d.key == key })
}

// buildIndex bulk-builds an index over rows, using ents (one per row)
// as the tree's storage.
func buildIndex(d indexDef, rows []rowEntry, ents []idxEntry) tree[idxEntry] {
	for i, r := range rows {
		ents[i] = d.entry(r.id, r.vals)
	}
	slices.SortFunc(ents, idxEntry.cmp)
	return bulkTree(ents)
}

// buildTable constructs a fully indexed table from rows in insertion
// order with ids 0, 1, 2, …; defs is sorted by key. It gives up rows.
func buildTable(name string, cols []columnDef, colIdx map[string]int, defs []indexDef, rows []rowEntry) *tableData {
	t := &tableData{name: name, cols: cols, colIdx: colIdx, defs: defs, nextID: int64(len(rows))}
	ents := make([]idxEntry, len(rows)*len(defs))
	t.idx = make([]tree[idxEntry], len(defs))
	for i, d := range defs {
		lo, hi := i*len(rows), (i+1)*len(rows)
		t.idx[i] = buildIndex(d, rows, ents[lo:hi:hi])
	}
	t.rows = bulkTree(rows)
	return t
}

// withIndex returns a version of the table with one index added. The
// rows are unchanged, so the existing indexes are shared as they are.
func (t *tableData) withIndex(d indexDef) *tableData {
	nt := *t
	pos, _ := slices.BinarySearchFunc(t.defs, d, byKey)
	rows := slices.Collect(t.rows.all())
	nt.defs = slices.Insert(slices.Clone(t.defs), pos, d)
	nt.idx = slices.Insert(slices.Clone(t.idx), pos, buildIndex(d, rows, make([]idxEntry, len(rows))))
	return &nt
}

// ---------------------------------------------------------------------------
// Writer coordination
// ---------------------------------------------------------------------------

// beginWrite takes the writer mutex, counting contended acquisitions,
// and returns the tip, which stays the tip until the caller unlocks.
func (db *DB) beginWrite() *dbState {
	if !db.writeMu.TryLock() {
		db.writerWaits.Add(1)
		db.writeMu.Lock()
	}
	return db.state.Load()
}

// publish installs cur's successor with one table replaced (or, with
// t == nil, removed). The caller holds the writer mutex.
func (db *DB) publish(cur *dbState, name string, t *tableData) {
	tables := maps.Clone(cur.tables)
	if t == nil {
		delete(tables, name)
	} else {
		tables[name] = t
	}
	db.state.Store(&dbState{version: cur.version + 1, tables: tables})
	db.commits.Add(1)
}

// ---------------------------------------------------------------------------
// Copy-on-write edits
// ---------------------------------------------------------------------------

// tableEdit builds the next version of a table. It starts as a copy of
// the published version's tree roots; put and del then copy only the
// nodes on the paths they change (see tree.go), so a commit costs what
// its batch touches, not what the table holds —
// TestCommitCostFlatInTableSize pins that.
type tableEdit struct {
	t   *tableData
	gen uint64
}

// newTableEdit starts an edit of the published version t; the caller
// holds the writer mutex.
func (db *DB) newTableEdit(t *tableData) *tableEdit {
	db.editGen++
	nt := *t
	nt.idx = slices.Clone(t.idx)
	return &tableEdit{t: &nt, gen: db.editGen}
}

func (te *tableEdit) insert(row []Value) {
	id := te.t.nextID
	te.t.nextID++
	te.t.rows.put(te.gen, rowEntry{id, row})
	for i := range te.t.defs {
		te.t.idx[i].put(te.gen, te.t.defs[i].entry(id, row))
	}
}

func (te *tableEdit) remove(id int64, row []Value) {
	te.t.rows.del(te.gen, rowEntry{id: id})
	for i := range te.t.defs {
		te.t.idx[i].del(te.gen, te.t.defs[i].entry(id, row))
	}
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

func (db *DB) execCreateTable(cur *dbState, s createTableStmt) error {
	name := normalizeIdent(s.name)
	if _, exists := cur.tables[name]; exists {
		if s.ifNotExists {
			return nil
		}
		return fmt.Errorf("metadb: table %q already exists", s.name)
	}
	colIdx := make(map[string]int)
	var cols []columnDef
	for _, c := range s.cols {
		cn := normalizeIdent(c.name)
		if _, dup := colIdx[cn]; dup {
			return fmt.Errorf("metadb: duplicate column %q in table %q", c.name, s.name)
		}
		colIdx[cn] = len(cols)
		cols = append(cols, columnDef{cn, c.kind})
	}
	db.publish(cur, name, &tableData{name: name, cols: cols, colIdx: colIdx})
	return nil
}

func (db *DB) execCreateIndex(cur *dbState, s createIndexStmt) error {
	t, ok := cur.tables[normalizeIdent(s.table)]
	if !ok {
		return fmt.Errorf("metadb: no such table %q", s.table)
	}
	cols := make([]string, len(s.columns))
	colPos := make([]int, len(s.columns))
	for i, c := range s.columns {
		col := normalizeIdent(c)
		pos, ok := t.colIdx[col]
		if !ok {
			return fmt.Errorf("metadb: no column %q in table %q", c, s.table)
		}
		cols[i] = col
		colPos[i] = pos
	}
	d := newIndexDef(normalizeIdent(s.name), cols, colPos)
	if t.indexOf(d.key) >= 0 {
		if s.ifNotExists {
			return nil
		}
		return fmt.Errorf("metadb: index on %s(%s) already exists", s.table, d.key)
	}
	if len(t.defs) == maxIndexes {
		return fmt.Errorf("metadb: table %q already has %d indexes", s.table, maxIndexes)
	}
	db.publish(cur, t.name, t.withIndex(d))
	return nil
}

func (db *DB) execDropTable(cur *dbState, s dropTableStmt) error {
	name := normalizeIdent(s.name)
	if _, ok := cur.tables[name]; !ok {
		if s.ifExists {
			return nil
		}
		return fmt.Errorf("metadb: no such table %q", s.name)
	}
	db.publish(cur, name, nil)
	return nil
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

// execInsert evaluates the batch, builds the table's next version
// copy-on-write and publishes once, so a multi-row batch is atomic to
// readers. On a mid-batch evaluation error the rows before it are
// still inserted (and published together), matching the historical
// row-at-a-time semantics.
func (db *DB) execInsert(cur *dbState, s insertStmt, params []Value) (int, error) {
	t, ok := cur.tables[normalizeIdent(s.table)]
	if !ok {
		return 0, fmt.Errorf("metadb: no such table %q", s.table)
	}
	colPos := make([]int, 0, len(t.cols))
	if len(s.cols) == 0 {
		for i := range t.cols {
			colPos = append(colPos, i)
		}
	} else {
		for _, c := range s.cols {
			pos, ok := t.colIdx[normalizeIdent(c)]
			if !ok {
				return 0, fmt.Errorf("metadb: no column %q in table %q", c, s.table)
			}
			colPos = append(colPos, pos)
		}
	}
	ctx := &evalCtx{params: params}
	te := db.newTableEdit(t)
	var evalErr error
	n := 0
eval:
	for _, rowExprs := range s.rows {
		if len(rowExprs) != len(colPos) {
			evalErr = fmt.Errorf("metadb: INSERT has %d values for %d columns", len(rowExprs), len(colPos))
			break
		}
		row := make([]Value, len(t.cols))
		for i, e := range rowExprs {
			v, err := ctx.eval(e)
			if err != nil {
				evalErr = err
				break eval
			}
			cv, err := coerce(v, t.cols[colPos[i]].kind)
			if err != nil {
				evalErr = fmt.Errorf("%w (column %q)", err, t.cols[colPos[i]].name)
				break eval
			}
			row[colPos[i]] = cv
		}
		te.insert(row)
		n++
	}
	if n > 0 {
		db.publish(cur, t.name, te.t)
	}
	return n, evalErr
}

func (db *DB) execDelete(cur *dbState, s deleteStmt, params []Value) (int, error) {
	t, ok := cur.tables[normalizeIdent(s.table)]
	if !ok {
		return 0, fmt.Errorf("metadb: no such table %q", s.table)
	}
	matched, _, err := db.matchingRows(t, s.where, params, nil)
	if err != nil || len(matched) == 0 {
		return 0, err
	}
	te := db.newTableEdit(t)
	for _, m := range matched {
		te.remove(m.id, m.vals)
	}
	db.publish(cur, t.name, te.t)
	return len(matched), nil
}
