package metadb

// MVCC core: the entire database contents live in one immutable
// dbState reachable through an atomic pointer. A reader performs a
// single pointer load and owns a consistent snapshot for the whole
// statement — no locks, no torn multi-row batches, old versions are
// reclaimed by the GC once the last reader drops them. Writers build
// new versions copy-on-write under per-shard locks and publish them
// atomically; see the write paths below for the locking protocol.

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Row ids encode their home shard in the low shardBits bits
// (id = seq<<shardBits | shard), so a row's shard is recoverable from
// its id alone and ids stay globally unique and allocation-ordered:
// the per-table seq is monotonic, so ascending id order is insertion
// order regardless of how rows spread across shards.
const (
	shardBits     = 6
	MaxShards     = 1 << shardBits // 64
	shardIdxMask  = MaxShards - 1
	DefaultShards = 8
)

// dbState is one immutable version of the whole database. Everything
// reachable from it — tables, shards, tree nodes, rows — is frozen at
// publish time; the only tolerated in-place mutation is an index's
// lazily built sorted view, which is serialized by its own mutex and
// idempotent.
type dbState struct {
	version int64
	tables  map[string]*tableData
}

// tableData is one immutable version of a table: schema plus row
// storage hash-sharded by shardCol.
type tableData struct {
	name   string
	cols   []columnDef
	colIdx map[string]int
	// defs lists the indexes sorted by key; every shard's idx slice is
	// parallel to it.
	defs []indexDef

	// shardCol is the position of the column whose hash routes a row
	// to its shard: the leading column of the widest index (lexically
	// smallest index key on ties, mirroring planFor's tie-break), or
	// -1 when the table has no index, in which case every row lives in
	// shard 0.
	shardCol int
	shards   []*shardData
}

// indexDef is the schema-level identity of an index, shared by every
// shard's instance of it. key is the column names joined by commas, so
// a single-column index is found under the bare column name (range and
// ORDER BY lookups use that) and composite indexes never shadow it.
type indexDef struct {
	name   string
	key    string
	cols   []string
	colPos []int
}

func newIndexDef(name string, cols []string, colPos []int) indexDef {
	return indexDef{name, strings.Join(cols, ","), cols, colPos}
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

// idxEntry files a row id under the hash of its index-column tuple.
// The tuple itself is not stored: a probe reads it back from the row,
// which is also how tuples colliding on one hash are told apart.
type idxEntry struct {
	hash uint64
	id   int64
}

func (a idxEntry) cmp(b idxEntry) int {
	if c := cmp.Compare(a.hash, b.hash); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// shardData holds one shard's rows by ascending id, plus that shard's
// slice of every index. All shards carry the same index set; a lookup
// merges per-shard results.
type shardData struct {
	rows tree[rowEntry]
	idx  []*index
}

func newTableData(name string, cols []columnDef, colIdx map[string]int, nshards int) *tableData {
	t := &tableData{name: name, cols: cols, colIdx: colIdx, shardCol: -1, shards: make([]*shardData, nshards)}
	for i := range t.shards {
		t.shards[i] = &shardData{}
	}
	return t
}

func (t *tableData) rowCount() int {
	n := 0
	for _, sh := range t.shards {
		n += sh.rows.n
	}
	return n
}

// indexOf returns the position in defs of the index with this key, or
// -1.
func (t *tableData) indexOf(key string) int {
	return slices.IndexFunc(t.defs, func(d indexDef) bool { return d.key == key })
}

// shardOfValue routes a shard-column value to its shard.
func (t *tableData) shardOfValue(v Value) int {
	if len(t.shards) == 1 {
		return 0
	}
	return int(v.hash(hashSeed) % uint64(len(t.shards)))
}

func (t *tableData) rowShard(row []Value) int {
	if t.shardCol < 0 {
		return 0
	}
	return t.shardOfValue(row[t.shardCol])
}

// scan yields every row in global insertion order. Per-shard trees
// ascend by id and ids ascend in allocation order, so an ascending
// merge by id reproduces exactly the row order a 1-shard table keeps.
func (t *tableData) scan() iter.Seq[rowEntry] {
	return func(yield func(rowEntry) bool) {
		type head struct {
			c cursor[rowEntry]
			e rowEntry
		}
		heads := make([]head, 0, len(t.shards))
		for _, sh := range t.shards {
			c := sh.rows.from(rowEntry{})
			if e, ok := c.next(); ok {
				heads = append(heads, head{c, e})
			}
		}
		for len(heads) > 0 {
			b := 0
			for i := range heads {
				if heads[i].e.id < heads[b].e.id {
					b = i
				}
			}
			if !yield(heads[b].e) {
				return
			}
			if e, ok := heads[b].c.next(); ok {
				heads[b].e = e
			} else {
				heads = slices.Delete(heads, b, b+1)
			}
		}
	}
}

// chooseShardCol picks the shard-routing column for a set of index
// definitions: leading column of the widest index, lexically smallest
// index key on ties; -1 with no indexes.
func chooseShardCol(defs []indexDef) int {
	best, bestW, bestKey := -1, 0, ""
	for _, d := range defs {
		if best < 0 || len(d.cols) > bestW || (len(d.cols) == bestW && d.key < bestKey) {
			best, bestW, bestKey = d.colPos[0], len(d.cols), d.key
		}
	}
	return best
}

// buildIndex bulk-builds one shard's instance of an index from that
// shard's rows.
func buildIndex(d indexDef, rows []rowEntry, ents []idxEntry) *index {
	for i, r := range rows {
		ents[i] = idxEntry{hashTuple(r.vals, d.colPos), r.id}
	}
	slices.SortFunc(ents, idxEntry.cmp)
	return &index{ents: bulkTree(ents)}
}

// buildTable constructs a fully indexed, sharded table from rows given
// in global insertion order, each id carrying its seq in the high bits
// (the shard bits are overwritten). Shared by CREATE INDEX resharding
// and Load. It gives up rows.
func buildTable(name string, cols []columnDef, colIdx map[string]int, nshards int, defs []indexDef, rows []rowEntry) *tableData {
	t := newTableData(name, cols, colIdx, nshards)
	t.defs, t.shardCol = defs, chooseShardCol(defs)
	// Counting sort by shard keeps each shard's rows in id order.
	shardOf := make([]uint8, len(rows))
	starts := make([]int, nshards+1)
	for i, r := range rows {
		s := t.rowShard(r.vals)
		shardOf[i] = uint8(s)
		starts[s+1]++
	}
	for s := range nshards {
		starts[s+1] += starts[s]
	}
	sorted := make([]rowEntry, len(rows))
	fill := slices.Clone(starts)
	for i, r := range rows {
		s := int(shardOf[i])
		sorted[fill[s]] = rowEntry{r.id&^shardIdxMask | int64(s), r.vals}
		fill[s]++
	}
	ents := make([]idxEntry, len(rows)*len(defs))
	for s, sh := range t.shards {
		part := sorted[starts[s]:starts[s+1]:starts[s+1]]
		sh.idx = make([]*index, len(defs))
		for i, d := range defs {
			lo := i*len(rows) + starts[s]
			sh.idx[i] = buildIndex(d, part, ents[lo:lo+len(part):lo+len(part)])
		}
		sh.rows = bulkTree(part)
	}
	return t
}

// withIndex returns a copy of the table with one index added, rebuilt
// whole: the new index may move the shard-routing column, re-routing
// every row. Seqs are preserved, so global insertion order survives.
func (t *tableData) withIndex(d indexDef) *tableData {
	defs := append(slices.Clone(t.defs), d)
	slices.SortFunc(defs, byKey)
	return buildTable(t.name, t.cols, t.colIdx, len(t.shards), defs, slices.Collect(t.scan()))
}

// ---------------------------------------------------------------------------
// Writer coordination
// ---------------------------------------------------------------------------

// tableLocks is the mutable identity of a table — per-shard writer
// locks and the monotonic row-seq allocator. It lives outside the
// versioned state so writers coordinate on one object while the data
// versions flow past. A seq is only allocated while holding the lock
// of the shard the row lands in, which keeps per-shard id order
// ascending: any earlier allocation for that shard happened under the
// same lock, so it is also published (or at least sequenced) earlier.
type tableLocks struct {
	shardMu []sync.Mutex
	nextSeq atomic.Int64
}

func (db *DB) newTableLocks() *tableLocks {
	return &tableLocks{shardMu: make([]sync.Mutex, db.nshards)}
}

func (db *DB) locksFor(name string) *tableLocks {
	db.locksMu.RLock()
	lk := db.locks[name]
	db.locksMu.RUnlock()
	return lk
}

// lockShards acquires the given shard locks in ascending order (the
// caller passes them sorted), counting contended acquisitions.
func (db *DB) lockShards(lk *tableLocks, shards []int) {
	for _, s := range shards {
		if !lk.shardMu[s].TryLock() {
			db.shardWaits.Add(1)
			lk.shardMu[s].Lock()
		}
	}
}

func unlockShards(lk *tableLocks, shards []int) {
	for i := len(shards) - 1; i >= 0; i-- {
		lk.shardMu[shards[i]].Unlock()
	}
}

func allShards(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// publishShards rebases the edited shards onto the latest published
// state and installs the result. The rebase is safe because the caller
// still holds the locks of every edited shard: those shards cannot
// have been republished since the edit's base was loaded, while
// unlocked shards of the same table (and all other tables) are taken
// from the current tip, so disjoint-shard writers never lose each
// other's commits.
func (db *DB) publishShards(name string, edited []*shardData) {
	db.commitMu.Lock()
	cur := db.state.Load()
	t := cur.tables[name]
	nt := *t
	nt.shards = slices.Clone(t.shards)
	for s, sd := range edited {
		if sd != nil {
			nt.shards[s] = sd
		}
	}
	tables := make(map[string]*tableData, len(cur.tables))
	for n, tt := range cur.tables {
		tables[n] = tt
	}
	tables[name] = &nt
	db.state.Store(&dbState{version: cur.version + 1, tables: tables})
	db.commitMu.Unlock()
	db.commits.Add(1)
}

// publishTableDef installs a state with one table replaced (or, with
// t == nil, removed). DDL path: the caller holds ddlMu exclusively.
func (db *DB) publishTableDef(name string, t *tableData) {
	db.commitMu.Lock()
	cur := db.state.Load()
	tables := make(map[string]*tableData, len(cur.tables)+1)
	for n, tt := range cur.tables {
		tables[n] = tt
	}
	if t == nil {
		delete(tables, name)
	} else {
		tables[name] = t
	}
	db.state.Store(&dbState{version: cur.version + 1, tables: tables})
	db.commitMu.Unlock()
	db.commits.Add(1)
}

// ---------------------------------------------------------------------------
// Copy-on-write edits
// ---------------------------------------------------------------------------

// tableEdit accumulates copy-on-write edits to some of a table's
// shards. An edited shard starts as a copy of the published shard's
// tree roots; put and del then copy only the nodes on the paths they
// change (see tree.go), so a commit costs what its batch touches, not
// what the shard holds — TestCommitCostFlatInTableSize pins that. The
// writer must hold the locks of every shard it edits from before the
// base state is loaded until after publish.
type tableEdit struct {
	t      *tableData
	gen    uint64
	shards []*shardData // by shard number; nil where untouched
}

func (db *DB) newTableEdit(t *tableData) *tableEdit {
	return &tableEdit{t: t, gen: db.editGen.Add(1), shards: make([]*shardData, len(t.shards))}
}

func (te *tableEdit) shard(s int) *shardData {
	if te.shards[s] == nil {
		base := te.t.shards[s]
		sd := &shardData{rows: base.rows, idx: make([]*index, len(base.idx))}
		for i, ix := range base.idx {
			sd.idx[i] = &index{ents: ix.ents}
		}
		te.shards[s] = sd
	}
	return te.shards[s]
}

func (te *tableEdit) insert(s int, id int64, row []Value) {
	sd := te.shard(s)
	sd.rows.put(te.gen, rowEntry{id, row})
	for i, d := range te.t.defs {
		sd.idx[i].ents.put(te.gen, idxEntry{hashTuple(row, d.colPos), id})
	}
}

func (te *tableEdit) remove(s int, id int64, row []Value) {
	sd := te.shard(s)
	sd.rows.del(te.gen, rowEntry{id: id})
	for i, d := range te.t.defs {
		sd.idx[i].ents.del(te.gen, idxEntry{hashTuple(row, d.colPos), id})
	}
}

// replace swaps a row's values in place (same id, same shard), moving
// its entry in the indexes whose tuple changed.
func (te *tableEdit) replace(s int, id int64, old, row []Value) {
	sd := te.shard(s)
	sd.rows.put(te.gen, rowEntry{id, row})
	for i, d := range te.t.defs {
		if oh, nh := hashTuple(old, d.colPos), hashTuple(row, d.colPos); oh != nh {
			sd.idx[i].ents.del(te.gen, idxEntry{oh, id})
			sd.idx[i].ents.put(te.gen, idxEntry{nh, id})
		}
	}
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

func (db *DB) execCreateTable(s createTableStmt) error {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	name := normalizeIdent(s.name)
	cur := db.state.Load()
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
	db.locksMu.Lock()
	db.locks[name] = db.newTableLocks()
	db.locksMu.Unlock()
	db.publishTableDef(name, newTableData(name, cols, colIdx, db.nshards))
	return nil
}

func (db *DB) execCreateIndex(s createIndexStmt) error {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	t, ok := db.state.Load().tables[normalizeIdent(s.table)]
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
	db.publishTableDef(t.name, t.withIndex(d))
	return nil
}

func (db *DB) execDropTable(s dropTableStmt) error {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	name := normalizeIdent(s.name)
	if _, ok := db.state.Load().tables[name]; !ok {
		if s.ifExists {
			return nil
		}
		return fmt.Errorf("metadb: no such table %q", s.name)
	}
	db.locksMu.Lock()
	delete(db.locks, name)
	db.locksMu.Unlock()
	db.publishTableDef(name, nil)
	return nil
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

// execInsert evaluates the batch first (evaluation is side-effect
// free), then locks exactly the shards the new rows hash to, builds
// copy-on-write shard versions, and publishes once — so a multi-row
// batch is atomic to readers and inserts into disjoint shards run in
// parallel. On a mid-batch evaluation error the rows before it are
// still inserted (and published together), matching the historical
// row-at-a-time semantics.
func (db *DB) execInsert(s insertStmt, params []Value) (int, error) {
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	t, ok := db.state.Load().tables[normalizeIdent(s.table)]
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
	var rows [][]Value
	var evalErr error
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
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return 0, evalErr
	}

	shards := make([]int, len(rows))
	var touched [MaxShards]bool
	for i, row := range rows {
		shards[i] = t.rowShard(row)
		touched[shards[i]] = true
	}
	affected := make([]int, 0, len(t.shards))
	for s2 := 0; s2 < len(t.shards); s2++ {
		if touched[s2] {
			affected = append(affected, s2)
		}
	}
	lk := db.locksFor(t.name)
	db.lockShards(lk, affected)
	defer unlockShards(lk, affected)
	// Re-read the tip: disjoint-shard writers may have published since
	// the first load; the shards locked above are now quiescent.
	te := db.newTableEdit(db.state.Load().tables[t.name])
	for i, row := range rows {
		seq := lk.nextSeq.Add(1) - 1
		te.insert(shards[i], seq<<shardBits|int64(shards[i]), row)
	}
	db.publishShards(t.name, te.shards)
	return len(rows), evalErr
}

// execUpdate and execDelete take every shard lock of the table: their
// row set comes from a WHERE clause, so any shard may be affected, and
// holding all locks makes the freshly loaded tip quiescent for the
// whole read-modify-publish cycle.
func (db *DB) execUpdate(s updateStmt, params []Value) (int, error) {
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	t0, ok := db.state.Load().tables[normalizeIdent(s.table)]
	if !ok {
		return 0, fmt.Errorf("metadb: no such table %q", s.table)
	}
	lk := db.locksFor(t0.name)
	all := allShards(len(t0.shards))
	db.lockShards(lk, all)
	defer unlockShards(lk, all)
	t := db.state.Load().tables[t0.name]
	matched, err := db.matchingRows(t, s.where, params)
	if err != nil {
		return 0, err
	}
	te := db.newTableEdit(t)
	edited := false
	publish := func() {
		if edited {
			db.publishShards(t.name, te.shards)
		}
	}
	ctx := &evalCtx{t: t, params: params}
	for _, m := range matched {
		id, row := m.id, m.vals
		ctx.row = row
		newRow := append([]Value(nil), row...)
		for _, sc := range s.sets {
			pos, ok := t.colIdx[normalizeIdent(sc.col)]
			if !ok {
				publish()
				return 0, fmt.Errorf("metadb: no column %q in table %q", sc.col, s.table)
			}
			v, err := ctx.eval(sc.val)
			if err != nil {
				publish()
				return 0, err
			}
			cv, err := coerce(v, t.cols[pos].kind)
			if err != nil {
				publish()
				return 0, err
			}
			newRow[pos] = cv
		}
		edited = true
		oldShard := int(id & shardIdxMask)
		if newShard := t.rowShard(newRow); newShard == oldShard {
			te.replace(oldShard, id, row, newRow)
		} else {
			// The new shard-column value re-routes the row; the seq (and
			// with it the global insertion-order position) is preserved.
			te.remove(oldShard, id, row)
			te.insert(newShard, id&^shardIdxMask|int64(newShard), newRow)
		}
	}
	publish()
	return len(matched), nil
}

func (db *DB) execDelete(s deleteStmt, params []Value) (int, error) {
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	t0, ok := db.state.Load().tables[normalizeIdent(s.table)]
	if !ok {
		return 0, fmt.Errorf("metadb: no such table %q", s.table)
	}
	lk := db.locksFor(t0.name)
	all := allShards(len(t0.shards))
	db.lockShards(lk, all)
	defer unlockShards(lk, all)
	t := db.state.Load().tables[t0.name]
	matched, err := db.matchingRows(t, s.where, params)
	if err != nil {
		return 0, err
	}
	if len(matched) == 0 {
		return 0, nil
	}
	te := db.newTableEdit(t)
	for _, m := range matched {
		te.remove(int(m.id&shardIdxMask), m.id, m.vals)
	}
	db.publishShards(t.name, te.shards)
	return len(matched), nil
}
