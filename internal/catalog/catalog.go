// Package catalog implements SDM's metadata schema: the six database
// tables of the paper's Figure 4 (run_table, access_pattern_table,
// execution_table, import_table, index_table, index_history_table),
// with typed Go accessors that issue SQL against the embedded metadb.
//
// The paper stores this metadata in MySQL through embedded SQL; the
// catalog keeps the same shape, including the cost: every call can
// charge a configurable per-query virtual time to the calling rank's
// clock, so the "database cost to access the metadata" that the paper
// folds into the history path is represented.
//
// One row of each table is one struct, declared in internal/wire so that
// the daemon, the client SDK and the tools speak of the same record; the
// accessors here are what fills them.
package catalog

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"sdm/internal/metadb"
	"sdm/internal/obs"
	"sdm/internal/sim"
	"sdm/internal/wire"
)

// AccessCost is the default virtual time charged per catalog query,
// approximating a local MySQL round trip of the paper's era.
const AccessCost = sim.Duration(2 * time.Millisecond)

// Catalog wraps a metadb with SDM's schema.
type Catalog struct {
	db   *metadb.DB
	cost sim.Duration

	// Observability (nil when off). The tracer gets one span per
	// charged catalog call on the obs.PidCatalog track; the counters
	// feed a metrics registry. None of it touches the clock beyond the
	// unchanged cost Advance.
	tracer     *obs.Tracer
	calls      *obs.Counter
	recordRows *obs.Counter
	lookupKeys *obs.Counter
}

// New wraps db. EnsureSchema must be called before the accessors.
func New(db *metadb.DB) *Catalog {
	return &Catalog{db: db, cost: AccessCost}
}

// DB exposes the underlying database (for inspection tools).
func (c *Catalog) DB() *metadb.DB { return c.db }

// SetAccessCost overrides the per-query virtual cost (zero disables
// cost charging entirely).
func (c *Catalog) SetAccessCost(d sim.Duration) { c.cost = d }

// SetTracer attaches (or with nil, detaches) a span tracer; every
// charged catalog call becomes a span on the catalog track.
func (c *Catalog) SetTracer(t *obs.Tracer) {
	c.tracer = t
	if t != nil {
		t.NameProcess(obs.PidCatalog, "catalog")
	}
}

// RegisterMetrics registers the catalog's call counters and the
// underlying database's query statistics with a metrics registry.
func (c *Catalog) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	c.calls = r.Counter("catalog.calls")
	c.recordRows = r.Counter("catalog.record-rows")
	c.lookupKeys = r.Counter("catalog.lookup-keys")
	c.db.RegisterMetrics(r)
}

// charge bills one query to clock, if a clock is supplied.
func (c *Catalog) charge(clock *sim.Clock) {
	c.chargeOp(clock, "query")
}

// chargeOp is charge with a span label for the calls worth seeing by
// name in a trace (the epoch-batched RecordWrites/LookupWrites).
func (c *Catalog) chargeOp(clock *sim.Clock, op string) {
	c.calls.Add(1)
	if clock == nil {
		return
	}
	start := clock.Now()
	clock.Advance(c.cost)
	if c.tracer != nil {
		c.tracer.Emit(obs.PidCatalog, "catalog", op, start, clock.Now())
	}
}

// schema holds the CREATE statements for the paper's six tables.
var schema = []string{
	`CREATE TABLE IF NOT EXISTS run_table (
		runid INTEGER, application TEXT, dimension INTEGER,
		problem_size INTEGER, num_timesteps INTEGER,
		year INTEGER, month INTEGER, day INTEGER, hour INTEGER, min INTEGER)`,
	`CREATE INDEX IF NOT EXISTS run_table_runid ON run_table (runid)`,

	`CREATE TABLE IF NOT EXISTS access_pattern_table (
		runid INTEGER, dataset TEXT, access_pattern TEXT,
		data_type TEXT, storage_order TEXT, global_size INTEGER)`,
	`CREATE INDEX IF NOT EXISTS access_pattern_runid ON access_pattern_table (runid)`,

	`CREATE TABLE IF NOT EXISTS execution_table (
		runid INTEGER, dataset TEXT, timestep INTEGER,
		file_offset INTEGER, file_name TEXT)`,
	// The one index every statement on the table probes: LookupWrites
	// binds all three columns and WritesForRun the first, so each touches
	// exactly the rows it returns. (Catalogs saved before PR 24 also list
	// an index on dataset alone, which they keep; nothing binds it.)
	`CREATE INDEX IF NOT EXISTS execution_run_ds_ts ON execution_table (runid, dataset, timestep)`,

	`CREATE TABLE IF NOT EXISTS import_table (
		runid INTEGER, imported_name TEXT, file_name TEXT, data_type TEXT,
		storage_order TEXT, partition TEXT, file_content TEXT,
		file_offset INTEGER, length INTEGER)`,
	`CREATE INDEX IF NOT EXISTS import_runid ON import_table (runid)`,

	`CREATE TABLE IF NOT EXISTS index_table (
		problem_size INTEGER, num_nodes INTEGER, nprocs INTEGER,
		dimension INTEGER, registered_file_name TEXT)`,
	`CREATE INDEX IF NOT EXISTS index_table_size ON index_table (problem_size)`,

	`CREATE TABLE IF NOT EXISTS index_history_table (
		registered_file_name TEXT, rank INTEGER, partitioned_size INTEGER,
		node_size INTEGER)`,
	`CREATE INDEX IF NOT EXISTS index_history_file ON index_history_table (registered_file_name)`,

	// annotation_table backs the paper's "high-level description,
	// together with annotations": free-form metadata applications
	// attach to runs, datasets, or derived layers (SDM.Annotate).
	`CREATE TABLE IF NOT EXISTS annotation_table (
		runid INTEGER, scope TEXT, k TEXT, v BLOB)`,
	`CREATE INDEX IF NOT EXISTS annotation_scope ON annotation_table (scope)`,
}

// EnsureSchema creates the six tables and their indexes if absent. It
// is idempotent, as SDM_initialize requires across runs.
func (c *Catalog) EnsureSchema() error {
	for _, stmt := range schema {
		if _, err := c.db.Exec(stmt); err != nil {
			return fmt.Errorf("catalog: creating schema: %w", err)
		}
	}
	return nil
}

// The row types are declared once, in internal/wire (the form they take
// on sdmd's wire and in the tools); these are the names the catalog's
// callers know them by.
type (
	Run          = wire.Run          // run_table
	DatasetInfo  = wire.Dataset      // access_pattern_table
	WriteRecord  = wire.WriteRecord  // execution_table
	WriteKey     = wire.WriteKey     // one (dataset, timestep) of a batched lookup
	ImportEntry  = wire.ImportEntry  // import_table
	IndexHistory = wire.IndexHistory // index_table + index_history_table
)

// NotFound is the error of a lookup that has to find its row: the
// catalog answered, and does not hold the run, dataset or write asked
// for. sdmd turns it into a 404, which sdmclient maps to ErrNotFound.
type NotFound string

func (e NotFound) Error() string { return string(e) }

// ---------------------------------------------------------------------------
// run_table
// ---------------------------------------------------------------------------

// RegisterRun allocates the next run id and records the run, stamping
// it with the supplied wall-clock time (the paper stores
// year/month/day/hour/min).
func (c *Catalog) RegisterRun(clock *sim.Clock, app string, dimension, problemSize, timesteps int64, when time.Time) (int64, error) {
	c.charge(clock)
	row, err := c.db.QueryRow(`SELECT MAX(runid) FROM run_table`)
	if err != nil {
		return 0, err
	}
	next := int64(1)
	if row != nil && !row[0].IsNull() {
		next = row[0].AsInt() + 1
	}
	_, err = c.db.Exec(
		`INSERT INTO run_table VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
		next, app, dimension, problemSize, timesteps,
		int64(when.Year()), int64(when.Month()), int64(when.Day()),
		int64(when.Hour()), int64(when.Minute()))
	if err != nil {
		return 0, err
	}
	return next, nil
}

// FindRun fetches one run_table row; a run the table does not hold is
// NotFound.
func (c *Catalog) FindRun(clock *sim.Clock, runid int64) (*Run, error) {
	c.charge(clock)
	row, err := c.db.QueryRow(
		`SELECT runid, application, dimension, problem_size, num_timesteps,
		        year, month, day, hour, min
		 FROM run_table WHERE runid = ?`, runid)
	if err != nil {
		return nil, err
	}
	if row == nil {
		return nil, NotFound(fmt.Sprintf("no run %d in run_table", runid))
	}
	run := scanRun(row)
	return &run, nil
}

// scanRun fills a Run from the ten run_table columns.
func scanRun(r []metadb.Value) Run {
	return Run{
		RunID:       r[0].AsInt(),
		Application: r[1].AsText(),
		Dimension:   r[2].AsInt(),
		ProblemSize: r[3].AsInt(),
		Timesteps:   r[4].AsInt(),
		Stamp: time.Date(int(r[5].AsInt()), time.Month(r[6].AsInt()),
			int(r[7].AsInt()), int(r[8].AsInt()), int(r[9].AsInt()), 0, 0, time.UTC),
	}
}

// Runs lists all registered runs in id order.
func (c *Catalog) Runs(clock *sim.Clock) ([]Run, error) {
	c.charge(clock)
	rows, err := c.db.Query(
		`SELECT runid, application, dimension, problem_size, num_timesteps,
		        year, month, day, hour, min
		 FROM run_table ORDER BY runid`)
	if err != nil {
		return nil, err
	}
	out := make([]Run, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, scanRun(r))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// access_pattern_table
// ---------------------------------------------------------------------------

// RegisterDataset records a dataset's access pattern metadata
// (SDM_set_attributes writes these rows).
func (c *Catalog) RegisterDataset(clock *sim.Clock, info DatasetInfo) error {
	c.charge(clock)
	_, err := c.db.Exec(
		`INSERT INTO access_pattern_table VALUES (?, ?, ?, ?, ?, ?)`,
		info.RunID, info.Dataset, info.AccessPattern, info.DataType,
		info.StorageOrder, info.GlobalSize)
	return err
}

// LookupDataset fetches a dataset's registered metadata; nil when the
// dataset was never registered.
func (c *Catalog) LookupDataset(clock *sim.Clock, runid int64, dataset string) (*DatasetInfo, error) {
	c.charge(clock)
	row, err := c.db.QueryRow(
		`SELECT runid, dataset, access_pattern, data_type, storage_order, global_size
		 FROM access_pattern_table WHERE runid = ? AND dataset = ?`, runid, dataset)
	if err != nil || row == nil {
		return nil, err
	}
	info := scanDataset(row)
	return &info, nil
}

// scanDataset fills a DatasetInfo from the six access_pattern_table
// columns.
func scanDataset(r []metadb.Value) DatasetInfo {
	return DatasetInfo{
		RunID:         r[0].AsInt(),
		Dataset:       r[1].AsText(),
		AccessPattern: r[2].AsText(),
		DataType:      r[3].AsText(),
		StorageOrder:  r[4].AsText(),
		GlobalSize:    r[5].AsInt(),
	}
}

// Datasets lists the datasets registered for a run.
func (c *Catalog) Datasets(clock *sim.Clock, runid int64) ([]DatasetInfo, error) {
	c.charge(clock)
	rows, err := c.db.Query(
		`SELECT runid, dataset, access_pattern, data_type, storage_order, global_size
		 FROM access_pattern_table WHERE runid = ? ORDER BY dataset`, runid)
	if err != nil {
		return nil, err
	}
	out := make([]DatasetInfo, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, scanDataset(r))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// execution_table
// ---------------------------------------------------------------------------

// RecordWrites inserts a whole epoch's execution_table rows as one
// batched statement — process 0 records every dataset of a deferred
// step in a single database round trip (the paper's SDM_write, where
// process 0 records the offsets), so the per-query virtual cost is
// charged once for the batch instead of once per dataset.
func (c *Catalog) RecordWrites(clock *sim.Clock, recs []WriteRecord) error {
	if len(recs) == 0 {
		return nil
	}
	c.chargeOp(clock, "RecordWrites")
	c.recordRows.Add(int64(len(recs)))
	var sb strings.Builder
	sb.WriteString(`INSERT INTO execution_table VALUES `)
	args := make([]any, 0, len(recs)*5)
	for i, rec := range recs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(`(?, ?, ?, ?, ?)`)
		args = append(args, rec.RunID, rec.Dataset, rec.Timestep, rec.FileOffset, rec.FileName)
	}
	_, err := c.db.Exec(sb.String(), args...)
	return err
}

// LookupWrites resolves a batch of (dataset, timestep) placements in
// one metadata round trip (the virtual cost is charged once), each
// probe served by the execution table's composite
// (runid, dataset, timestep) index, which holds a key's rows in write
// order. A rewritten key resolves to its last row, the latest write.
// Missing entries come back as nil slots, in key order; no keys is no
// round trip and an empty (non-nil) answer.
func (c *Catalog) LookupWrites(clock *sim.Clock, runid int64, keys []WriteKey) ([]*WriteRecord, error) {
	if len(keys) == 0 {
		return []*WriteRecord{}, nil
	}
	c.chargeOp(clock, "LookupWrites")
	c.lookupKeys.Add(int64(len(keys)))
	out := make([]*WriteRecord, len(keys))
	for i, k := range keys {
		rows, err := c.db.Query(
			`SELECT runid, dataset, timestep, file_offset, file_name
			 FROM execution_table
			 WHERE runid = ? AND dataset = ? AND timestep = ?`, runid, k.Dataset, k.Timestep)
		if err != nil {
			return nil, err
		}
		if n := rows.Len(); n > 0 {
			rec := scanWrite(rows.Data[n-1])
			out[i] = &rec
		}
	}
	return out, nil
}

// scanWrite fills a WriteRecord from the five execution_table columns.
func scanWrite(r []metadb.Value) WriteRecord {
	return WriteRecord{
		RunID:      r[0].AsInt(),
		Dataset:    r[1].AsText(),
		Timestep:   r[2].AsInt(),
		FileOffset: r[3].AsInt(),
		FileName:   r[4].AsText(),
	}
}

// Slab resolves one timestep of a dataset to what a reader needs to
// fetch it: the dataset's registered shape (info.Bytes() is the slab's
// length) and the execution_table row placing its latest write in a
// file, as LookupWrites resolves it. This is the one resolver behind
// sdmd's reads, the tools' local reads and the examples' read-back
// checks, with a distinct NotFound for each way of missing: no such
// run, dataset not registered, no write recorded.
func (c *Catalog) Slab(clock *sim.Clock, runid int64, dataset string, timestep int64) (*DatasetInfo, *WriteRecord, error) {
	info, err := c.LookupDataset(clock, runid, dataset)
	if err != nil {
		return nil, nil, err
	}
	if info == nil {
		if _, err := c.FindRun(clock, runid); err != nil {
			return nil, nil, err
		}
		return nil, nil, NotFound(fmt.Sprintf("dataset %q not registered for run %d", dataset, runid))
	}
	recs, err := c.LookupWrites(clock, runid, []WriteKey{{Dataset: dataset, Timestep: timestep}})
	if err != nil {
		return nil, nil, err
	}
	rec := recs[0]
	if rec == nil {
		return nil, nil, NotFound(fmt.Sprintf("no write recorded for run %d dataset %q timestep %d", runid, dataset, timestep))
	}
	return info, rec, nil
}

// WritesForRun lists all recorded writes of a run ordered by dataset
// then timestep, a rewritten key's rows in write order: the window under
// runid in the execution table's composite index, which holds them in
// that order.
func (c *Catalog) WritesForRun(clock *sim.Clock, runid int64) ([]WriteRecord, error) {
	c.charge(clock)
	rows, err := c.db.Query(
		`SELECT runid, dataset, timestep, file_offset, file_name
		 FROM execution_table WHERE runid = ? ORDER BY dataset, timestep`, runid)
	if err != nil {
		return nil, err
	}
	out := make([]WriteRecord, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, scanWrite(r))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// import_table
// ---------------------------------------------------------------------------

// RegisterImports records a whole import list (SDM_make_importlist) as
// one batched statement — one database round trip and one virtual-cost
// charge for the list, as RecordWrites does for an epoch's rows.
func (c *Catalog) RegisterImports(clock *sim.Clock, entries []ImportEntry) error {
	if len(entries) == 0 {
		return nil
	}
	c.chargeOp(clock, "RegisterImports")
	var sb strings.Builder
	sb.WriteString(`INSERT INTO import_table VALUES `)
	args := make([]any, 0, len(entries)*9)
	for i, e := range entries {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(`(?, ?, ?, ?, ?, ?, ?, ?, ?)`)
		args = append(args, e.RunID, e.ImportedName, e.FileName, e.DataType, e.StorageOrder,
			e.Partition, e.FileContent, e.FileOffset, e.Length)
	}
	_, err := c.db.Exec(sb.String(), args...)
	return err
}

// Imports lists a run's import list in registration order.
func (c *Catalog) Imports(clock *sim.Clock, runid int64) ([]ImportEntry, error) {
	c.charge(clock)
	rows, err := c.db.Query(
		`SELECT runid, imported_name, file_name, data_type, storage_order,
		        partition, file_content, file_offset, length
		 FROM import_table WHERE runid = ?`, runid)
	if err != nil {
		return nil, err
	}
	out := make([]ImportEntry, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, ImportEntry{
			RunID:        r[0].AsInt(),
			ImportedName: r[1].AsText(),
			FileName:     r[2].AsText(),
			DataType:     r[3].AsText(),
			StorageOrder: r[4].AsText(),
			Partition:    r[5].AsText(),
			FileContent:  r[6].AsText(),
			FileOffset:   r[7].AsInt(),
			Length:       r[8].AsInt(),
		})
	}
	return out, nil
}

// ReleaseImports removes a run's import list (SDM_release_importlist).
func (c *Catalog) ReleaseImports(clock *sim.Clock, runid int64) error {
	c.charge(clock)
	_, err := c.db.Exec(`DELETE FROM import_table WHERE runid = ?`, runid)
	return err
}

// ---------------------------------------------------------------------------
// index_table + index_history_table
// ---------------------------------------------------------------------------

// historyScope is the annotation_table scope reserved for history
// digests: one row per history, under runid 0, keyed by its file name,
// holding historyNote. The paper's two history tables stay as they were,
// so catalogs written before the digest existed still load; their
// histories have none.
const historyScope = "sdm.index-history"

// historyNote is a history's annotation value: its digest, then, when it
// has a block table, a line with the file's content digest and a line
// with each rank's block length. A value written before block tables
// existed is the digest alone.
func historyNote(h IndexHistory) []byte {
	if h.BlockSizes == nil {
		return []byte(h.Digest)
	}
	b := fmt.Appendf(nil, "%s\n%s\n", h.Digest, h.Content)
	for i, n := range h.BlockSizes {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, n, 10)
	}
	return b
}

// readHistoryNote fills h's digest and block table from historyNote's
// value. A block table that does not parse reads as none, so the
// history is replayed by no one.
func readHistoryNote(h *IndexHistory, v []byte) {
	digest, rest, table := strings.Cut(string(v), "\n")
	h.Digest = digest
	if !table {
		return
	}
	content, lens, ok := strings.Cut(rest, "\n")
	if !ok {
		return
	}
	fields := strings.Fields(lens)
	sizes := make([]int64, len(fields))
	for i, f := range fields {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return
		}
		sizes[i] = n
	}
	h.Content, h.BlockSizes = content, sizes
}

// RegisterIndexHistory records a new history (SDM_index_registry): one
// index_table row plus one index_history_table row per rank, and its
// digest and block table, when it has them, as an annotation_table row
// — all one charged call.
func (c *Catalog) RegisterIndexHistory(clock *sim.Clock, h IndexHistory) error {
	if int64(len(h.EdgeSizes)) != h.NProcs || int64(len(h.NodeSizes)) != h.NProcs {
		return fmt.Errorf("catalog: history has %d/%d per-rank sizes for %d procs",
			len(h.EdgeSizes), len(h.NodeSizes), h.NProcs)
	}
	c.charge(clock)
	_, err := c.db.Exec(
		`INSERT INTO index_table VALUES (?, ?, ?, ?, ?)`,
		h.ProblemSize, h.NumNodes, h.NProcs, h.Dimension, h.FileName)
	if err != nil {
		return err
	}
	for rank := int64(0); rank < h.NProcs; rank++ {
		_, err = c.db.Exec(
			`INSERT INTO index_history_table VALUES (?, ?, ?, ?)`,
			h.FileName, rank, h.EdgeSizes[rank], h.NodeSizes[rank])
		if err != nil {
			return err
		}
	}
	if h.Digest == "" && h.BlockSizes == nil {
		return nil
	}
	_, err = c.db.Exec(`INSERT INTO annotation_table VALUES (0, ?, ?, ?)`,
		historyScope, h.FileName, historyNote(h))
	return err
}

// LookupIndexHistory finds a history matching (problemSize, nprocs),
// with its digest and block table (empty when it was registered without
// them); nil when none exists — the caller then falls back to the full
// ring distribution, exactly as SDM_import does.
func (c *Catalog) LookupIndexHistory(clock *sim.Clock, problemSize, nprocs int64) (*IndexHistory, error) {
	c.charge(clock)
	row, err := c.db.QueryRow(
		`SELECT problem_size, num_nodes, nprocs, dimension, registered_file_name
		 FROM index_table WHERE problem_size = ? AND nprocs = ?`, problemSize, nprocs)
	if err != nil || row == nil {
		return nil, err
	}
	h := scanHistory(row)
	rows, err := c.db.Query(
		`SELECT rank, partitioned_size, node_size FROM index_history_table
		 WHERE registered_file_name = ? ORDER BY rank`, h.FileName)
	if err != nil {
		return nil, err
	}
	if int64(rows.Len()) != nprocs {
		return nil, fmt.Errorf("catalog: history %q has %d rank rows, want %d",
			h.FileName, rows.Len(), nprocs)
	}
	h.EdgeSizes = make([]int64, rows.Len())
	h.NodeSizes = make([]int64, rows.Len())
	for i, r := range rows.Data {
		if got := r[0].AsInt(); got != int64(i) {
			return nil, fmt.Errorf("catalog: history %q rank rows out of order", h.FileName)
		}
		h.EdgeSizes[i] = r[1].AsInt()
		h.NodeSizes[i] = r[2].AsInt()
	}
	digest, err := c.db.QueryRow(
		`SELECT v FROM annotation_table WHERE runid = 0 AND scope = ? AND k = ?`, historyScope, h.FileName)
	if err != nil {
		return nil, err
	}
	if digest != nil {
		readHistoryNote(&h, digest[0].AsBlob())
	}
	return &h, nil
}

// scanHistory fills the index_table half of an IndexHistory.
func scanHistory(r []metadb.Value) IndexHistory {
	return IndexHistory{
		ProblemSize: r[0].AsInt(),
		NumNodes:    r[1].AsInt(),
		NProcs:      r[2].AsInt(),
		Dimension:   r[3].AsInt(),
		FileName:    r[4].AsText(),
	}
}

// Histories lists all registered index histories.
func (c *Catalog) Histories(clock *sim.Clock) ([]IndexHistory, error) {
	c.charge(clock)
	rows, err := c.db.Query(
		`SELECT problem_size, num_nodes, nprocs, dimension, registered_file_name
		 FROM index_table ORDER BY problem_size, nprocs`)
	if err != nil {
		return nil, err
	}
	out := make([]IndexHistory, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, scanHistory(r))
	}
	return out, nil
}

// DeleteIndexHistory removes a registered history, its per-rank rows
// and its digest, used when a stale history must be invalidated.
func (c *Catalog) DeleteIndexHistory(clock *sim.Clock, fileName string) error {
	c.charge(clock)
	if _, err := c.db.Exec(`DELETE FROM index_table WHERE registered_file_name = ?`, fileName); err != nil {
		return err
	}
	if _, err := c.db.Exec(`DELETE FROM index_history_table WHERE registered_file_name = ?`, fileName); err != nil {
		return err
	}
	_, err := c.db.Exec(`DELETE FROM annotation_table WHERE runid = 0 AND scope = ? AND k = ?`, historyScope, fileName)
	return err
}

// ---------------------------------------------------------------------------
// annotation_table
// ---------------------------------------------------------------------------

// PutAnnotation stores (or replaces) one free-form metadata entry under
// (runid, scope, key).
func (c *Catalog) PutAnnotation(clock *sim.Clock, runid int64, scope, key string, value []byte) error {
	c.charge(clock)
	if _, err := c.db.Exec(
		`DELETE FROM annotation_table WHERE runid = ? AND scope = ? AND k = ?`,
		runid, scope, key); err != nil {
		return err
	}
	_, err := c.db.Exec(`INSERT INTO annotation_table VALUES (?, ?, ?, ?)`,
		runid, scope, key, value)
	return err
}

// GetAnnotation fetches an annotation; nil value with nil error means
// not present.
func (c *Catalog) GetAnnotation(clock *sim.Clock, runid int64, scope, key string) ([]byte, error) {
	c.charge(clock)
	row, err := c.db.QueryRow(
		`SELECT v FROM annotation_table WHERE runid = ? AND scope = ? AND k = ?`,
		runid, scope, key)
	if err != nil || row == nil {
		return nil, err
	}
	return row[0].AsBlob(), nil
}

// Annotations lists all keys under (runid, scope) in key order.
func (c *Catalog) Annotations(clock *sim.Clock, runid int64, scope string) (map[string][]byte, error) {
	c.charge(clock)
	rows, err := c.db.Query(
		`SELECT k, v FROM annotation_table WHERE runid = ? AND scope = ? ORDER BY k`,
		runid, scope)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, rows.Len())
	for _, r := range rows.Data {
		out[r[0].AsText()] = r[1].AsBlob()
	}
	return out, nil
}
