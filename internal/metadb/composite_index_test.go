package metadb

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// execTable loads a miniature execution_table shape: nRuns runs x
// nDatasets datasets x nSteps timesteps, with a composite index over
// all three key columns and the old single-column dataset index
// alongside.
func execTable(t *testing.T, nRuns, nDatasets, nSteps int) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE exec (runid INTEGER, dataset TEXT, timestep INTEGER, off INTEGER)`)
	mustExec(t, db, `CREATE INDEX exec_ds ON exec (dataset)`)
	mustExec(t, db, `CREATE INDEX exec_run_ds_ts ON exec (runid, dataset, timestep)`)
	for r := 1; r <= nRuns; r++ {
		for d := 0; d < nDatasets; d++ {
			for s := 0; s < nSteps; s++ {
				mustExec(t, db, `INSERT INTO exec VALUES (?, ?, ?, ?)`,
					r, fmt.Sprintf("ds%d", d), s, r*1000+d*100+s)
			}
		}
	}
	return db
}

// TestCompositeIndexFullEqualityProbe asserts that a probe binding all
// three columns is served by the composite index: one index hit, and
// exactly the matching row scanned (the single-column dataset index
// would have scanned the dataset's entire history).
func TestCompositeIndexFullEqualityProbe(t *testing.T) {
	db := execTable(t, 3, 4, 10)
	hits0, scanned0 := db.StatsSnapshot().IndexHits, db.StatsSnapshot().RowsScanned
	row, err := db.QueryRow(`SELECT off FROM exec WHERE runid = ? AND dataset = ? AND timestep = ?`,
		2, "ds3", 7)
	if err != nil {
		t.Fatal(err)
	}
	if row == nil || row[0].AsInt() != 2*1000+3*100+7 {
		t.Fatalf("probe returned %v", row)
	}
	if got := db.StatsSnapshot().IndexHits - hits0; got != 1 {
		t.Fatalf("IndexHits delta = %d, want 1", got)
	}
	if got := db.StatsSnapshot().RowsScanned - scanned0; got != 1 {
		t.Fatalf("RowsScanned delta = %d, want 1 (composite bucket is exact)", got)
	}
}

// TestCompositePreferredOverSingleColumn loads the same probe against a
// table with only the dataset index: the candidate set is the whole
// dataset history, proving the composite index is what narrows the
// scan.
func TestCompositePreferredOverSingleColumn(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE exec (runid INTEGER, dataset TEXT, timestep INTEGER, off INTEGER)`)
	mustExec(t, db, `CREATE INDEX exec_ds ON exec (dataset)`)
	const nSteps = 25
	for s := 0; s < nSteps; s++ {
		mustExec(t, db, `INSERT INTO exec VALUES (1, 'p', ?, ?)`, s, s)
	}
	scanned0 := db.StatsSnapshot().RowsScanned
	if _, err := db.QueryRow(`SELECT off FROM exec WHERE runid = 1 AND dataset = 'p' AND timestep = 13`); err != nil {
		t.Fatal(err)
	}
	if got := db.StatsSnapshot().RowsScanned - scanned0; got != nSteps {
		t.Fatalf("single-column probe scanned %d rows, want %d", got, nSteps)
	}

	mustExec(t, db, `CREATE INDEX exec_cmp ON exec (runid, dataset, timestep)`)
	scanned1 := db.StatsSnapshot().RowsScanned
	if _, err := db.QueryRow(`SELECT off FROM exec WHERE runid = 1 AND dataset = 'p' AND timestep = 13`); err != nil {
		t.Fatal(err)
	}
	if got := db.StatsSnapshot().RowsScanned - scanned1; got != 1 {
		t.Fatalf("composite probe scanned %d rows, want 1", got)
	}
}

// TestCompositePartialBindingFallsBack verifies a probe binding a
// leading prefix of the composite columns is a window on the composite
// index — every candidate a row returned — while one binding only a
// later column has no index to use: it falls back to a scan, and still
// answers correctly.
func TestCompositePartialBindingFallsBack(t *testing.T) {
	db := execTable(t, 2, 3, 5)
	st0 := db.StatsSnapshot()
	rows, err := db.Query(`SELECT off FROM exec WHERE runid = 1 AND dataset = 'ds1'`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 5 {
		t.Fatalf("partial probe returned %d rows, want 5", rows.Len())
	}
	if st := db.StatsSnapshot(); st.RowsScanned-st0.RowsScanned != 5 || st.PlanEq-st0.PlanEq != 1 {
		t.Fatalf("prefix probe examined %d candidates in %d equality plans, want the 5 rows it returned in 1",
			st.RowsScanned-st0.RowsScanned, st.PlanEq-st0.PlanEq)
	}
	if plan := planText(t, db, `SELECT off FROM exec WHERE runid = 1 AND dataset = 'ds1'`); !strings.Contains(plan, "prefix probe on index exec_run_ds_ts") {
		t.Fatalf("prefix probe plan:\n%s", plan)
	}
	// Only timestep bound: no covering index at all -> full scan, right
	// answer regardless.
	scanned0 := db.StatsSnapshot().RowsScanned
	rows, err = db.Query(`SELECT off FROM exec WHERE timestep = 4`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2*3 {
		t.Fatalf("timestep probe returned %d rows, want 6", rows.Len())
	}
	if got := db.StatsSnapshot().RowsScanned - scanned0; got != 2*3*5 {
		t.Fatalf("unindexed probe scanned %d rows, want full table %d", got, 2*3*5)
	}
}

// TestCompositeIndexMutationMaintenance moves a composite-indexed row
// to a new key (DELETE, then INSERT), deletes another, and re-probes.
func TestCompositeIndexMutationMaintenance(t *testing.T) {
	db := execTable(t, 2, 2, 4)
	mustExec(t, db, `DELETE FROM exec WHERE runid = 2 AND dataset = 'ds1' AND timestep = 3`)
	mustExec(t, db, `INSERT INTO exec VALUES (2, 'ds1', 99, 2103)`)
	row, err := db.QueryRow(`SELECT off FROM exec WHERE runid = 2 AND dataset = 'ds1' AND timestep = 99`)
	if err != nil {
		t.Fatal(err)
	}
	if row == nil || row[0].AsInt() != 2*1000+1*100+3 {
		t.Fatalf("re-probe after the move returned %v", row)
	}
	if row, _ := db.QueryRow(`SELECT off FROM exec WHERE runid = 2 AND dataset = 'ds1' AND timestep = 3`); row != nil {
		t.Fatalf("stale composite entry survived the move: %v", row)
	}

	mustExec(t, db, `DELETE FROM exec WHERE runid = 1 AND dataset = 'ds0' AND timestep = 0`)
	if row, _ := db.QueryRow(`SELECT off FROM exec WHERE runid = 1 AND dataset = 'ds0' AND timestep = 0`); row != nil {
		t.Fatalf("deleted row still probe-able: %v", row)
	}
	row, err = db.QueryRow(`SELECT COUNT(*) FROM exec`)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].AsInt() != 2*2*4-1 {
		t.Fatalf("row count after delete = %d", row[0].AsInt())
	}
}

// TestCompositeKeyNoBoundaryCollisions guards composite index keys
// against column-boundary ambiguity — ("ab", "c") must not answer for
// ("a", "bc"), which an index comparing its keys column by column keeps
// apart: each probe must scan and return exactly its own row, through
// a moved row, DELETE, ORDER BY and a range over a single-column index
// too.
// (Until PR 24 indexes filed rows under a hash of the tuple, and a
// second subtest forced every tuple onto one hash.)
func TestCompositeKeyNoBoundaryCollisions(t *testing.T) {
	t.Run("by value", testKeyCollisions)
}

func testKeyCollisions(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE kv (a TEXT, b TEXT, v INTEGER)`)
	mustExec(t, db, `CREATE INDEX kv_ab ON kv (a, b)`)
	mustExec(t, db, `CREATE INDEX kv_v ON kv (v)`)
	mustExec(t, db, `INSERT INTO kv VALUES ('ab', 'c', 1), ('a', 'bc', 2), ('ab', 'c', 3), ('', 'abc', 4)`)
	probe := func(a, b, want string) {
		t.Helper()
		scanned0 := db.StatsSnapshot().RowsScanned
		got := rowsString(mustQuery(t, db, `SELECT v FROM kv WHERE a = ? AND b = ?`, a, b))
		if got != want {
			t.Errorf("probe (%q,%q) = %q, want %q", a, b, got, want)
		}
		if scanned, rows := db.StatsSnapshot().RowsScanned-scanned0, int64(strings.Count(want, "\n")); scanned != rows {
			t.Errorf("probe (%q,%q) scanned %d candidates for %d rows", a, b, scanned, rows)
		}
	}
	probe("ab", "c", "1\n3\n")
	probe("a", "bc", "2\n")
	probe("", "abc", "4\n")
	probe("abc", "", "")
	mustExec(t, db, `DELETE FROM kv WHERE v = 3`)
	mustExec(t, db, `INSERT INTO kv VALUES ('a', 'bc', 3)`)
	probe("ab", "c", "1\n")
	probe("a", "bc", "2\n3\n")
	mustExec(t, db, `DELETE FROM kv WHERE a = 'a' AND b = 'bc' AND v = 2`)
	probe("a", "bc", "3\n")
	if got := rowsString(mustQuery(t, db, `SELECT v FROM kv WHERE v >= 3 ORDER BY v`)); got != "3\n4\n" {
		t.Errorf("range over the colliding single-column index = %q", got)
	}
	// Bulk-built indexes (Load) resolve the collisions the same way.
	db = loaded(t, saved(t, db))
	probe("ab", "c", "1\n")
	probe("a", "bc", "3\n")
}

// TestCompositeIndexPersistRoundTrip snapshots a database holding a
// composite index and reloads it, verifying the index definition and
// its probe behavior survive.
func TestCompositeIndexPersistRoundTrip(t *testing.T) {
	db := execTable(t, 2, 3, 4)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	hits0, scanned0 := db2.StatsSnapshot().IndexHits, db2.StatsSnapshot().RowsScanned
	row, err := db2.QueryRow(`SELECT off FROM exec WHERE runid = 2 AND dataset = 'ds2' AND timestep = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if row == nil || row[0].AsInt() != 2*1000+2*100+1 {
		t.Fatalf("reloaded probe returned %v", row)
	}
	if db2.StatsSnapshot().IndexHits-hits0 != 1 || db2.StatsSnapshot().RowsScanned-scanned0 != 1 {
		t.Fatalf("reloaded composite index not used: hits %d scanned %d",
			db2.StatsSnapshot().IndexHits-hits0, db2.StatsSnapshot().RowsScanned-scanned0)
	}
}
