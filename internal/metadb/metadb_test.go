package metadb

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func mustExec(t testing.TB, db *DB, sql string, args ...any) int {
	t.Helper()
	n, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t testing.TB, db *DB, sql string, args ...any) *Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rows
}

func sampleDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE runs (runid INTEGER, dataset TEXT, size REAL, payload BLOB)`)
	mustExec(t, db, `INSERT INTO runs VALUES (1, 'p', 21.5, NULL)`)
	mustExec(t, db, `INSERT INTO runs VALUES (2, 'q', 105.0, NULL)`)
	mustExec(t, db, `INSERT INTO runs (runid, dataset, size) VALUES (3, 'p', 36.25)`)
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := sampleDB(t)
	rows := mustQuery(t, db, `SELECT runid, dataset FROM runs`)
	if rows.Len() != 3 {
		t.Fatalf("rows = %d", rows.Len())
	}
	if rows.Columns[0] != "runid" || rows.Columns[1] != "dataset" {
		t.Fatalf("columns = %v", rows.Columns)
	}
	if rows.Data[0][0].AsInt() != 1 || rows.Data[0][1].AsText() != "p" {
		t.Fatalf("first row = %v", rows.Data[0])
	}
}

func TestSelectStar(t *testing.T) {
	db := sampleDB(t)
	rows := mustQuery(t, db, `SELECT * FROM runs`)
	if len(rows.Columns) != 4 {
		t.Fatalf("columns = %v", rows.Columns)
	}
	if !rows.Data[0][3].IsNull() {
		t.Fatal("payload should be NULL")
	}
}

func TestWhereFilters(t *testing.T) {
	db := sampleDB(t)
	rows := mustQuery(t, db, `SELECT runid FROM runs WHERE dataset = 'p' AND size > 30`)
	if rows.Len() != 1 || rows.Data[0][0].AsInt() != 3 {
		t.Fatalf("rows = %+v", rows.Data)
	}
	// Written constant-first, a comparison is answered all the same.
	rows = mustQuery(t, db, `SELECT runid FROM runs WHERE 30 < size AND dataset != 'q'`)
	if rows.Len() != 1 || rows.Data[0][0].AsInt() != 3 {
		t.Fatalf("constant-first rows = %+v", rows.Data)
	}
}

func TestParameters(t *testing.T) {
	db := sampleDB(t)
	rows := mustQuery(t, db, `SELECT size FROM runs WHERE dataset = ? AND runid = ?`, "p", 3)
	if rows.Len() != 1 || rows.Data[0][0].real() != 36.25 {
		t.Fatalf("rows = %+v", rows.Data)
	}
	if _, err := db.Query(`SELECT * FROM runs WHERE runid = ?`); err == nil {
		t.Fatal("missing parameter not rejected")
	}
	if _, err := db.Query(`SELECT * FROM runs WHERE runid = ?`, 1, 2); err == nil {
		t.Fatal("extra parameter not rejected")
	}
}

func TestStringEscapes(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (s TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES ('it''s')`)
	rows := mustQuery(t, db, `SELECT s FROM t`)
	if rows.Data[0][0].AsText() != "it's" {
		t.Fatalf("got %q", rows.Data[0][0].AsText())
	}
}

func TestOrderBy(t *testing.T) {
	db := sampleDB(t)
	rows := mustQuery(t, db, `SELECT runid FROM runs ORDER BY size`)
	got := [3]int64{rows.Data[0][0].AsInt(), rows.Data[1][0].AsInt(), rows.Data[2][0].AsInt()}
	if got != [3]int64{1, 3, 2} {
		t.Fatalf("order = %v", got)
	}
	// Multi-key: dataset, then runid.
	mustExec(t, db, `INSERT INTO runs (runid, dataset) VALUES (0, 'q')`)
	rows = mustQuery(t, db, `SELECT runid FROM runs ORDER BY dataset ASC, runid`)
	var keys []int64
	for _, r := range rows.Data {
		keys = append(keys, r[0].AsInt())
	}
	if fmt.Sprint(keys) != "[1 3 0 2]" {
		t.Fatalf("multi-key order = %v", keys)
	}
}

func TestOrderByUnprojectedColumn(t *testing.T) {
	db := sampleDB(t)
	rows := mustQuery(t, db, `SELECT dataset FROM runs ORDER BY size`)
	if rows.Data[2][0].AsText() != "q" {
		t.Fatalf("rows = %+v", rows.Data)
	}
}

func TestDelete(t *testing.T) {
	db := sampleDB(t)
	n := mustExec(t, db, `DELETE FROM runs WHERE runid = 2`)
	if n != 1 {
		t.Fatalf("deleted %d", n)
	}
	rows := mustQuery(t, db, `SELECT * FROM runs`)
	if rows.Len() != 2 {
		t.Fatalf("remaining = %d", rows.Len())
	}
	// Delete everything.
	mustExec(t, db, `DELETE FROM runs`)
	if mustQuery(t, db, `SELECT * FROM runs`).Len() != 0 {
		t.Fatal("table not emptied")
	}
}

func TestAggregates(t *testing.T) {
	db := sampleDB(t)
	rows := mustQuery(t, db, `SELECT COUNT(*), MAX(runid), MIN(size) FROM runs`)
	r := rows.Data[0]
	if r[0].AsInt() != 3 || r[1].AsInt() != 3 || r[2].real() != 21.5 {
		t.Fatalf("aggregates = %v", r)
	}
	rows = mustQuery(t, db, `SELECT COUNT(payload) FROM runs`)
	if rows.Data[0][0].AsInt() != 0 {
		t.Fatalf("COUNT(col) over NULLs = %v", rows.Data[0][0])
	}
	rows = mustQuery(t, db, `SELECT MAX(runid) FROM runs WHERE dataset = 'zzz'`)
	if !rows.Data[0][0].IsNull() {
		t.Fatal("MAX over empty set should be NULL")
	}
	if _, err := db.Query(`SELECT runid, COUNT(*) FROM runs`); err == nil {
		t.Fatal("mixed aggregate/plain not rejected")
	}
}

func TestNullSemantics(t *testing.T) {
	db := sampleDB(t)
	// Comparisons with NULL never match.
	for _, op := range []string{"=", "!=", "<", ">="} {
		if rows := mustQuery(t, db, `SELECT runid FROM runs WHERE payload `+op+` NULL`); rows.Len() != 0 {
			t.Fatalf("%s NULL matched %d rows", op, rows.Len())
		}
	}
	// A NULL cell fails every comparison, and sorts first.
	mustExec(t, db, `INSERT INTO runs VALUES (NULL, 'r', 1.0, NULL)`)
	if rows := mustQuery(t, db, `SELECT dataset FROM runs WHERE runid != 2 AND runid < 9`); rows.Len() != 2 {
		t.Fatalf("comparisons with a NULL runid matched %d rows, want 2", rows.Len())
	}
	if rows := mustQuery(t, db, `SELECT dataset FROM runs ORDER BY runid`); rows.Data[0][0].AsText() != "r" {
		t.Fatalf("ORDER BY runid put %v first, want the NULL row", rows.Data[0])
	}
}

// TestUnaryMinusAndParens: a minus sign folds into the number after
// it, and parentheses group comparisons.
func TestUnaryMinusAndParens(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a INTEGER, b REAL)`)
	mustExec(t, db, `INSERT INTO t VALUES (-5, -2.5e-1), (-9223372036854775808, 0.5)`)
	rows := mustQuery(t, db, `SELECT a, b FROM t WHERE (a = - 5) AND (b < -0.2)`)
	if rows.Len() != 1 || rows.Data[0][1].real() != -0.25 {
		t.Fatalf("negative literals matched %v", rows.Data)
	}
	if rows := mustQuery(t, db, `SELECT a FROM t WHERE a < -5`); rows.Len() != 1 || rows.Data[0][0].AsInt() != -1<<63 {
		t.Fatalf("the least INTEGER literal = %v", rows.Data)
	}
}

func TestTypeCoercion(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (i INTEGER, r REAL, b BLOB)`)
	// Int into real column widens; whole real into int narrows.
	mustExec(t, db, `INSERT INTO t VALUES (3.0, 4, 'text-as-blob')`)
	rows := mustQuery(t, db, `SELECT i, r, b FROM t`)
	r := rows.Data[0]
	if r[0].Kind() != KindInt || r[0].AsInt() != 3 {
		t.Fatalf("i = %v (%v)", r[0], r[0].Kind())
	}
	if r[1].Kind() != KindReal || r[1].real() != 4.0 {
		t.Fatalf("r = %v", r[1])
	}
	if r[2].Kind() != KindBlob || string(r[2].AsBlob()) != "text-as-blob" {
		t.Fatalf("b = %v", r[2])
	}
	// Fractional real into int column fails.
	if _, err := db.Exec(`INSERT INTO t (i) VALUES (3.5)`); err == nil {
		t.Fatal("lossy coercion not rejected")
	}
	// Int into text column fails.
	if _, err := db.Exec(`CREATE TABLE t2 (s TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t2 VALUES (5)`); err == nil {
		t.Fatal("int->text coercion not rejected")
	}
}

func TestMultiRowInsert(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	n := mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3)`)
	if n != 3 {
		t.Fatalf("inserted %d", n)
	}
}

func TestIndexCorrectness(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (k INTEGER, v TEXT)`)
	for i := 0; i < 100; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, i%10, fmt.Sprintf("row%d", i))
	}
	noIdx := mustQuery(t, db, `SELECT v FROM t WHERE k = 7 ORDER BY v`)
	mustExec(t, db, `CREATE INDEX t_k ON t (k)`)
	withIdx := mustQuery(t, db, `SELECT v FROM t WHERE k = 7 ORDER BY v`)
	if noIdx.Len() != 10 || withIdx.Len() != 10 {
		t.Fatalf("lens %d, %d", noIdx.Len(), withIdx.Len())
	}
	for i := range noIdx.Data {
		if noIdx.Data[i][0].AsText() != withIdx.Data[i][0].AsText() {
			t.Fatal("index changed results")
		}
	}
	// Index must track a row moved to a new key, and deletes.
	mustExec(t, db, `DELETE FROM t WHERE v = 'row7'`)
	mustExec(t, db, `INSERT INTO t VALUES (99, 'row7')`)
	rows := mustQuery(t, db, `SELECT v FROM t WHERE k = 99`)
	if rows.Len() != 1 || rows.Data[0][0].AsText() != "row7" {
		t.Fatalf("after the move: %+v", rows.Data)
	}
	mustExec(t, db, `DELETE FROM t WHERE k = 99`)
	if mustQuery(t, db, `SELECT v FROM t WHERE k = 99`).Len() != 0 {
		t.Fatal("index returned deleted row")
	}
	if mustQuery(t, db, `SELECT * FROM t WHERE k = 7`).Len() != 9 {
		t.Fatal("unrelated rows disturbed")
	}
}

func TestIndexPreservesInsertionOrder(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (k INTEGER, seq INTEGER)`)
	mustExec(t, db, `CREATE INDEX t_k ON t (k)`)
	for i := 0; i < 20; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (1, ?)`, i)
	}
	rows := mustQuery(t, db, `SELECT seq FROM t WHERE k = 1`)
	for i := 0; i < 20; i++ {
		if rows.Data[i][0].AsInt() != int64(i) {
			t.Fatalf("row %d out of order: %v", i, rows.Data[i][0])
		}
	}
}

func TestCreateTableIfNotExists(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	if _, err := db.Exec(`CREATE TABLE t (a INTEGER)`); err == nil {
		t.Fatal("duplicate table not rejected")
	}
	mustExec(t, db, `CREATE TABLE IF NOT EXISTS t (a INTEGER)`)
	mustExec(t, db, `CREATE INDEX i ON t (a)`)
	if _, err := db.Exec(`CREATE INDEX i2 ON t (a)`); err == nil {
		t.Fatal("duplicate index not rejected")
	}
	mustExec(t, db, `CREATE INDEX IF NOT EXISTS i3 ON t (a)`)
}

func TestDropTable(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, db, `DROP TABLE t`)
	if _, err := db.Query(`SELECT * FROM t`); err == nil {
		t.Fatal("dropped table still queryable")
	}
	if _, err := db.Exec(`DROP TABLE t`); err == nil {
		t.Fatal("double drop not rejected")
	}
	mustExec(t, db, `DROP TABLE IF EXISTS t`)
}

func TestErrorCases(t *testing.T) {
	db := New()
	cases := []string{
		`SELEC * FROM t`,
		`SELECT * FROM missing`,
		`INSERT INTO missing VALUES (1)`,
		`CREATE TABLE bad (a WEIRDTYPE)`,
		`SELECT FROM t`,
		`SELECT * FROM t WHERE`,
		`INSERT INTO t VALUES (1`,
		`SELECT * FROM t; SELECT * FROM t`,
		`UPDATE missing SET a = 1`,
		`DELETE FROM missing`,
	}
	for _, sql := range cases {
		_, errQ := db.Query(sql)
		_, errE := db.Exec(sql)
		if errQ == nil && errE == nil {
			t.Errorf("statement %q unexpectedly succeeded", sql)
		}
	}
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	if _, err := db.Exec(`INSERT INTO t (b) VALUES (1)`); err == nil {
		t.Error("unknown column in INSERT accepted")
	}
	if _, err := db.Query(`SELECT nope FROM t`); err == nil {
		t.Error("unknown column in SELECT accepted")
	}
	if _, err := db.Exec(`SELECT * FROM t`); err == nil {
		t.Error("Exec of SELECT accepted")
	}
	if _, err := db.Query(`DELETE FROM t`); err == nil {
		t.Error("Query of DELETE accepted")
	}
}

// refused is one statement per construct outside the dialect, with the
// word or operator its error must name.
var refused = []struct{ sql, names string }{
	{`UPDATE t SET y = 'e' WHERE x = 2`, `"UPDATE"`},
	{`SELECT x FROM t ORDER BY x DESC`, `"DESC"`},
	{`SELECT x FROM t WHERE x = 1 OR x = 2`, `"OR"`},
	{`DELETE FROM t WHERE NOT x = 1`, `"NOT"`},
	{`SELECT x FROM t WHERE y IS NULL`, `"IS"`},
	{`DELETE FROM t WHERE y IS NOT NULL`, `"IS"`},
	{`SELECT x + 1 FROM t`, `'+'`},
	{`INSERT INTO t (x) VALUES (2 - 1)`, `"-"`},
	{`DELETE FROM t WHERE x * 2 = 4`, `"*"`},
	{`SELECT MAX(x / 2) FROM t`, `'/'`},
	{`SELECT -x FROM t`, `"-"`},
	{`INSERT INTO t (x) VALUES (-(1))`, `"-"`},
	{`SELECT x FROM t LIMIT 1`, `"LIMIT"`},
}

// TestRemovedSyntaxRefused: a statement outside the dialect fails with
// an error naming what it used, and leaves the database as it was, to
// the byte of its snapshot.
func TestRemovedSyntaxRefused(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (x INTEGER, y TEXT)`)
	mustExec(t, db, `CREATE INDEX t_x ON t (x)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a'), (2, NULL), (-3, 'c')`)
	image := saved(t, db)
	for _, tc := range refused {
		got := answer(db, tc.sql)
		if !strings.Contains(got, "metadb: ") || !strings.Contains(got, tc.names) {
			t.Errorf("%s answered %q, want an error naming %s", tc.sql, got, tc.names)
		}
		if after := saved(t, db); !bytes.Equal(after, image) {
			t.Errorf("%s changed the snapshot", tc.sql)
		}
	}
}

func TestCaseInsensitivity(t *testing.T) {
	db := New()
	mustExec(t, db, `create table MyTable (MyCol integer)`)
	mustExec(t, db, `INSERT INTO mytable (mycol) VALUES (5)`)
	rows := mustQuery(t, db, `SELECT MYCOL FROM MYTABLE WHERE mycol = 5`)
	if rows.Len() != 1 {
		t.Fatal("case-insensitive identifiers broken")
	}
}

func TestQueryRow(t *testing.T) {
	db := sampleDB(t)
	row, err := db.QueryRow(`SELECT dataset FROM runs WHERE runid = ?`, 2)
	if err != nil || row == nil || row[0].AsText() != "q" {
		t.Fatalf("row=%v err=%v", row, err)
	}
	row, err = db.QueryRow(`SELECT dataset FROM runs WHERE runid = 999`)
	if err != nil || row != nil {
		t.Fatalf("missing row: %v, %v", row, err)
	}
}

func TestBlobValues(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (id INTEGER, data BLOB)`)
	payload := []byte{0, 1, 2, 255, 254}
	mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, 1, payload)
	rows := mustQuery(t, db, `SELECT data FROM t WHERE id = 1`)
	if !bytes.Equal(rows.Data[0][0].AsBlob(), payload) {
		t.Fatal("blob round trip failed")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := sampleDB(t)
	mustExec(t, db, `CREATE INDEX runs_ds ON runs (dataset)`)
	mustExec(t, db, `CREATE TABLE other (x REAL, b BLOB)`)
	mustExec(t, db, `INSERT INTO other VALUES (1.5, ?)`, []byte{9, 8, 7})

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db2, `SELECT runid FROM runs WHERE dataset = 'p' ORDER BY runid`)
	if rows.Len() != 2 || rows.Data[1][0].AsInt() != 3 {
		t.Fatalf("restored rows = %+v", rows.Data)
	}
	other := mustQuery(t, db2, `SELECT x, b FROM other`)
	if other.Data[0][0].real() != 1.5 || !bytes.Equal(other.Data[0][1].AsBlob(), []byte{9, 8, 7}) {
		t.Fatalf("other = %+v", other.Data)
	}
	// Index still used and correct after reload (update/delete paths).
	mustExec(t, db2, `DELETE FROM runs WHERE dataset = 'p'`)
	if mustQuery(t, db2, `SELECT * FROM runs WHERE dataset = 'p'`).Len() != 0 {
		t.Fatal("index broken after reload")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	db := New()
	if err := db.Load(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := db.Load(strings.NewReader("MD")); err == nil {
		t.Fatal("truncated magic accepted")
	}
}

func TestQueryCount(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	before := db.QueryCount()
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustQuery(t, db, `SELECT * FROM t`)
	if db.QueryCount()-before != 2 {
		t.Fatalf("query count delta = %d", db.QueryCount()-before)
	}
}

// Property: INSERT then SELECT WHERE key returns exactly the inserted
// rows with that key, for random values, with and without an index.
func TestInsertSelectProperty(t *testing.T) {
	f := func(keys []uint8, useIndex bool) bool {
		if len(keys) > 64 {
			keys = keys[:64]
		}
		db := New()
		if _, err := db.Exec(`CREATE TABLE t (k INTEGER, pos INTEGER)`); err != nil {
			return false
		}
		if useIndex {
			if _, err := db.Exec(`CREATE INDEX tk ON t (k)`); err != nil {
				return false
			}
		}
		counts := map[int64]int{}
		for i, k := range keys {
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, int64(k), i); err != nil {
				return false
			}
			counts[int64(k)]++
		}
		for k, want := range counts {
			rows, err := db.Query(`SELECT pos FROM t WHERE k = ?`, k)
			if err != nil || rows.Len() != want {
				return false
			}
		}
		rows, err := db.Query(`SELECT COUNT(*) FROM t`)
		if err != nil || rows.Data[0][0].AsInt() != int64(len(keys)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: ORDER BY produces a non-decreasing sequence.
func TestOrderByProperty(t *testing.T) {
	f := func(vals []int16) bool {
		db := New()
		if _, err := db.Exec(`CREATE TABLE t (v INTEGER)`); err != nil {
			return false
		}
		for _, v := range vals {
			if _, err := db.Exec(`INSERT INTO t VALUES (?)`, int64(v)); err != nil {
				return false
			}
		}
		rows, err := db.Query(`SELECT v FROM t ORDER BY v`)
		if err != nil || rows.Len() != len(vals) {
			return false
		}
		for i := 1; i < rows.Len(); i++ {
			if rows.Data[i][0].AsInt() < rows.Data[i-1][0].AsInt() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshots survive a save/load round trip for random text.
func TestPersistenceProperty(t *testing.T) {
	f := func(texts []string) bool {
		if len(texts) > 32 {
			texts = texts[:32]
		}
		db := New()
		if _, err := db.Exec(`CREATE TABLE t (i INTEGER, s TEXT)`); err != nil {
			return false
		}
		if _, err := db.Exec(`CREATE INDEX t_s ON t (s)`); err != nil {
			return false
		}
		for i, s := range texts {
			if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, i, s); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			return false
		}
		// The image loads to the same rows and saves from there to the
		// same bytes: Save∘Load is the identity on images.
		db2 := New()
		if err := db2.Load(bytes.NewReader(buf.Bytes())); err != nil {
			return false
		}
		rows, err := db2.Query(`SELECT s FROM t ORDER BY i`)
		if err != nil || rows.Len() != len(texts) {
			return false
		}
		for i, s := range texts {
			if rows.Data[i][0].AsText() != s {
				return false
			}
		}
		var again bytes.Buffer
		err = db2.Save(&again)
		return err == nil && bytes.Equal(again.Bytes(), buf.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTableNamesAndColumns(t *testing.T) {
	db := sampleDB(t)
	mustExec(t, db, `CREATE TABLE another (z INTEGER)`)
	names := db.TableNames()
	if len(names) != 2 || names[0] != "another" || names[1] != "runs" {
		t.Fatalf("names = %v", names)
	}
	cols, err := db.Columns("runs")
	if err != nil || len(cols) != 4 || cols[0] != "runid" {
		t.Fatalf("cols = %v, %v", cols, err)
	}
	if _, err := db.Columns("missing"); err == nil {
		t.Fatal("Columns on missing table succeeded")
	}
}
