package metadb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// rangeDB builds a 1000-row table with an index on ts.
func rangeDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE runs (id INTEGER, ts INTEGER, name TEXT)")
	mustExec(t, db, "CREATE INDEX runs_ts ON runs(ts)")
	for i := 0; i < 1000; i++ {
		mustExec(t, db, "INSERT INTO runs (id, ts, name) VALUES (?, ?, ?)",
			i, i*10, fmt.Sprintf("run%d", i))
	}
	return db
}

func queryIDs(t *testing.T, db *DB, sql string, args ...any) []int64 {
	t.Helper()
	rows := mustQuery(t, db, sql, args...)
	out := make([]int64, rows.Len())
	for i, r := range rows.Data {
		out[i] = r[0].AsInt()
	}
	return out
}

func TestRangePredicatesUseIndex(t *testing.T) {
	db := rangeDB(t)
	cases := []struct {
		sql  string
		args []any
		want int // expected row count
	}{
		{"SELECT id FROM runs WHERE ts < 100", nil, 10},
		{"SELECT id FROM runs WHERE ts <= 100", nil, 11},
		{"SELECT id FROM runs WHERE ts > 9900", nil, 9},
		{"SELECT id FROM runs WHERE ts >= 9900", nil, 10},
		{"SELECT id FROM runs WHERE ts >= 500 AND ts < 600", nil, 10},
		{"SELECT id FROM runs WHERE ts >= ? AND ts <= ?", []any{100, 190}, 10},
	}
	for _, tc := range cases {
		before := db.StatsSnapshot().RowsScanned
		hitsBefore := db.StatsSnapshot().IndexHits
		got := queryIDs(t, db, tc.sql, tc.args...)
		if len(got) != tc.want {
			t.Errorf("%s: got %d rows, want %d", tc.sql, len(got), tc.want)
		}
		scanned := db.StatsSnapshot().RowsScanned - before
		if scanned >= 1000 {
			t.Errorf("%s: scanned %d candidate rows, want an index-bounded scan", tc.sql, scanned)
		}
		if db.StatsSnapshot().IndexHits != hitsBefore+1 {
			t.Errorf("%s: expected an index hit", tc.sql)
		}
	}
}

func TestRangeResultsMatchFullScan(t *testing.T) {
	db := rangeDB(t)
	// An identical table without the index gives the ground truth.
	mustExec(t, db, "CREATE TABLE plain (id INTEGER, ts INTEGER, name TEXT)")
	for i := 0; i < 1000; i++ {
		mustExec(t, db, "INSERT INTO plain (id, ts, name) VALUES (?, ?, ?)",
			i, i*10, fmt.Sprintf("run%d", i))
	}
	for _, where := range []string{
		"ts < 555", "ts <= 550", "ts > 9000", "ts >= 9000 AND ts < 9500",
		"ts >= 120 AND ts <= 120", "ts > 10000000", "ts < 0",
		"ts > 500 AND ts < 300", // contradictory bounds: empty, no panic
	} {
		idx := queryIDs(t, db, "SELECT id FROM runs WHERE "+where+" ORDER BY id")
		plain := queryIDs(t, db, "SELECT id FROM plain WHERE "+where+" ORDER BY id")
		if len(idx) != len(plain) {
			t.Fatalf("WHERE %s: indexed %d rows, scan %d rows", where, len(idx), len(plain))
		}
		for i := range idx {
			if idx[i] != plain[i] {
				t.Fatalf("WHERE %s: row %d differs (%d vs %d)", where, i, idx[i], plain[i])
			}
		}
	}
}

func TestUnindexedRangeStillScans(t *testing.T) {
	db := rangeDB(t)
	before := db.StatsSnapshot().RowsScanned
	got := queryIDs(t, db, "SELECT id FROM runs WHERE id < 10")
	if len(got) != 10 {
		t.Fatalf("got %d rows", len(got))
	}
	if scanned := db.StatsSnapshot().RowsScanned - before; scanned != 1000 {
		t.Fatalf("unindexed predicate scanned %d rows, want full scan of 1000", scanned)
	}
	// An indexed column compared constant-first opens no window, and the
	// scan answers it.
	before = db.StatsSnapshot().RowsScanned
	if got := queryIDs(t, db, "SELECT id FROM runs WHERE 100 > ts"); len(got) != 10 {
		t.Fatalf("100 > ts: got %d rows, want 10", len(got))
	}
	if scanned := db.StatsSnapshot().RowsScanned - before; scanned != 1000 {
		t.Fatalf("100 > ts scanned %d rows, want full scan of 1000", scanned)
	}
}

// TestConcurrentRangeQueries races many readers over one lazily-built
// range index (run under -race to validate the rebuild serialization).
func TestConcurrentRangeQueries(t *testing.T) {
	db := rangeDB(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lo := (g*50 + i) % 900
				rows, err := db.Query("SELECT id FROM runs WHERE ts >= ? AND ts < ?", lo*10, (lo+10)*10)
				if err != nil {
					t.Error(err)
					return
				}
				if rows.Len() != 10 {
					t.Errorf("got %d rows, want 10", rows.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRangeIndexSurvivesMutation(t *testing.T) {
	db := rangeDB(t)
	mustExec(t, db, "DELETE FROM runs WHERE ts >= 100 AND ts < 200")
	mustExec(t, db, "DELETE FROM runs WHERE ts = 50")
	mustExec(t, db, "INSERT INTO runs VALUES (5, 150, 'run5')")
	got := queryIDs(t, db, "SELECT id FROM runs WHERE ts >= 100 AND ts < 200")
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("after mutation got rows %v, want [5]", got)
	}
}

// TestBigIntegersCompareExactly pins INTEGER comparison above 2^53,
// where neighbouring int64s round to one float64: a byte offset of
// 9007199254740993 is not 9007199254740992, with or without an index,
// in equality probes, range plans, aggregates and ORDER BY alike.
func TestBigIntegersCompareExactly(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		db := New()
		mustExec(t, db, `CREATE TABLE f (name TEXT, off INTEGER)`)
		if indexed {
			mustExec(t, db, `CREATE INDEX f_off ON f (off)`)
		}
		mustExec(t, db, `INSERT INTO f VALUES ('even', 9007199254740992), ('odd', 9007199254740993)`)
		for _, tc := range []struct{ sql, want string }{
			{`SELECT name FROM f WHERE off = 9007199254740993`, "odd\n"},
			{`SELECT MAX(off) FROM f`, "9007199254740993\n"},
			{`SELECT COUNT(*) FROM f WHERE off > 9007199254740992`, "1\n"},
			{`SELECT name FROM f ORDER BY off`, "even\nodd\n"},
			{`SELECT name FROM f WHERE off >= ?`, "odd\n"},
		} {
			var args []any
			if strings.Contains(tc.sql, "?") {
				args = []any{int64(9007199254740993)}
			}
			if got := rowsString(mustQuery(t, db, tc.sql, args...)); got != tc.want {
				t.Errorf("indexed=%v: %s = %q, want %q", indexed, tc.sql, got, tc.want)
			}
		}
		if indexed {
			plan := planText(t, db, `SELECT name FROM f WHERE off >= 9007199254740993`)
			if !strings.Contains(plan, "range scan on index f_off") {
				t.Errorf("off >= ? is not a range plan:\n%s", plan)
			}
		}
	}
}
