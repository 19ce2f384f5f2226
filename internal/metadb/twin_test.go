package metadb

import (
	"fmt"
	"math"
	"testing"
)

// answer runs one statement and renders everything it answered: the
// rows of a query, the affected count of anything else, and the error
// text of either.
func answer(db *DB, sql string, args ...any) string {
	stmt, _, err := parse(sql)
	if err != nil {
		return "parse: " + err.Error()
	}
	switch stmt.(type) {
	case selectStmt, explainStmt:
		r, err := db.Query(sql, args...)
		if err != nil {
			return "error: " + err.Error()
		}
		return rowsString(r)
	}
	n, err := db.Exec(sql, args...)
	return fmt.Sprintf("%d row(s), error: %v", n, err)
}

// indexFree reports whether the index-free twin runs a statement too:
// all but CREATE INDEX, which would make it an indexed one, and
// EXPLAIN, whose answer is the access path itself.
func indexFree(sql string) bool {
	stmt, _, _ := parse(sql)
	switch stmt.(type) {
	case createIndexStmt, explainStmt:
		return false
	}
	return true
}

// twins is a database beside its index-free double: both must answer
// every statement alike, since an index may change how an answer is
// reached and never what it is.
type twins struct {
	t              testing.TB
	indexed, plain *DB
}

func (tw twins) run(sql string, args ...any) {
	tw.t.Helper()
	got := answer(tw.indexed, sql, args...)
	if !indexFree(sql) {
		return
	}
	if want := answer(tw.plain, sql, args...); got != want {
		tw.t.Fatalf("%s %v\nwith indexes:\n%s\nwithout:\n%s", sql, args, got, want)
	}
}

// TestRandomizedStreamIndexFree replays the randomized stream — every
// plan kind, index-served and sorted ORDER BY, updates that move index
// entries, two indexes arriving over live data — against a twin that
// never builds an index: rows, affected counts and error texts match
// statement by statement.
func TestRandomizedStreamIndexFree(t *testing.T) {
	tw := twins{t, New(), New()}
	randomizedStream(tw.run, tw.run)
	if st := tw.plain.StatsSnapshot(); st.IndexHits != 0 || st.OrderSkips != 0 {
		t.Fatalf("the index-free twin used an index: %+v", st)
	}
	if st := tw.indexed.StatsSnapshot(); st.IndexHits == 0 || st.OrderSkips == 0 {
		t.Fatalf("the indexed twin used none: %+v", st)
	}
}

// TestOneTotalOrder pins that =, the inequalities, ORDER BY and the
// index key all decide by one order, and that it is total: NaN equals
// only NaN and sorts after NULL, before every number; -0 equals +0; an
// INTEGER beside a REAL is compared, not rounded. (compare used to call
// NaN equal to every number, so `x = ?` bound to NaN matched every row
// on a scan and none through an index, and ORDER BY sorted by a
// comparator that was not transitive.) The indexed and the plain twin
// agree on every query, before and after Save∘Load.
func TestOneTotalOrder(t *testing.T) {
	indexed, plain := New(), New()
	tw := twins{t, indexed, plain}
	tw.run(`CREATE TABLE m (x REAL, n INTEGER, label TEXT)`)
	tw.run(`CREATE INDEX m_x ON m (x)`)
	tw.run(`CREATE INDEX m_n_x ON m (n, x)`)
	negZero := math.Copysign(0, -1)
	for i, x := range []any{1.5, math.NaN(), negZero, nil, 0.0, -3.25, math.Inf(1), math.NaN(), 1.5, nil, math.Inf(-1), negZero, 7.0} {
		tw.run(`INSERT INTO m VALUES (?, ?, ?)`, x, int64(i%2), fmt.Sprintf("row%d", i))
	}
	const big = int64(1) << 53
	tw.run(`INSERT INTO m VALUES (2.5, ?, 'even'), (2.5, ?, 'odd')`, big, big+1)

	queries := func() {
		t.Helper()
		for _, bind := range []any{math.NaN(), 0.0, negZero, 1.5, -3.25, math.Inf(-1), int64(7), nil} {
			for _, op := range []string{"=", "!=", "<", ">="} {
				tw.run(`SELECT label, x FROM m WHERE x `+op+` ?`, bind)
				tw.run(`SELECT label, x FROM m WHERE n = 1 AND x `+op+` ?`, bind)
			}
		}
		for _, q := range []string{
			`SELECT label, x FROM m ORDER BY x`,
			`SELECT label, x FROM m WHERE n = 0 ORDER BY x`,
			`SELECT label FROM m ORDER BY n, x`,
			`SELECT MIN(x), MAX(x), COUNT(x) FROM m`,
		} {
			tw.run(q)
		}
		// A REAL bind beside INTEGERs one apart above 2^53 equals the one
		// it is, not both.
		tw.run(`SELECT label FROM m WHERE n = ?`, float64(big))
		tw.run(`SELECT label FROM m WHERE n = ? AND x = 2.5`, float64(big))
		tw.run(`SELECT label FROM m WHERE n > ?`, float64(big))
	}
	queries()
	if got := rowsString(mustQuery(t, indexed, `SELECT label FROM m WHERE x = ?`, math.NaN())); got != "row1\nrow7\n" {
		t.Errorf("x = NaN matched %q, want the two NaN rows", got)
	}
	if got := rowsString(mustQuery(t, indexed, `SELECT label FROM m WHERE x = 0`)); got != "row2\nrow4\nrow11\n" {
		t.Errorf("x = 0 matched %q, want both zeros' rows", got)
	}
	const asc = "row3\nrow9\nrow1\nrow7\nrow10\nrow5\nrow2\nrow4\nrow11\nrow0\nrow8\neven\nodd\nrow12\nrow6\n"
	if got := rowsString(mustQuery(t, indexed, `SELECT label FROM m ORDER BY x`)); got != asc {
		t.Errorf("ORDER BY x = %q, want NULLs, NaNs, -Inf … +Inf, equals by insertion: %q", got, asc)
	}
	if got := rowsString(mustQuery(t, indexed, `SELECT label FROM m WHERE n = ?`, float64(big))); got != "even\n" {
		t.Errorf("n = 2^53 as a REAL matched %q, want the even row only", got)
	}

	tw.indexed, tw.plain = loaded(t, saved(t, indexed)), loaded(t, saved(t, plain))
	queries()
}
