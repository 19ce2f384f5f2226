package metadb

import (
	"strings"
	"testing"
)

func explainDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE runs (runid INTEGER, dataset TEXT, timestep INTEGER)`)
	mustExec(t, db, `CREATE INDEX runs_runid ON runs(runid)`)
	mustExec(t, db, `CREATE INDEX runs_probe ON runs(runid, dataset)`)
	for i := 0; i < 10; i++ {
		mustExec(t, db, `INSERT INTO runs VALUES (?, ?, ?)`, i%3, "d", i)
	}
	return db
}

// planText runs EXPLAIN and returns the plan lines joined.
func planText(t *testing.T, db *DB, sql string, args ...any) string {
	t.Helper()
	rows, err := db.Query("EXPLAIN "+sql, args...)
	if err != nil {
		t.Fatalf("EXPLAIN %q: %v", sql, err)
	}
	if len(rows.Columns) != 1 || rows.Columns[0] != "plan" {
		t.Fatalf("EXPLAIN columns = %v", rows.Columns)
	}
	var lines []string
	for _, row := range rows.Data {
		lines = append(lines, row[0].AsText())
	}
	return strings.Join(lines, "\n")
}

// planCounts reads the per-plan-kind statement counters.
func planCounts(db *DB) (eq, rng, scan int64) {
	st := db.StatsSnapshot()
	return st.PlanEq, st.PlanRange, st.PlanScan
}

func TestExplainPlanKinds(t *testing.T) {
	db := explainDB(t)

	eq := planText(t, db, `SELECT * FROM runs WHERE runid = 1 AND dataset = 'd'`)
	if !strings.Contains(eq, "equality probe on index runs_probe") {
		t.Fatalf("composite equality plan:\n%s", eq)
	}
	if !strings.Contains(eq, "cover all 2 index column(s)") {
		t.Fatalf("equality plan missing reason:\n%s", eq)
	}

	rng := planText(t, db, `SELECT * FROM runs WHERE runid > 0`)
	if !strings.Contains(rng, "range scan on index runs_runid") {
		t.Fatalf("range plan:\n%s", rng)
	}

	scan := planText(t, db, `SELECT * FROM runs`)
	if !strings.Contains(scan, "full table scan: no WHERE clause") {
		t.Fatalf("scan plan:\n%s", scan)
	}

	unindexed := planText(t, db, `SELECT * FROM runs WHERE timestep = 4`)
	if !strings.Contains(unindexed, "full table scan:") {
		t.Fatalf("unindexed plan:\n%s", unindexed)
	}
}

// The estimate line reports how many candidate rows the chosen plan
// yields against the current data, out of the table's total.
func TestExplainEstimate(t *testing.T) {
	db := explainDB(t)
	// runid = 1 matches rows 1, 4, 7 of the 10 inserted.
	got := planText(t, db, `SELECT * FROM runs WHERE runid = 1`)
	if !strings.Contains(got, "estimate: scan 3 of 10 row(s)") {
		t.Fatalf("estimate:\n%s", got)
	}
	full := planText(t, db, `SELECT * FROM runs`)
	if !strings.Contains(full, "estimate: scan 10 of 10 row(s)") {
		t.Fatalf("full-scan estimate:\n%s", full)
	}
}

// EXPLAIN shares planFor with execution, so the printed plan kind must
// match what running the same statement counts in planCounts.
func TestExplainMatchesExecutedPlan(t *testing.T) {
	db := explainDB(t)
	cases := []struct {
		sql  string
		kind string
	}{
		{`SELECT * FROM runs WHERE runid = 1 AND dataset = 'd'`, "equality probe"},
		{`SELECT * FROM runs WHERE runid >= 1`, "range scan"},
		{`SELECT * FROM runs WHERE timestep = 2`, "full table scan"},
	}
	for _, tc := range cases {
		plan := planText(t, db, tc.sql)
		if !strings.Contains(plan, tc.kind) {
			t.Fatalf("EXPLAIN %q = %q, want kind %q", tc.sql, plan, tc.kind)
		}
		eq0, rng0, scan0 := planCounts(db)
		mustQuery(t, db, tc.sql)
		eq1, rng1, scan1 := planCounts(db)
		var bumped string
		switch {
		case eq1 == eq0+1 && rng1 == rng0 && scan1 == scan0:
			bumped = "equality probe"
		case rng1 == rng0+1 && eq1 == eq0 && scan1 == scan0:
			bumped = "range scan"
		case scan1 == scan0+1 && eq1 == eq0 && rng1 == rng0:
			bumped = "full table scan"
		default:
			t.Fatalf("%q: plan counts moved unexpectedly (%d,%d,%d)->(%d,%d,%d)",
				tc.sql, eq0, rng0, scan0, eq1, rng1, scan1)
		}
		if bumped != tc.kind {
			t.Fatalf("%q: EXPLAIN says %q, execution counted %q", tc.sql, tc.kind, bumped)
		}
	}
}

func TestExplainOrderByIndexLine(t *testing.T) {
	db := explainDB(t)
	got := planText(t, db, `SELECT * FROM runs WHERE runid > 0 ORDER BY runid`)
	if !strings.Contains(got, "order by runid served from index runs_runid (no sort)") {
		t.Fatalf("order-by line missing:\n%s", got)
	}
	// ORDER BY on an unindexed column gets no such line.
	got = planText(t, db, `SELECT * FROM runs ORDER BY timestep`)
	if strings.Contains(got, "served from index") {
		t.Fatalf("unexpected order-by line:\n%s", got)
	}
}

// EXPLAIN with placeholder params plans against the bound values.
func TestExplainWithParams(t *testing.T) {
	db := explainDB(t)
	rows, err := db.Query(`EXPLAIN SELECT * FROM runs WHERE runid = ?`, 2)
	if err != nil {
		t.Fatal(err)
	}
	text := rows.Data[0][0].AsText()
	if !strings.Contains(text, "equality probe on index runs_runid") {
		t.Fatalf("param plan: %q", text)
	}
}

// EXPLAIN observes without executing: no query-count bump, no plan
// counter movement, and no rows touched.
func TestExplainDoesNotExecute(t *testing.T) {
	db := explainDB(t)
	q0 := db.QueryCount()
	eq0, rng0, scan0 := planCounts(db)
	planText(t, db, `SELECT * FROM runs WHERE runid = 1`)
	if got := db.QueryCount(); got != q0 {
		t.Fatalf("EXPLAIN bumped QueryCount: %d -> %d", q0, got)
	}
	eq1, rng1, scan1 := planCounts(db)
	if eq1 != eq0 || rng1 != rng0 || scan1 != scan0 {
		t.Fatalf("EXPLAIN moved plan counts: (%d,%d,%d) -> (%d,%d,%d)",
			eq0, rng0, scan0, eq1, rng1, scan1)
	}
}

func TestExplainErrors(t *testing.T) {
	db := explainDB(t)
	if _, err := db.Query(`EXPLAIN SELECT * FROM nosuch`); err == nil {
		t.Fatal("EXPLAIN over a missing table succeeded")
	}
	if _, err := db.Query(`EXPLAIN DELETE FROM runs`); err == nil {
		t.Fatal("EXPLAIN of a non-SELECT succeeded")
	}
}
