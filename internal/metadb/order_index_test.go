package metadb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func rowsString(r *Rows) string {
	var b bytes.Buffer
	for _, row := range r.Data {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// twinDBs builds two identical databases, one with an index on k and
// one without, so index-served ORDER BY can be differential-tested
// against the sorting path.
func twinDBs(t *testing.T, n int, seed int64) (indexed, plain *DB) {
	t.Helper()
	indexed, plain = New(), New()
	rng := rand.New(rand.NewSource(seed))
	ddl := `CREATE TABLE obs (k INTEGER, label TEXT)`
	mustExec(t, indexed, ddl)
	mustExec(t, indexed, `CREATE INDEX obs_k ON obs (k)`)
	mustExec(t, plain, ddl)
	for i := 0; i < n; i++ {
		// Small key domain forces duplicate keys, exercising tie order.
		k := rng.Intn(12)
		label := fmt.Sprintf("row%d", i)
		if i%17 == 0 {
			mustExec(t, indexed, `INSERT INTO obs VALUES (NULL, ?)`, label)
			mustExec(t, plain, `INSERT INTO obs VALUES (NULL, ?)`, label)
			continue
		}
		mustExec(t, indexed, `INSERT INTO obs VALUES (?, ?)`, int64(k), label)
		mustExec(t, plain, `INSERT INTO obs VALUES (?, ?)`, int64(k), label)
	}
	return indexed, plain
}

// TestOrderByServedFromIndex checks that a single-key ORDER BY on the
// indexed column skips the sort (counter moves) while producing output
// identical to the sorting path, with and without WHERE filters.
func TestOrderByServedFromIndex(t *testing.T) {
	indexed, plain := twinDBs(t, 300, 7)
	queries := []string{
		`SELECT k, label FROM obs ORDER BY k`,
		`SELECT label FROM obs ORDER BY k`, // key not projected
		`SELECT k, label FROM obs WHERE k >= 4 AND k <= 9 ORDER BY k`,
		`SELECT k, label FROM obs WHERE label != 'row5' ORDER BY k ASC`,
		`SELECT k, label FROM obs WHERE k = 3 ORDER BY k`,
	}
	for _, q := range queries {
		before := indexed.StatsSnapshot().OrderSkips
		got := rowsString(mustQuery(t, indexed, q))
		if indexed.StatsSnapshot().OrderSkips != before+1 {
			t.Errorf("%s: sort was not skipped (OrderSkips %d -> %d)", q, before, indexed.StatsSnapshot().OrderSkips)
		}
		want := rowsString(mustQuery(t, plain, q))
		if got != want {
			t.Errorf("%s:\nindexed path:\n%splain sort:\n%s", q, got, want)
		}
	}
	if skips := plain.StatsSnapshot().OrderSkips; skips != 0 {
		t.Errorf("unindexed DB skipped %d sorts", skips)
	}
}

// TestOrderByIndexIneligible checks the fallbacks: multi-key ORDER BY
// and unindexed sort keys still sort (no counter movement, correct
// output).
func TestOrderByIndexIneligible(t *testing.T) {
	indexed, plain := twinDBs(t, 120, 11)
	for _, q := range []string{
		`SELECT k, label FROM obs ORDER BY k, label`,
		`SELECT k, label FROM obs ORDER BY label`,
	} {
		before := indexed.StatsSnapshot().OrderSkips
		got := rowsString(mustQuery(t, indexed, q))
		if indexed.StatsSnapshot().OrderSkips != before {
			t.Errorf("%s: expected a real sort, but it was skipped", q)
		}
		if want := rowsString(mustQuery(t, plain, q)); got != want {
			t.Errorf("%s: output diverged", q)
		}
	}
}

// rekey moves the rows a WHERE clause selects to key k the way the
// catalog changes a key: DELETE them, then INSERT each again.
func rekey(t *testing.T, db *DB, where string, k int64) {
	t.Helper()
	rows := mustQuery(t, db, `SELECT label FROM obs WHERE `+where)
	mustExec(t, db, `DELETE FROM obs WHERE `+where)
	for _, r := range rows.Data {
		mustExec(t, db, `INSERT INTO obs VALUES (?, ?)`, k, r[0].AsText())
	}
}

// TestOrderByIndexAfterMutation mutates indexed rows (rekey moves rows
// between buckets, DELETE empties some) and re-checks that index-served
// ordering still matches the sorting path, including the stable tie
// order inside buckets the moved rows join.
func TestOrderByIndexAfterMutation(t *testing.T) {
	indexed, plain := twinDBs(t, 200, 13)
	for _, db := range []*DB{indexed, plain} {
		rekey(t, db, `k = 2`, 5)
		rekey(t, db, `label = 'row100'`, 0)
		mustExec(t, db, `DELETE FROM obs WHERE k = 7`)
	}
	for _, q := range []string{
		`SELECT k, label FROM obs ORDER BY k`,
		`SELECT k, label FROM obs WHERE k >= 0 ORDER BY k`,
	} {
		got := rowsString(mustQuery(t, indexed, q))
		want := rowsString(mustQuery(t, plain, q))
		if got != want {
			t.Errorf("%s after mutation:\nindexed path:\n%splain sort:\n%s", q, got, want)
		}
	}
}

// TestPersistRebuildsIndexState is the round-trip guard for the run
// bundle's catalog snapshot: after Save and Load into a fresh DB,
// equality and range lookups still come from indexes, ORDER BY is
// still served from the rebuilt ordered-index state, results are
// identical, and the rebuilt indexes stay consistent under further
// mutation.
func TestPersistRebuildsIndexState(t *testing.T) {
	orig, plain := twinDBs(t, 250, 17)

	queries := []string{
		`SELECT k, label FROM obs ORDER BY k`,
		`SELECT label FROM obs ORDER BY k`,
		`SELECT k, label FROM obs WHERE k = 4 ORDER BY k`,
		`SELECT k, label FROM obs WHERE k >= 3 AND k <= 8 ORDER BY k`,
	}
	var want []string
	for _, q := range queries {
		want = append(want, rowsString(mustQuery(t, orig, q)))
	}

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := New()
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}

	// Every query must be answered from the rebuilt index: candidate
	// rows from index lookups where a WHERE exists, and the sort
	// skipped for all of them.
	hits0, skips0 := loaded.StatsSnapshot().IndexHits, loaded.StatsSnapshot().OrderSkips
	for i, q := range queries {
		if got := rowsString(mustQuery(t, loaded, q)); got != want[i] {
			t.Errorf("after Load, %s:\ngot:\n%swant:\n%s", q, got, want[i])
		}
	}
	if got := loaded.StatsSnapshot().OrderSkips - skips0; got != int64(len(queries)) {
		t.Errorf("loaded DB skipped %d sorts, want %d", got, len(queries))
	}
	// The two WHERE-bearing queries (equality + range) must hit the index.
	if got := loaded.StatsSnapshot().IndexHits - hits0; got != 2 {
		t.Errorf("loaded DB had %d index hits, want 2", got)
	}

	// The rebuilt index must stay consistent under further mutation.
	for _, db := range []*DB{loaded, plain} {
		mustExec(t, db, `INSERT INTO obs VALUES (6, 'post-load'), (1, 'post-load2')`)
		rekey(t, db, `k = 0`, 9)
		mustExec(t, db, `DELETE FROM obs WHERE k = 5`)
	}
	for _, q := range queries {
		got := rowsString(mustQuery(t, loaded, q))
		ref := rowsString(mustQuery(t, plain, q))
		if got != ref {
			t.Errorf("after Load+mutation, %s diverged:\ngot:\n%swant:\n%s", q, got, ref)
		}
	}
}
