package metadb

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// fuzzImage is the database every FuzzExec input starts from: the
// tables both seed corpora name, with rows in them, including NULLs and
// every column kind — indexed, or as the index-free twin.
func fuzzImage(t testing.TB, indexed bool) []byte {
	db := New()
	for _, sql := range []string{
		`CREATE TABLE exec (runid INTEGER, dataset TEXT, timestep INTEGER, bytes INTEGER)`,
		`CREATE INDEX exec_dataset ON exec (dataset)`,
		`CREATE INDEX exec_run_ds_ts ON exec (runid, dataset, timestep)`,
		`CREATE INDEX exec_ts ON exec (timestep)`,
		`CREATE TABLE t (x INTEGER, y TEXT, z REAL, w BLOB)`,
		`CREATE INDEX t_x ON t (x)`,
	} {
		if indexed || indexFree(sql) {
			mustExec(t, db, sql)
		}
	}
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a', 0.5, ?), (2, NULL, 1.5, NULL), (NULL, 'c', NULL, ?)`,
		[]byte{0xab, 0}, []byte{})
	for i := range 24 {
		mustExec(t, db, `INSERT INTO exec VALUES (?, ?, ?, ?)`,
			i%3, []string{"pressure", "velocity", "mesh", "energy"}[i%4], i, i*100)
	}
	return saved(t, db)
}

// sdmsqlSmoke returns the SQL session scripts/consumer-coverage.sh
// types at sdmsql, so the fuzz seeds cannot drift from it.
func sdmsqlSmoke(t testing.TB) string {
	script, err := os.ReadFile("../../scripts/consumer-coverage.sh")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(script), "<<'SQL'\n")
	sql, _, ok2 := strings.Cut(rest, "\nSQL\n")
	if !ok || !ok2 {
		t.Fatal("no <<'SQL' session in scripts/consumer-coverage.sh")
	}
	return sql
}

// rowError reports whether an answer is an error of evaluating an
// expression on one row: ill-typed arithmetic, which only the rows a
// statement examines can raise.
func rowError(answer string) bool {
	return strings.Contains(answer, "arithmetic on non-numeric values") || strings.Contains(answer, "cannot negate")
}

// FuzzExec: whatever the text, running it as statements (split on ';',
// each `?` bound from a fixed cycle of values of every kind) against a
// small populated database never panics or hangs; a statement that
// fails returns an error and leaves a database whose snapshot loads;
// whatever state results saves, reloads and saves again to the same
// bytes; and every statement is answered as a twin without the indexes
// answers it — rows, affected counts and error texts. One difference is
// an index's to make: a WHERE clause ill-typed on some row fails on the
// twin, which examines every row, and may not, or on another row, where
// an index examines few. The comparison ends there.
func FuzzExec(f *testing.F) {
	seen := map[string]bool{}
	seed := func(sql string, _ ...any) {
		if !seen[sql] {
			seen[sql] = true
			f.Add(sql)
		}
	}
	randomizedStream(seed, seed)
	seed(sdmsqlSmoke(f))
	image, plainImage := fuzzImage(f, true), fuzzImage(f, false)
	binds := []any{int64(1), "pressure", int64(3), int64(7), 2.5, nil, []byte{0xab}, "mesh"}

	f.Fuzz(func(t *testing.T, in string) {
		db, plain := loaded(t, image), loaded(t, plainImage)
		for _, src := range strings.Split(in, ";") {
			_, nparams, err := parse(src)
			if err != nil {
				continue
			}
			args := make([]any, nparams)
			for i := range args {
				args[i] = binds[i%len(binds)]
			}
			got := answer(db, src, args...)
			if strings.Contains(got, "error: metadb") {
				loaded(t, saved(t, db))
			}
			if plain == nil || !indexFree(src) {
				continue
			}
			if want := answer(plain, src, args...); got != want {
				if !rowError(want) {
					t.Fatalf("%s\nwith indexes:\n%s\nwithout:\n%s", src, got, want)
				}
				plain = nil
			}
		}
		after := saved(t, db)
		if again := saved(t, loaded(t, after)); !bytes.Equal(after, again) {
			t.Fatalf("the database saved %d bytes, reloaded and saved %d different ones", len(after), len(again))
		}
	})
}
