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

// sdmsqlSmoke returns the SQL sessions scripts/consumer-coverage.sh
// types at sdmsql, the dialect's and the refused statements', so the
// fuzz seeds cannot drift from them.
func sdmsqlSmoke(t testing.TB) []string {
	script, err := os.ReadFile("../../scripts/consumer-coverage.sh")
	if err != nil {
		t.Fatal(err)
	}
	var sessions []string
	for rest := string(script); ; {
		var ok bool
		if _, rest, ok = strings.Cut(rest, "<<'SQL'\n"); !ok {
			break
		}
		var sql string
		if sql, rest, ok = strings.Cut(rest, "\nSQL\n"); !ok {
			t.Fatal("an unterminated <<'SQL' session in scripts/consumer-coverage.sh")
		}
		sessions = append(sessions, sql)
	}
	if len(sessions) != 2 {
		t.Fatalf("%d <<'SQL' sessions in scripts/consumer-coverage.sh, want the dialect's and the refused", len(sessions))
	}
	return sessions
}

// FuzzExec: whatever the text, running it as statements (split on ';',
// each `?` bound from a fixed cycle of values of every kind) against a
// small populated database never panics or hangs; a statement that
// fails returns an error and leaves a database whose snapshot loads;
// whatever state results saves, reloads and saves again to the same
// bytes; and every statement is answered as a twin without the indexes
// answers it — rows, affected counts and error texts. No expression of
// the dialect can fail on a row, so how many rows a plan examines never
// shows in an answer.
func FuzzExec(f *testing.F) {
	seen := map[string]bool{}
	seed := func(sql string, _ ...any) {
		if !seen[sql] {
			seen[sql] = true
			f.Add(sql)
		}
	}
	randomizedStream(seed, seed)
	for _, session := range sdmsqlSmoke(f) {
		seed(session)
	}
	for _, tc := range refused {
		seed(tc.sql)
	}
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
			if !indexFree(src) {
				continue
			}
			if want := answer(plain, src, args...); got != want {
				t.Fatalf("%s\nwith indexes:\n%s\nwithout:\n%s", src, got, want)
			}
		}
		after := saved(t, db)
		if again := saved(t, loaded(t, after)); !bytes.Equal(after, again) {
			t.Fatalf("the database saved %d bytes, reloaded and saved %d different ones", len(after), len(again))
		}
	})
}
