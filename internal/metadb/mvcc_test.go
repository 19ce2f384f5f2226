package metadb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// execSchema creates the execution-table shape the catalog uses: a
// single-column index plus the widest composite.
func execSchema(t *testing.T) *DB {
	t.Helper()
	db := New()
	for _, sql := range []string{
		`CREATE TABLE exec (runid INTEGER, dataset TEXT, timestep INTEGER, bytes INTEGER)`,
		`CREATE INDEX exec_dataset ON exec (dataset)`,
		`CREATE INDEX exec_run_ds_ts ON exec (runid, dataset, timestep)`,
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSnapshotReadersSeeNoTornBatch is the MVCC atomicity pin: one
// writer INSERTs multi-row batches (every row of a batch carries the
// batch's tag, under distinct runids) and occasionally deletes whole
// batches, while readers COUNT rows by tag.
// A snapshot must show a batch entirely or not at all — any
// intermediate count means a reader caught a half-published batch.
func TestSnapshotReadersSeeNoTornBatch(t *testing.T) {
	db := execSchema(t)
	const batchRows = 6
	const readers = 4

	var lastTag atomic.Int64
	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup

	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		sql := `INSERT INTO exec VALUES `
		for i := 0; i < batchRows; i++ {
			if i > 0 {
				sql += ", "
			}
			sql += `(?, ?, ?, ?)`
		}
		for tag := int64(1); ; tag++ {
			select {
			case <-stop:
				return
			default:
			}
			args := make([]any, 0, batchRows*4)
			for i := 0; i < batchRows; i++ {
				args = append(args, tag*int64(batchRows)+int64(i), fmt.Sprintf("ds%d", i%3), tag, tag)
			}
			if _, err := db.Exec(sql, args...); err != nil {
				t.Errorf("insert batch: %v", err)
				return
			}
			lastTag.Store(tag)
			if tag%7 == 0 {
				// Drop an old batch whole; deletes must be atomic too.
				if _, err := db.Exec(`DELETE FROM exec WHERE bytes = ?`, tag-5); err != nil {
					t.Errorf("delete batch: %v", err)
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			sess := db.Session()
			for op := 0; op < 400; op++ {
				tag := lastTag.Load()
				if tag == 0 {
					continue
				}
				if op%2 == 1 {
					tag = 1 + rand.Int63n(tag) // any historical batch
				}
				rows, err := sess.Query(`SELECT COUNT(*) FROM exec WHERE bytes = ?`, tag)
				if err != nil {
					t.Errorf("count: %v", err)
					return
				}
				if n := rows.Data[0][0].AsInt(); n != 0 && n != batchRows {
					t.Errorf("torn batch: tag %d visible with %d of %d rows", tag, n, batchRows)
					return
				}
			}
		}(r)
	}

	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}

// TestConcurrentWritersAndPersist drives writers that share one table
// (distinct runids) and writers that each own a table of their own,
// beside snapshot readers and a concurrent Save/Load round-trip loop,
// all under -race. The writer mutex must lose no commit — every table
// ends holding exactly what its writers inserted — and every loaded
// snapshot must be internally consistent: whole batches only.
func TestConcurrentWritersAndPersist(t *testing.T) {
	db := execSchema(t)
	const writers = 4 // on exec
	const others = 2  // one table each
	const batches = 40
	const batchRows = 3

	insertBatches := func(table string, run int64) {
		sess := db.Session()
		for b := 0; b < batches; b++ {
			args := make([]any, 0, batchRows*4)
			sql := `INSERT INTO ` + table + ` VALUES `
			for i := 0; i < batchRows; i++ {
				if i > 0 {
					sql += ", "
				}
				sql += `(?, ?, ?, ?)`
				args = append(args, run, fmt.Sprintf("ds%d", i), int64(b), run)
			}
			if _, err := sess.Exec(sql, args...); err != nil {
				t.Errorf("writer %d on %s: %v", run, table, err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			insertBatches("exec", int64(w))
		}(w)
	}
	for o := 0; o < others; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			// DDL takes its turn on the same mutex as the inserts.
			table := fmt.Sprintf("other%d", o)
			if _, err := db.Exec(`CREATE TABLE ` + table + ` (runid INTEGER, dataset TEXT, timestep INTEGER, bytes INTEGER)`); err != nil {
				t.Errorf("create %s: %v", table, err)
				return
			}
			insertBatches(table, int64(o))
		}(o)
	}

	stop := make(chan struct{})
	var auxWG sync.WaitGroup
	// Readers: per-run lookups through the composite index and whole-
	// table counts.
	for r := 0; r < 3; r++ {
		auxWG.Add(1)
		go func(r int) {
			defer auxWG.Done()
			sess := db.Session()
			for {
				select {
				case <-stop:
					return
				default:
				}
				run := int64(r % writers)
				if _, err := sess.Query(`SELECT timestep, bytes FROM exec WHERE runid = ? AND dataset = 'ds0' AND timestep = ?`, run, int64(r)); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
				if _, err := sess.Query(`SELECT COUNT(*) FROM exec`); err != nil {
					t.Errorf("count: %v", err)
					return
				}
			}
		}(r)
	}
	// Persist loop: Save from a snapshot while writers run, Load into a
	// fresh DB, and check batch atomicity inside the loaded image.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := db.Save(&buf); err != nil {
				t.Errorf("save: %v", err)
				return
			}
			loaded := New()
			if err := loaded.Load(&buf); err != nil {
				t.Errorf("load: %v", err)
				return
			}
			for w := 0; w < writers; w++ {
				row, err := loaded.QueryRow(`SELECT COUNT(*) FROM exec WHERE runid = ?`, int64(w))
				if err != nil {
					t.Errorf("loaded count: %v", err)
					return
				}
				if n := row[0].AsInt(); n%batchRows != 0 {
					t.Errorf("loaded snapshot tore writer %d's batch: %d rows", w, n)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	auxWG.Wait()

	count := func(sql string, args ...any) int64 {
		t.Helper()
		row, err := db.QueryRow(sql, args...)
		if err != nil {
			t.Fatal(err)
		}
		return row[0].AsInt()
	}
	if got, want := count(`SELECT COUNT(*) FROM exec`), int64(writers*batches*batchRows); got != want {
		t.Fatalf("final row count %d, want %d", got, want)
	}
	for w := 0; w < writers; w++ {
		if got, want := count(`SELECT COUNT(*) FROM exec WHERE runid = ?`, int64(w)), int64(batches*batchRows); got != want {
			t.Fatalf("writer %d: %d rows, want %d", w, got, want)
		}
	}
	for o := 0; o < others; o++ {
		if got, want := count(fmt.Sprintf(`SELECT COUNT(*) FROM other%d`, o)), int64(batches*batchRows); got != want {
			t.Fatalf("other%d: %d rows, want %d", o, got, want)
		}
	}
}

// randomizedStream drives a fixed pseudo-random statement stream
// through exec and query: inserts, deletes, rows moved to a new key by
// a DELETE and an INSERT, two mid-stream CREATE INDEXes, every plan
// kind, index-served and sorted ORDER BY, aggregates and error paths.
func randomizedStream(exec, query func(sql string, args ...any)) {
	rng := rand.New(rand.NewSource(42))
	exec(`CREATE TABLE exec (runid INTEGER, dataset TEXT, timestep INTEGER, bytes INTEGER)`)
	exec(`CREATE INDEX exec_dataset ON exec (dataset)`)

	datasets := []string{"pressure", "velocity", "mesh", "energy"}
	insertBatch := func() {
		n := 1 + rng.Intn(4)
		sql := `INSERT INTO exec VALUES `
		args := make([]any, 0, n*4)
		for i := 0; i < n; i++ {
			if i > 0 {
				sql += ", "
			}
			sql += `(?, ?, ?, ?)`
			args = append(args, int64(rng.Intn(6)), datasets[rng.Intn(len(datasets))], int64(rng.Intn(40)), int64(rng.Intn(1000)))
		}
		exec(sql, args...)
	}

	selects := func() {
		run, ds, ts := int64(rng.Intn(6)), datasets[rng.Intn(len(datasets))], int64(rng.Intn(40))
		switch rng.Intn(8) {
		case 0: // composite equality probe
			query(`SELECT * FROM exec WHERE runid = ? AND dataset = ? AND timestep = ?`, run, ds, ts)
		case 1: // single-column equality
			query(`SELECT runid, timestep FROM exec WHERE dataset = ?`, ds)
		case 2: // range window (timestep index exists in phase 3)
			query(`SELECT * FROM exec WHERE timestep >= ? AND timestep <= ?`, ts, ts+9)
		case 3: // full scan on unindexed column
			query(`SELECT dataset, bytes FROM exec WHERE bytes > ?`, int64(rng.Intn(900)))
		case 4: // index-served ORDER BY: the whole dataset index, or the composite under a runid prefix
			if rng.Intn(2) == 0 {
				query(`SELECT dataset, runid, timestep FROM exec ORDER BY dataset`)
			} else {
				query(`SELECT dataset, runid, timestep FROM exec WHERE runid = ? ORDER BY dataset, timestep`, run)
			}
		case 5: // multi-key sort (not index-served)
			query(`SELECT runid, dataset, timestep FROM exec ORDER BY runid, timestep`)
		case 6: // aggregates
			query(`SELECT COUNT(*), MAX(bytes), MIN(timestep) FROM exec WHERE runid = ?`, run)
		case 7: // sorted output of an equality probe
			query(`SELECT runid, dataset, timestep, bytes FROM exec WHERE dataset = ? ORDER BY timestep, runid`, ds)
		}
	}

	// A row changes key as the catalog changes one: DELETE the rows under
	// the old key, INSERT one under the new.
	move := func(run int64, ds string, ts int64, to [3]any) {
		exec(`DELETE FROM exec WHERE runid = ? AND dataset = ? AND timestep = ?`, run, ds, ts)
		exec(`INSERT INTO exec VALUES (?, ?, ?, ?)`, to[0], to[1], to[2], int64(rng.Intn(1000)))
	}
	mutate := func() {
		run, ds, ts := int64(rng.Intn(6)), datasets[rng.Intn(len(datasets))], int64(rng.Intn(40))
		switch rng.Intn(5) {
		case 0: // new bytes under the same key: index entries unchanged
			move(run, ds, ts, [3]any{run, ds, ts})
		case 1: // a new timestep: moves composite- and timestep-index entries
			move(run, ds, ts, [3]any{run, ds, int64(rng.Intn(40))})
		case 2: // a new runid: rewrites the composite index's leading column
			move(run, ds, ts, [3]any{int64(rng.Intn(6)), ds, ts})
		case 3:
			exec(`DELETE FROM exec WHERE runid = ? AND timestep = ?`, run, ts)
		case 4: // mid-batch coercion error: leading rows persist
			exec(`INSERT INTO exec VALUES (?, ?, ?, ?), (?, ?, 'boom', ?)`,
				run, "errds", ts, int64(7), int64(rng.Intn(6)), "errds2", int64(8))
		}
	}

	// Phase 1: dataset index only.
	for i := 0; i < 150; i++ {
		insertBatch()
		if i%3 == 0 {
			selects()
		}
		if i%5 == 0 {
			mutate()
		}
	}
	// Phase 2: the composite index arrives over live data.
	exec(`CREATE INDEX exec_run_ds_ts ON exec (runid, dataset, timestep)`)
	for i := 0; i < 150; i++ {
		insertBatch()
		selects()
		if i%4 == 0 {
			mutate()
		}
	}
	// Phase 3: a timestep index enables ranges.
	exec(`CREATE INDEX exec_ts ON exec (timestep)`)
	for i := 0; i < 100; i++ {
		selects()
		if i%6 == 0 {
			mutate()
		}
	}
}

// streamTranscript runs the randomized stream against db and returns
// the SHA-256 of everything it answered — every query's rows, every
// statement's affected count and error text, and the final Save image
// — with the image. How the answers were reached (the planner counters)
// is not part of it.
func streamTranscript(t *testing.T, db *DB) (digest string, image []byte) {
	t.Helper()
	h := sha256.New()
	randomizedStream(
		func(sql string, args ...any) {
			n, err := db.Exec(sql, args...)
			fmt.Fprintf(h, "exec %d %v\n", n, err)
		},
		func(sql string, args ...any) {
			r, err := db.Query(sql, args...)
			if err != nil {
				fmt.Fprintf(h, "query %v\n", err)
				return
			}
			fmt.Fprintf(h, "query\n%s", rowsString(r))
		})
	image = saved(t, db)
	h.Write(image)
	return hex.EncodeToString(h.Sum(nil)), image
}

// streamDigest is what streamTranscript returns for commit 86d60cc,
// the last engine that also ran UPDATE, ORDER BY … DESC, OR, NOT,
// IS NULL, arithmetic and LIMIT, recorded in a clone of it with this
// stream: cutting the dialect to what the program issues must leave
// every answer to it as it was.
const streamDigest = "abfe230a390bc589543aaa574d6df76373fb0441e92dbdd846c43f34d560c250"

// streamCounters is how the stream's answers are reached, recorded
// beside streamDigest: the cut moved no plan.
var streamCounters = Stats{
	Queries: 743, RowsScanned: 91977, IndexHits: 236,
	PlanEq: 219, PlanRange: 17, PlanScan: 136,
}

func TestRandomizedStreamTranscript(t *testing.T) {
	db := New()
	digest, image := streamTranscript(t, db)
	if digest != streamDigest {
		t.Errorf("transcript digest %s, want %s", digest, streamDigest)
	}
	st := db.StatsSnapshot()
	if got := (Stats{Queries: st.Queries, RowsScanned: st.RowsScanned, IndexHits: st.IndexHits, PlanEq: st.PlanEq, PlanRange: st.PlanRange, PlanScan: st.PlanScan}); got != streamCounters {
		t.Errorf("planner counters %+v, want %+v", got, streamCounters)
	}
	// Save∘Load∘Save is a fixed point, and the loaded image answers as
	// the database that wrote it.
	re := loaded(t, image)
	if again := saved(t, re); !bytes.Equal(again, image) {
		t.Errorf("loaded image saves %d bytes that differ from the %d it was loaded from", len(again), len(image))
	}
	for _, q := range []string{
		`SELECT * FROM exec ORDER BY dataset`,
		`SELECT COUNT(*) FROM exec`,
		`SELECT runid, dataset, timestep FROM exec ORDER BY runid, timestep`,
	} {
		want := rowsString(mustQuery(t, db, q))
		if got := rowsString(mustQuery(t, re, q)); got != want {
			t.Fatalf("after Load, %s diverged:\n%svs\n%s", q, got, want)
		}
	}
}

// TestSessionBasics pins the session/engine split: session statements
// hit the shared data, the session-local statement cache serves
// repeats, and per-goroutine sessions run race-free in parallel.
func TestSessionBasics(t *testing.T) {
	db := execSchema(t)
	s := db.Session()
	if _, err := s.Exec(`INSERT INTO exec VALUES (1, 'p', 0, 10)`); err != nil {
		t.Fatal(err)
	}
	// Visible through the DB and a second session alike.
	for range 3 {
		rows, err := db.Session().Query(`SELECT bytes FROM exec WHERE runid = 1 AND dataset = 'p' AND timestep = 0`)
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() != 1 || rows.Data[0][0].AsInt() != 10 {
			t.Fatalf("session write invisible: %v", rows.Data)
		}
	}
	if rows, err := s.Query(`EXPLAIN SELECT * FROM exec WHERE runid = 1 AND dataset = 'p' AND timestep = 0`); err != nil || rows.Len() == 0 {
		t.Fatalf("session explain: %v", err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.Session()
			for i := 0; i < 100; i++ {
				if _, err := sess.Exec(`INSERT INTO exec VALUES (?, 'q', ?, ?)`, int64(g+10), int64(i), int64(i)); err != nil {
					t.Errorf("session exec: %v", err)
					return
				}
				// Repeat statement text exercises the unsynchronized
				// session cache.
				if _, err := sess.Query(`SELECT timestep FROM exec WHERE runid = ? AND dataset = 'q' AND timestep = ? ORDER BY dataset`, int64(g+10), int64(i)); err != nil {
					t.Errorf("session query: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	row, err := db.QueryRow(`SELECT COUNT(*) FROM exec`)
	if err != nil {
		t.Fatal(err)
	}
	if got := row[0].AsInt(); got != 601 {
		t.Fatalf("row count after concurrent sessions: %d, want 601", got)
	}
}
