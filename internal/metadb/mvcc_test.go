package metadb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// execSchema creates the execution-table shape the catalog uses —
// single-column index plus the widest composite, which makes runid the
// shard-routing column — in a DB with the given shard count.
func execSchema(t *testing.T, n int) *DB {
	t.Helper()
	db := NewWithShards(n)
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
// batch's tag, rows spread across shards via distinct runids) and
// occasionally deletes whole batches, while readers COUNT rows by tag.
// A snapshot must show a batch entirely or not at all — any
// intermediate count means a reader caught a half-published batch.
func TestSnapshotReadersSeeNoTornBatch(t *testing.T) {
	db := execSchema(t, DefaultShards)
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
				// Distinct runids per batch row → the batch spans shards,
				// so a torn publish would be observable per shard.
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
				row, err := sess.QueryRow(`SELECT COUNT(*) FROM exec WHERE bytes = ?`, tag)
				if err != nil {
					t.Errorf("count: %v", err)
					return
				}
				if n := row[0].AsInt(); n != 0 && n != batchRows {
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

// TestConcurrentShardWritersAndPersist drives M writers over disjoint
// runids (disjoint shards, so their batches commit in parallel), N
// snapshot readers, and a concurrent Save/Load round-trip loop, all
// under -race. Loaded snapshots must be internally consistent — every
// writer's rows appear in whole batches — and the final table must
// hold exactly what the writers inserted.
func TestConcurrentShardWritersAndPersist(t *testing.T) {
	db := execSchema(t, DefaultShards)
	const writers = 4
	const batches = 40
	const batchRows = 3

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.Session()
			for b := 0; b < batches; b++ {
				args := make([]any, 0, batchRows*4)
				sql := `INSERT INTO exec VALUES `
				for i := 0; i < batchRows; i++ {
					if i > 0 {
						sql += ", "
					}
					sql += `(?, ?, ?, ?)`
					args = append(args, int64(w), fmt.Sprintf("ds%d", i), int64(b), int64(w))
				}
				if _, err := sess.Exec(sql, args...); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	var auxWG sync.WaitGroup
	// Readers: per-run lookups through the composite index (single
	// shard) and scatter counts.
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
				if _, err := sess.QueryRow(`SELECT COUNT(*) FROM exec`); err != nil {
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
			loaded := NewWithShards(DefaultShards)
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

	row, err := db.QueryRow(`SELECT COUNT(*) FROM exec`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := row[0].AsInt(), int64(writers*batches*batchRows); got != want {
		t.Fatalf("final row count %d, want %d", got, want)
	}
	for w := 0; w < writers; w++ {
		row, err := db.QueryRow(`SELECT COUNT(*) FROM exec WHERE runid = ?`, int64(w))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := row[0].AsInt(), int64(batches*batchRows); got != want {
			t.Fatalf("writer %d: %d rows, want %d", w, got, want)
		}
	}
}

// TestShardedDifferentialRandomized pins the sharded engine
// behaviorally identical to a 1-shard engine: the same randomized
// statement stream (inserts, cross-bucket and cross-shard updates,
// deletes, mid-stream CREATE INDEX forcing a reshard, every plan kind,
// index-served and sorted ORDER BY, aggregates, LIMIT, error paths)
// must produce identical rows in identical order, identical affected
// counts and errors, identical RowsScanned/IndexHits/OrderSkips and
// plan-kind counters, and byte-identical Save images.
func TestShardedDifferentialRandomized(t *testing.T) {
	one := NewWithShards(1)
	many := NewWithShards(8)
	dbs := []*DB{one, many}
	rng := rand.New(rand.NewSource(42))

	exec := func(sql string, args ...any) {
		t.Helper()
		n1, err1 := one.Exec(sql, args...)
		n2, err2 := many.Exec(sql, args...)
		if n1 != n2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("exec diverged: %s -> (%d,%v) vs (%d,%v)", sql, n1, err1, n2, err2)
		}
		if err1 != nil && err2 != nil && err1.Error() != err2.Error() {
			t.Fatalf("exec errors diverged: %q vs %q", err1, err2)
		}
	}
	query := func(sql string, args ...any) {
		t.Helper()
		r1, err1 := one.Query(sql, args...)
		r2, err2 := many.Query(sql, args...)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query diverged: %s -> %v vs %v", sql, err1, err2)
		}
		if err1 != nil {
			return
		}
		if got, want := rowsString(r2), rowsString(r1); got != want {
			t.Fatalf("%s:\n8 shards:\n%s1 shard:\n%s", sql, got, want)
		}
	}

	for _, db := range dbs {
		if _, err := db.Exec(`CREATE TABLE exec (runid INTEGER, dataset TEXT, timestep INTEGER, bytes INTEGER)`); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`CREATE INDEX exec_dataset ON exec (dataset)`); err != nil {
			t.Fatal(err)
		}
	}

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
		case 0: // composite equality probe (single-shard once resharded)
			query(`SELECT * FROM exec WHERE runid = ? AND dataset = ? AND timestep = ?`, run, ds, ts)
		case 1: // single-column equality
			query(`SELECT runid, timestep FROM exec WHERE dataset = ?`, ds)
		case 2: // range window (timestep index exists in phase 3)
			query(`SELECT * FROM exec WHERE timestep >= ? AND timestep <= ?`, ts, ts+9)
		case 3: // full scan on unindexed column
			query(`SELECT dataset, bytes FROM exec WHERE bytes > ?`, int64(rng.Intn(900)))
		case 4: // index-served ORDER BY, both directions
			if rng.Intn(2) == 0 {
				query(`SELECT dataset, runid, timestep FROM exec ORDER BY dataset`)
			} else {
				query(`SELECT dataset, runid, timestep FROM exec ORDER BY dataset DESC`)
			}
		case 5: // multi-key sort (not index-served)
			query(`SELECT runid, dataset, timestep FROM exec ORDER BY runid, timestep DESC`)
		case 6: // aggregates
			query(`SELECT COUNT(*), MAX(bytes), MIN(timestep) FROM exec WHERE runid = ?`, run)
		case 7: // LIMIT over sorted output
			query(`SELECT runid, dataset, timestep, bytes FROM exec ORDER BY dataset LIMIT 7`)
		}
	}

	mutate := func() {
		switch rng.Intn(5) {
		case 0: // value update, index buckets unchanged
			exec(`UPDATE exec SET bytes = ? WHERE timestep = ?`, int64(rng.Intn(1000)), int64(rng.Intn(40)))
		case 1: // moves composite-index buckets
			exec(`UPDATE exec SET timestep = ? WHERE dataset = ? AND timestep = ?`,
				int64(rng.Intn(40)), datasets[rng.Intn(len(datasets))], int64(rng.Intn(40)))
		case 2: // moves rows across shards (runid is the shard column)
			exec(`UPDATE exec SET runid = ? WHERE runid = ? AND timestep = ?`,
				int64(rng.Intn(6)), int64(rng.Intn(6)), int64(rng.Intn(40)))
		case 3:
			exec(`DELETE FROM exec WHERE runid = ? AND timestep = ?`, int64(rng.Intn(6)), int64(rng.Intn(40)))
		case 4: // mid-batch coercion error: leading rows persist, batch count+error identical
			exec(`INSERT INTO exec VALUES (?, ?, ?, ?), (?, ?, 'boom', ?)`,
				int64(rng.Intn(6)), "errds", int64(rng.Intn(40)), int64(7),
				int64(rng.Intn(6)), "errds2", int64(8))
		}
	}

	// Phase 1: dataset index only (shard column = dataset).
	for i := 0; i < 150; i++ {
		insertBatch()
		if i%3 == 0 {
			selects()
		}
		if i%5 == 0 {
			mutate()
		}
	}
	// Phase 2: the composite index arrives mid-stream; the widest-index
	// rule moves the shard column to runid, resharding live data.
	exec(`CREATE INDEX exec_run_ds_ts ON exec (runid, dataset, timestep)`)
	for i := 0; i < 150; i++ {
		insertBatch()
		selects()
		if i%4 == 0 {
			mutate()
		}
	}
	// Phase 3: a timestep index (no shard-column change) enables ranges.
	exec(`CREATE INDEX exec_ts ON exec (timestep)`)
	for i := 0; i < 100; i++ {
		selects()
		if i%6 == 0 {
			mutate()
		}
	}

	// Counter identity: candidate sets are shard-count independent.
	s1, s8 := one.StatsSnapshot(), many.StatsSnapshot()
	if s1.RowsScanned != s8.RowsScanned {
		t.Errorf("RowsScanned diverged: 1-shard %d vs 8-shard %d", s1.RowsScanned, s8.RowsScanned)
	}
	if s1.IndexHits != s8.IndexHits {
		t.Errorf("IndexHits diverged: %d vs %d", s1.IndexHits, s8.IndexHits)
	}
	if s1.OrderSkips != s8.OrderSkips {
		t.Errorf("OrderSkips diverged: %d vs %d", s1.OrderSkips, s8.OrderSkips)
	}
	if s1.PlanEq != s8.PlanEq || s1.PlanRange != s8.PlanRange || s1.PlanScan != s8.PlanScan {
		t.Errorf("plan counts diverged: (%d,%d,%d) vs (%d,%d,%d)",
			s1.PlanEq, s1.PlanRange, s1.PlanScan, s8.PlanEq, s8.PlanRange, s8.PlanScan)
	}
	if s1.Queries != s8.Queries {
		t.Errorf("Queries diverged: %d vs %d", s1.Queries, s8.Queries)
	}

	// Persist identity: rows serialize in global insertion order, so
	// the snapshot bytes cannot depend on the shard count.
	var b1, b8 bytes.Buffer
	if err := one.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := many.Save(&b8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Errorf("Save bytes differ between shard counts (%d vs %d bytes)", b1.Len(), b8.Len())
	}

	// Round-trip: the 8-shard image loads into either shard count and
	// still answers identically.
	for _, n := range []int{1, 8} {
		loaded := NewWithShards(n)
		if err := loaded.Load(bytes.NewReader(b8.Bytes())); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil || !bytes.Equal(again.Bytes(), b8.Bytes()) {
			t.Errorf("image loaded into %d shards saves %d bytes (%v), not the %d it was loaded from", n, again.Len(), err, b8.Len())
		}
		for _, q := range []string{
			`SELECT * FROM exec ORDER BY dataset`,
			`SELECT COUNT(*) FROM exec`,
			`SELECT runid, dataset, timestep FROM exec ORDER BY runid, timestep DESC`,
		} {
			want := rowsString(mustQuery(t, one, q))
			if got := rowsString(mustQuery(t, loaded, q)); got != want {
				t.Fatalf("after Load into %d shards, %s diverged:\n%svs\n%s", n, q, got, want)
			}
		}
	}
}

// TestSessionBasics pins the session/engine split: session statements
// hit the shared data, the session-local statement cache serves
// repeats, and per-goroutine sessions run race-free in parallel.
func TestSessionBasics(t *testing.T) {
	db := execSchema(t, DefaultShards)
	s := db.Session()
	if s.DB() != db {
		t.Fatal("Session.DB() lost its engine")
	}
	if _, err := s.Exec(`INSERT INTO exec VALUES (1, 'p', 0, 10)`); err != nil {
		t.Fatal(err)
	}
	// Visible through the DB and a second session alike.
	for range 3 {
		row, err := db.Session().QueryRow(`SELECT bytes FROM exec WHERE runid = 1 AND dataset = 'p' AND timestep = 0`)
		if err != nil {
			t.Fatal(err)
		}
		if row == nil || row[0].AsInt() != 10 {
			t.Fatalf("session write invisible: %v", row)
		}
	}
	if rows, err := s.Explain(`SELECT * FROM exec WHERE runid = 1 AND dataset = 'p' AND timestep = 0`); err != nil || rows.Len() == 0 {
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
				// session cache; ORDER BY exercises the sort scratch.
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

// TestExplainShardsLine pins the EXPLAIN shard-targeting report and
// the single-shard/scatter counters: a composite probe binding the
// shard column reads one shard, everything else scatters.
func TestExplainShardsLine(t *testing.T) {
	db := execSchema(t, 8)
	if _, err := db.Exec(`INSERT INTO exec VALUES (1, 'p', 0, 10), (2, 'q', 1, 20)`); err != nil {
		t.Fatal(err)
	}

	probe := planText(t, db, `SELECT * FROM exec WHERE runid = 1 AND dataset = 'p' AND timestep = 0`)
	if !containsLine(probe, "shards: 1 of 8") {
		t.Errorf("composite probe should target one shard:\n%s", probe)
	}
	scatter := planText(t, db, `SELECT * FROM exec WHERE dataset = 'p'`)
	if !containsLine(scatter, "shards: 8 of 8") {
		t.Errorf("non-shard-column probe should scatter:\n%s", scatter)
	}
	scan := planText(t, db, `SELECT * FROM exec`)
	if !containsLine(scan, "shards: 8 of 8") {
		t.Errorf("scan should scatter:\n%s", scan)
	}

	// EXPLAIN observes without counting; execution moves the split.
	single0, scatter0 := db.ShardPlanCounts()
	if _, err := db.Query(`SELECT * FROM exec WHERE runid = 1 AND dataset = 'p' AND timestep = 0`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT * FROM exec WHERE dataset = 'p'`); err != nil {
		t.Fatal(err)
	}
	single, scatterN := db.ShardPlanCounts()
	if single != single0+1 || scatterN != scatter0+1 {
		t.Errorf("ShardPlanCounts moved (%d,%d) -> (%d,%d), want +1/+1", single0, scatter0, single, scatterN)
	}

	// A 1-shard DB reports every plan as single-shard.
	db1 := execSchema(t, 1)
	if got := planText(t, db1, `SELECT * FROM exec`); !containsLine(got, "shards: 1 of 1") {
		t.Errorf("1-shard scan:\n%s", got)
	}
}

func containsLine(text, line string) bool {
	return bytes.Contains([]byte(text), []byte(line))
}
