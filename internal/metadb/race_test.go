package metadb

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentReadersVsWriter drives N reader goroutines
// (Query/QueryRow/Explain) against one mutating writer
// (INSERT/DELETE, and a row moved to a new value by the two) on a
// shared table. Under -race it pins the engine's concurrency contract
// for sdmd: the daemon's request handlers read the catalog from many
// goroutines while the database stays open for writes, and a reader
// must only ever observe complete rows — a write landing after a Query
// returns must not write into the returned Rows.
func TestConcurrentReadersVsWriter(t *testing.T) {
	db := New()
	mustExec := func(sql string, args ...any) {
		t.Helper()
		if _, err := db.Exec(sql, args...); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(`CREATE TABLE kv (k INTEGER, v INTEGER, tag TEXT)`)
	mustExec(`CREATE INDEX kv_k ON kv (k)`)
	const rows = 64
	for i := 0; i < rows; i++ {
		mustExec(`INSERT INTO kv VALUES (?, ?, ?)`, i, i*10, fmt.Sprintf("row-%d", i))
	}

	const readers = 8
	const opsPerReader = 200
	var readerWG, writerWG sync.WaitGroup
	stop := make(chan struct{})

	// One writer continuously churning the table until the readers are
	// all done, so every read races a live mutator.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		i := rows
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?, ?)`, i, i*10, "new"); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if _, err := db.Exec(`DELETE FROM kv WHERE k = ?`, i%rows); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
			if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?, ?)`, i%rows, i, fmt.Sprintf("row-%d", i%rows)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if _, err := db.Exec(`DELETE FROM kv WHERE k = ?`, i); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
			i++
		}
	}()

	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for op := 0; op < opsPerReader; op++ {
				k := (r*31 + op) % rows
				switch op % 3 {
				case 0:
					res, err := db.Query(`SELECT k, v, tag FROM kv WHERE k = ?`, k)
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					// Touch every returned value: if the engine aliased
					// result rows into live table storage, the racing
					// writer above trips the detector here.
					for _, row := range res.Data {
						for _, v := range row {
							_ = v.String()
						}
					}
				case 1:
					if _, err := db.QueryRow(`SELECT COUNT(*) FROM kv`); err != nil {
						t.Errorf("queryrow: %v", err)
						return
					}
				case 2:
					res, err := db.Query(`EXPLAIN SELECT v FROM kv WHERE k = ?`, k)
					if err != nil {
						t.Errorf("explain: %v", err)
						return
					}
					for _, row := range res.Data {
						for _, v := range row {
							_ = v.String()
						}
					}
				}
			}
		}(r)
	}

	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}
