package metadb

import (
	"fmt"
	"testing"
)

func benchDB(b *testing.B, withIndex bool, rows int) *DB {
	b.Helper()
	db := New()
	if _, err := db.Exec(`CREATE TABLE t (k INTEGER, s TEXT, v REAL)`); err != nil {
		b.Fatal(err)
	}
	if withIndex {
		if _, err := db.Exec(`CREATE INDEX tk ON t (k)`); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?)`, i, fmt.Sprintf("row%d", i), float64(i)*1.5); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkInsert(b *testing.B) {
	db := benchDB(b, false, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?)`, i, "bench", 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectByKeyIndexed(b *testing.B) {
	db := benchDB(b, true, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT s FROM t WHERE k = ?`, i%10_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectByKeyScan(b *testing.B) {
	db := benchDB(b, false, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT s FROM t WHERE k = ?`, i%10_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseStatement(b *testing.B) {
	const q = `SELECT a, b FROM t WHERE x = ? AND y > 3 ORDER BY a, b`
	for i := 0; i < b.N; i++ {
		if _, _, err := parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderBy(b *testing.B) {
	db := benchDB(b, false, 5_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT k FROM t ORDER BY v`); err != nil {
			b.Fatal(err)
		}
	}
}
