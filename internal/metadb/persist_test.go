package metadb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// The goldens: golden_v1.mdb was written by the MDB1 Save of PR 17 over
// a database with all five kinds, NULLs in every column, a composite
// index, updated rows and deleted rows;
// golden_v2.mdb is what this Save writes after loading it, pinning the
// MDB2 bytes.
func golden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func loaded(t testing.TB, image []byte) *DB {
	t.Helper()
	db := New()
	if err := db.Load(bytes.NewReader(image)); err != nil {
		t.Fatal(err)
	}
	return db
}

func saved(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenV1 loads the MDB1 golden and checks
// the rows, the index plans and EXPLAIN against what the database that
// wrote it answered, then that it re-saves as the MDB2 golden, which
// loads to the same answers and saves to itself.
func TestGoldenV1(t *testing.T) {
	want := []struct{ sql, rows string }{
		{`SELECT * FROM obs`, "1\talpha\t1.5\tx'00ff10'\tred\n" +
			"2\tbeta\t-2.25\tNULL\tred\n" +
			"3\tgamma\t9.5\tx''\tamber\n" +
			"42\tdelta\t1e+300\tx'deadbeef'\tgreen\n" +
			"NULL\tzeta\tNULL\tNULL\tNULL\n" +
			"7\tNULL\t7.75\tx'07'\tblue\n" +
			"-9000000000\talpha\t-0.5\tNULL\tblue\n" +
			"10\tit's\t10.5\tNULL\tred\n" +
			"11\t\t11\tx'0b'\t\n" +
			"12\talpha\t12\tNULL\tred\n"},
		{`SELECT * FROM runs`, "1\tfun3d\t8\n2\trt\t12\n3\tfun3d\t16\n"},
		{`SELECT * FROM empty_t`, ""},
		{`SELECT id FROM obs WHERE name = 'alpha' ORDER BY name`, "1\n-9000000000\n12\n"},
		{`EXPLAIN SELECT * FROM obs WHERE id = 12 AND name = 'alpha'`,
			"equality probe on index obs_id_name (id, name): 2 equality conjunct(s) cover all 2 index column(s)\n" +
				"estimate: scan 1 of 10 row(s)\n"},
		{`EXPLAIN SELECT * FROM obs WHERE name = 'alpha'`,
			"equality probe on index obs_name (name): 1 equality conjunct(s) cover all 1 index column(s)\n" +
				"estimate: scan 3 of 10 row(s)\n"},
		{`EXPLAIN SELECT * FROM runs WHERE runid >= 2 ORDER BY runid`,
			"range scan on index runs_runid (runid): 2 <= runid\n" +
				"estimate: scan 2 of 3 row(s)\n" +
				"order by runid served from index runs_runid (no sort)\n"},
		{`EXPLAIN SELECT * FROM obs WHERE score > 1`,
			"full table scan: range conjuncts bind no indexed column\n" +
				"estimate: scan 10 of 10 row(s)\n"},
	}
	v1, v2 := golden(t, "golden_v1.mdb"), golden(t, "golden_v2.mdb")
	if string(v1[:4]) != magicV1 || string(v2[:4]) != magicV2 {
		t.Fatalf("goldens start %q and %q", v1[:4], v2[:4])
	}
	for _, image := range [][]byte{v1, v2} {
		db := loaded(t, image)
		for _, w := range want {
			if got := rowsString(mustQuery(t, db, w.sql)); got != w.rows {
				t.Errorf("%s from %s:\n%swant:\n%s", image[:4], w.sql, got, w.rows)
			}
		}
		if got := saved(t, db); !bytes.Equal(got, v2) {
			t.Errorf("%s loaded saves %d bytes that differ from golden_v2.mdb (%d)", image[:4], len(got), len(v2))
		}
		// The loaded rows take ids 0..n-1; the next insert continues.
		mustExec(t, db, `INSERT INTO runs VALUES (4, 'rt', 2)`)
		if got := rowsString(mustQuery(t, db, `SELECT runid FROM runs`)); got != "1\n2\n3\n4\n" {
			t.Errorf("insert after load: %q", got)
		}
	}
}

// v1Image hand-writes an MDB1 snapshot of one table t(cols...) whose
// cells are given pre-encoded.
func v1Image(colKinds []Kind, rowCount uint32, cells ...[]byte) []byte {
	u32 := func(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
	b := u32([]byte(magicV1), 1)
	b = append(u32(b, 1), 't')
	b = u32(b, uint32(len(colKinds)))
	for i, k := range colKinds {
		b = append(append(u32(b, 1), byte('a'+i)), byte(k))
	}
	b = u32(u32(b, 0), rowCount)
	for _, c := range cells {
		b = append(b, c...)
	}
	return b
}

func v1Int(v int64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{byte(KindInt)}, uint64(v))
}

func v1Text(n uint32, s string) []byte {
	return append(binary.LittleEndian.AppendUint32([]byte{byte(KindText)}, n), s...)
}

// TestLoadHostileInput feeds Load counts and lengths the input has no
// bytes for, and every truncation of both goldens. Each must come back
// as ErrCorruptSnapshot after allocating little more than the input
// itself — the MDB1 reader of PR 17 built a three-million-row table
// from the first of these 25-byte inputs and asked for 137 GB on the
// second.
func TestLoadHostileInput(t *testing.T) {
	blob := func(n uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{byte(KindBlob)}, n)
	}
	inputs := map[string][]byte{
		"3M rows of no columns":   v1Image(nil, 3_000_000),
		"4G rows of no columns":   v1Image(nil, 0xFFFFFFFF),
		"4G rows of one column":   v1Image([]Kind{KindInt}, 0xFFFFFFFF, v1Int(1)),
		"1 GiB string":            v1Image([]Kind{KindText}, 1, v1Text(1<<30, "abc")),
		"4 GiB blob":              v1Image([]Kind{KindBlob}, 1, blob(0xFFFFFFFF)),
		"4G tables":               binary.LittleEndian.AppendUint32([]byte(magicV1), 0xFFFFFFFF),
		"4G columns":              append(binary.LittleEndian.AppendUint32([]byte(magicV1), 1), 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF),
		"trailing byte":           append(v1Image([]Kind{KindInt}, 1, v1Int(1)), 0),
		"value kind 9":            v1Image([]Kind{KindInt}, 1, []byte{9}),
		"column kind 0":           v1Image([]Kind{KindNull}, 0),
		"v2: 2^60 tables":         binary.AppendUvarint([]byte(magicV2), 1<<60),
		"v2: unterminated varint": append([]byte(magicV2), 0x80, 0x80),
	}
	for _, name := range []string{"golden_v1.mdb", "golden_v2.mdb"} {
		image := golden(t, name)
		for n := range image {
			inputs[fmt.Sprintf("%s cut at %d", name, n)] = image[:n]
		}
	}
	// MDB2 vectors that lie: a table t(a INTEGER, b TEXT) of four rows.
	v2 := func(vectors ...byte) []byte {
		b := append([]byte(magicV2), 1, 1, 't', 2, 1, 'a', byte(KindInt), 1, 'b', byte(KindText), 0, 4)
		return append(b, vectors...)
	}
	ints := []byte{0, 2, 2, 2, 2} // no NULLs, 1 2 3 4
	inputs["v2: NULL past the last row"] = v2(1, 4, 2, 2, 2)
	inputs["v2: more NULLs than rows"] = v2(5, 0, 0, 0, 0, 0)
	inputs["v2: dictionary position out of range"] = v2(append(ints, 0, 1, 0, 0, 1, 'x', 0, 0, 0, 1)...)
	inputs["v2: shared prefix longer than the previous string"] = v2(append(ints, 0, 0, 0, 0, 1, 'x', 2, 0, 0, 0, 0, 0, 0, 0, 0)...)
	inputs["v2: shared suffix overlapping the shared prefix"] = v2(append(ints, 0, 0, 0, 0, 1, 'x', 1, 1, 0, 0, 0, 0, 0, 0, 0)...)
	inputs["v2: front-coded strings the input cannot hold"] = v2(append(ints, 0, 0, 0, 0, 1, 'x')...)

	for name, in := range inputs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := New().Load(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: Load = %v, want ErrCorruptSnapshot", name, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(in)); got > limit {
			t.Errorf("%s: Load allocated %d bytes to refuse %d", name, got, len(in))
		}
	}
	// What the vectors above should have said does load.
	db := loaded(t, v2(append(ints, 0, 2, 0, 0, 2, 'x', 'z', 1, 1, 1, 'y', 0, 1, 1, 0)...))
	if got := rowsString(mustQuery(t, db, `SELECT * FROM t`)); got != "1\txz\n2\txyz\n3\txyz\n4\txz\n" {
		t.Errorf("well-formed vectors loaded as %q", got)
	}
}

// TestLoadV1CoercesOffKindCells pins what Load does with an MDB1 cell
// whose kind is not its column's — which no INSERT or UPDATE ever
// stored, but the format could say: it is coerced as an INSERT would
// coerce it, and refused where an INSERT would refuse.
func TestLoadV1CoercesOffKindCells(t *testing.T) {
	db := loaded(t, v1Image([]Kind{KindReal, KindBlob}, 1, v1Int(3), v1Text(2, "hi")))
	row, err := db.QueryRow(`SELECT a, b FROM t`)
	if err != nil || row[0].Kind() != KindReal || row[0].real() != 3 || row[1].Kind() != KindBlob || string(row[1].AsBlob()) != "hi" {
		t.Fatalf("coerced row = %v, %v", row, err)
	}
	err = New().Load(bytes.NewReader(v1Image([]Kind{KindInt}, 1, v1Text(2, "hi"))))
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("TEXT cell in an INTEGER column: Load = %v, want ErrCorruptSnapshot", err)
	}
}

// execTableDB holds runs x 16 datasets x steps execution-table rows
// with the lifecycle benchmark's shape (its preRow) under the catalog's
// schema and both of its indexes.
func execTableDB(t testing.TB, runs, steps int) *DB {
	t.Helper()
	db := New()
	for _, sql := range []string{
		`CREATE TABLE execution_table (runid INTEGER, dataset TEXT, timestep INTEGER, file_offset INTEGER, file_name TEXT)`,
		`CREATE INDEX execution_dataset ON execution_table (dataset)`,
		`CREATE INDEX execution_run_ds_ts ON execution_table (runid, dataset, timestep)`,
	} {
		mustExec(t, db, sql)
	}
	sql := `INSERT INTO execution_table VALUES (?, ?, ?, ?, ?)`
	for range steps - 1 {
		sql += `, (?, ?, ?, ?, ?)`
	}
	for run := 1; run <= runs; run++ {
		for ds := 0; ds < 16; ds++ {
			args := make([]any, 0, 5*steps)
			for ts := 0; ts < steps; ts++ {
				h := (uint64(run)*1_000_003+uint64(ds))*1_000_033 + uint64(ts) + 7919
				h ^= h >> 29
				h *= 0xBF58476D1CE4E5B9
				h ^= h >> 32
				name := fmt.Sprintf("pre%02d", ds)
				args = append(args, run, name, ts, int64(h%(1<<28))*8, fmt.Sprintf("pre_r%d_%s_t%d.dat", run, name, ts))
			}
			mustExec(t, db, sql, args...)
		}
	}
	return db
}

// TestSnapshotBytesPerRow budgets the snapshot: the 51,200-row
// execution table of the benchmark's meta-heavy workload, 62.7 bytes a
// row in MDB1, must stay within 18.
func TestSnapshotBytesPerRow(t *testing.T) {
	const rows = 8 * 16 * 400
	db := execTableDB(t, 8, 400)
	image := saved(t, db)
	perRow := float64(len(image)) / rows
	t.Logf("%d rows in %d bytes: %.2f B/row", rows, len(image), perRow)
	if perRow > 18 {
		t.Errorf("snapshot spends %.2f bytes per execution-table row, budget 18", perRow)
	}
	// And they are the same rows: file_name has too many distinct values
	// for a dictionary, so this is the round trip of front-coded text.
	back := loaded(t, image)
	const all = `SELECT * FROM execution_table`
	if rowsString(mustQuery(t, back, all)) != rowsString(mustQuery(t, db, all)) {
		t.Error("the loaded execution table differs from the saved one")
	}
	if !bytes.Equal(saved(t, back), image) {
		t.Error("the loaded execution table saves to different bytes")
	}
}

// TestLoadAllocsPerRow budgets Load in objects: column vectors decode
// into one slab per table and one string per text column, and the
// trees are built in bulk, so the count must not follow the rows (the
// MDB1 reader allocated about 30 per row; the budget is 6).
func TestLoadAllocsPerRow(t *testing.T) {
	const rows = 8 * 16 * 400
	image := saved(t, execTableDB(t, 8, 400))
	allocs := testing.AllocsPerRun(3, func() {
		if err := New().Load(bytes.NewReader(image)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Load of %d rows with both indexes: %.0f objects, %.4f per row", rows, allocs, allocs/rows)
	if allocs > 6*rows {
		t.Errorf("Load allocates %.2f objects per row, budget 6", allocs/rows)
	}
}

// FuzzLoad: whatever the bytes, Load returns — without panicking and
// without allocating more than a fixed multiple of the input — either
// ErrCorruptSnapshot or a database that saves, reloads and saves again
// to the same bytes.
func FuzzLoad(f *testing.F) {
	v1, v2 := golden(f, "golden_v1.mdb"), golden(f, "golden_v2.mdb")
	for _, seed := range [][]byte{
		v1, v2, saved(f, New()), v1[:len(v1)/2], v2[:len(v2)/2], v2[:len(v2)-1],
		v1Image([]Kind{KindReal, KindBlob}, 1, v1Int(3), v1Text(2, "hi")),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db := New()
		err := db.Load(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*len(in)); got > limit {
			t.Fatalf("Load allocated %d bytes for %d of input", got, len(in))
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("Load = %v, want ErrCorruptSnapshot", err)
			}
			return
		}
		image := saved(t, db)
		if again := saved(t, loaded(t, image)); !bytes.Equal(image, again) {
			t.Fatalf("the loaded database saved %d bytes, reloaded and saved %d different ones", len(image), len(again))
		}
	})
}
