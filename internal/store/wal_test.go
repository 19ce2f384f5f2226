package store

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// writeTestWAL appends one record of every type and returns the path.
func writeTestWAL(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(WALBegin, WALBeginRecord{Format: 1, Spec: Spec{Backend: "cas", Compress: true, ChunkSize: 512}}); err != nil {
		t.Fatal(err)
	}
	puts := []WALPutRecord{
		{Name: "a", Stage: ".wal~a", Size: 100},
		{Name: "dir/b", Stage: ".wal~dir/b", Size: 0},
	}
	for _, p := range puts {
		if err := w.Append(WALPut, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(WALCatalog, WALCatalogRecord{Stage: "catalog.db.wal"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(WALCommit, WALCommitRecord{Manifest: []byte(`{"format":1}`)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWALRoundTrip: records written come back typed, in order, sealed.
func TestWALRoundTrip(t *testing.T) {
	path := writeTestWAL(t)
	recs, sealed, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sealed {
		t.Fatal("log with commit record not sealed")
	}
	wantTypes := []byte{WALBegin, WALPut, WALPut, WALCatalog, WALCommit}
	if len(recs) != len(wantTypes) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantTypes))
	}
	for i, r := range recs {
		if r.Type != wantTypes[i] {
			t.Fatalf("record %d type %d, want %d", i, r.Type, wantTypes[i])
		}
	}
	var begin WALBeginRecord
	if err := recs[0].Decode(&begin); err != nil {
		t.Fatal(err)
	}
	if begin.Backend != "cas" || !begin.Compress || begin.ChunkSize != 512 {
		t.Fatalf("begin = %+v", begin)
	}
	var p WALPutRecord
	if err := recs[2].Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Name != "dir/b" || p.Stage != ".wal~dir/b" {
		t.Fatalf("put = %+v", p)
	}
	var c WALCommitRecord
	if err := recs[4].Decode(&c); err != nil {
		t.Fatal(err)
	}
	if string(c.Manifest) != `{"format":1}` {
		t.Fatalf("manifest = %s", c.Manifest)
	}
}

// TestWALMissing: a nonexistent log reads as empty and unsealed.
func TestWALMissing(t *testing.T) {
	recs, sealed, err := ReadWAL(filepath.Join(t.TempDir(), "nope.log"))
	if err != nil || recs != nil || sealed {
		t.Fatalf("missing log = (%v, %v, %v)", recs, sealed, err)
	}
}

// TestWALTornTailMatrix truncates a sealed log at EVERY byte offset
// and demands the parse never errors, never misparses — each prefix
// yields a whole-record prefix of the original, and is sealed only at
// full length (the commit record is the log's last).
func TestWALTornTailMatrix(t *testing.T) {
	path := writeTestWAL(t)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wholeRecs, sealed, err := ReadWAL(path)
	if err != nil || !sealed {
		t.Fatalf("full log = (%d recs, %v, %v)", len(wholeRecs), sealed, err)
	}
	cut := filepath.Join(t.TempDir(), "cut.log")
	for n := 0; n <= len(full); n++ {
		if err := os.WriteFile(cut, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, sealed, err := ReadWAL(cut)
		if err != nil {
			t.Fatalf("truncated at %d: parse error %v", n, err)
		}
		if sealed != (n == len(full)) {
			t.Fatalf("truncated at %d: sealed=%v", n, sealed)
		}
		if len(recs) > len(wholeRecs) {
			t.Fatalf("truncated at %d: %d records from a %d-record log", n, len(recs), len(wholeRecs))
		}
		for i, r := range recs {
			if r.Type != wholeRecs[i].Type || string(r.Payload) != string(wholeRecs[i].Payload) {
				t.Fatalf("truncated at %d: record %d diverges", n, i)
			}
		}
	}
}

// TestWALCorruptRecordStopsParse: flipping a byte inside a record
// makes the CRC fail and the parse stop trusting the log there —
// records before the flip survive, the flipped one and everything
// after are dropped, and the log reads unsealed when the commit is
// the casualty.
func TestWALCorruptRecordStopsParse(t *testing.T) {
	path := writeTestWAL(t)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the last record (the commit's payload region).
	mut := append([]byte(nil), full...)
	mut[len(mut)-6] ^= 0xff
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, sealed, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if sealed {
		t.Fatal("log with corrupt commit record still sealed")
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records before the corruption, want 4", len(recs))
	}
}

// FuzzReadWAL: whatever the bytes, ReadWAL returns the whole records of a
// prefix — never an error, a panic, or more memory than a fixed multiple
// of the input — and each record decodes into its type's payload or
// fails with ErrCorruptWAL. Seeds are the logs of the two interrupted
// saves under the root package's testdata, written by PR 21's parent.
func FuzzReadWAL(f *testing.F) {
	for _, name := range []string{"wal-sealed", "wal-unsealed"} {
		log, err := os.ReadFile(filepath.Join("../../testdata/format1", name, "wal.log"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(log)
		f.Add(log[:len(log)/2])
		f.Add(append(log[:len(log):len(log)], log...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, sealed, err := ReadWAL(path)
		var decodeErrs []error
		for _, r := range recs {
			var v any
			switch r.Type {
			case WALBegin:
				v = new(WALBeginRecord)
			case WALPut:
				v = new(WALPutRecord)
			case WALCatalog:
				v = new(WALCatalogRecord)
			case WALCommit:
				v = new(WALCommitRecord)
			default:
				continue // recovery skips a type it does not know
			}
			if err := r.Decode(v); err != nil {
				decodeErrs = append(decodeErrs, err)
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(in)); got > limit {
			t.Fatalf("reading a %d-byte log allocated %d bytes", len(in), got)
		}
		if err != nil {
			t.Fatalf("ReadWAL = %v on a readable file", err)
		}
		size, wasSealed := 0, false
		for _, r := range recs {
			size += 9 + len(r.Payload)
			wasSealed = wasSealed || r.Type == WALCommit
		}
		if size > len(in) || sealed != wasSealed {
			t.Fatalf("%d records of %d bytes from %d of input, sealed=%v", len(recs), size, len(in), sealed)
		}
		for _, err := range decodeErrs {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("Decode = %v, want ErrCorruptWAL", err)
			}
		}
	})
}
