package core

import (
	"bytes"
	"testing"
)

// importBlocks stages size patterned bytes as ext.dat on a fresh
// two-rank machine and has each rank import sp as its contiguous
// equal-division block. It returns each rank's MakeImportlist error, the
// block of each rank where that succeeded, and the file's bytes. A panic
// on any rank, or a rank left in a collective the other skipped, fails
// the test.
func importBlocks(t *testing.T, size int, sp ImportSpec) (errs [2]error, blocks [2][]byte, data []byte) {
	t.Helper()
	te := newTestEnv(2)
	data = make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	if err := te.fs.WriteFile("ext.dat", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	te.run(t, Options{}, func(s *SDM) {
		r := s.Comm().Rank()
		imp, err := s.MakeImportlist("ext.dat", []ImportSpec{sp})
		if errs[r] = err; err != nil {
			return
		}
		h, err := imp.QueueContiguous(sp.Name)
		if err == nil {
			err = imp.Flush()
		}
		if err != nil {
			panic(err)
		}
		blocks[r] = h.Bytes()
	})
	return errs, blocks, data
}

// checkImportSpec asserts the import property for one spec over a
// size-byte file: MakeImportlist refuses it on every rank, or every
// rank's block equals the file's bytes. It reports whether the spec was
// refused.
func checkImportSpec(t *testing.T, size int, sp ImportSpec) (refused bool) {
	t.Helper()
	errs, blocks, data := importBlocks(t, size, sp)
	if (errs[0] == nil) != (errs[1] == nil) {
		t.Fatalf("%+v over %d bytes refused on one rank only: %v / %v", sp, size, errs[0], errs[1])
	}
	if errs[0] != nil {
		return true
	}
	es := sp.Type.Size()
	for r, b := range blocks {
		start, count := blockRange(sp.Length, len(blocks), r)
		from := sp.FileOffset + start*es
		if from < 0 || from+count*es > int64(len(data)) {
			t.Fatalf("%+v over %d bytes: rank %d imported a block outside the file", sp, size, r)
		}
		if !bytes.Equal(b, data[from:from+count*es]) {
			t.Fatalf("%+v over %d bytes: rank %d's block is not the file's bytes", sp, size, r)
		}
	}
	return false
}

// An array that does not lie inside its file is refused on every rank
// before any collective. Unchecked, an array past the end imports zeros,
// a negative offset fails inside the collective on one rank and leaves
// the other in the reply all-to-all, and a length whose byte size
// overflows panics in Flush. An array that ends exactly at the end of
// the file imports the file's bytes.
func TestImportSpecOutsideFileRefused(t *testing.T) {
	const size = 800
	for _, sp := range []ImportSpec{
		{Name: "past-end", Type: Double, FileOffset: 400, Length: 100}, // ends at byte 1200
		{Name: "negative", Type: Double, FileOffset: -8, Length: 50},
		{Name: "overflow", Type: Double, Length: 1 << 61},
	} {
		if !checkImportSpec(t, size, sp) {
			t.Errorf("%s: %+v over a %d-byte file was imported", sp.Name, sp, size)
		}
	}
	if checkImportSpec(t, size, ImportSpec{Name: "exact", Type: Double, FileOffset: 400, Length: 50}) {
		t.Error("an array ending exactly at the end of the file was refused")
	}
}

// FuzzImportSpec: for any file of at most 4 KiB and any offset, length
// and element type, MakeImportlist refuses the array on every rank or
// every rank's contiguous block is the file's bytes — never a panic, and
// never a rank left in a collective the other skipped.
func FuzzImportSpec(f *testing.F) {
	f.Add(uint16(800), int64(400), int64(100), int8(Double))
	f.Add(uint16(800), int64(-8), int64(50), int8(Double))
	f.Add(uint16(800), int64(0), int64(1)<<61, int8(Double))
	f.Add(uint16(800), int64(400), int64(50), int8(Double))
	f.Add(uint16(0), int64(0), int64(1), int8(Integer))
	f.Add(uint16(4096), int64(4092), int64(1), int8(Integer))
	f.Fuzz(func(t *testing.T, size uint16, off, length int64, typ int8) {
		checkImportSpec(t, int(size)%4097, ImportSpec{Name: "a", Type: DataType(typ), FileOffset: off, Length: length})
	})
}
