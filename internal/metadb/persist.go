package metadb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// Snapshot format "MDB2" (numbers are uvarints unless noted, strings a
// length and the bytes):
//
//	magic "MDB2" | tableCount
//	per table, by name: name | colCount | cols (name, u8 kind)
//	                    indexCount | indexes by key (name, key)
//	                    rowCount | one vector per column
//	vector: nullCount | the NULL rows' positions, ascending, each as the
//	        gap from the one before | the other rows' values, by kind:
//	  INTEGER  zig-zag varint delta from the previous value
//	  REAL     8 bytes little-endian
//	  BLOB     length, bytes
//	  TEXT     dictCount | that many distinct values, front-coded, then
//	           one dictionary position per row; or 0 and every row's
//	           value, front-coded
//	front-coded: leading bytes shared with the previous string | trailing
//	             bytes shared with it (each at most maxShared) | length of
//	             what lies between, and it
//
// A typed column carries no per-cell kind: INSERT coerces every cell to
// its column's kind, so NULL is the only exception.
// Rows serialize in insertion order and indexes by sorted key; row ids
// are not stored, Load numbers the rows from 0.
//
// Load also reads "MDB1", the row-major format of earlier releases
// (u32 counts and lengths, every cell a kind byte and a fixed-width
// payload), coercing each cell to its column's kind.
const (
	magicV1 = "MDB1"
	magicV2 = "MDB2"

	// maxDict is the most distinct values a TEXT column may have and
	// still be dictionary-coded.
	maxDict = 255
	// maxShared caps the bytes a front-coded string takes from either
	// end of its predecessor, which caps what a snapshot can make Load
	// allocate at a fixed multiple of its own size.
	maxShared = 255
)

// ErrCorruptSnapshot is wrapped by every error Load returns for input
// that is not a complete, well-formed snapshot.
var ErrCorruptSnapshot = errors.New("metadb: corrupt snapshot")

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendFrontCoded appends s as what it shares with prev — a prefix
// and, of the rest, a suffix: names in a catalog differ in a counter
// before a common extension — and what it does not.
func appendFrontCoded(b []byte, prev, s string) []byte {
	room := min(len(s), len(prev), maxShared)
	head := 0
	for head < room && s[head] == prev[head] {
		head++
	}
	room = min(room, len(s)-head, len(prev)-head)
	tail := 0
	for tail < room && s[len(s)-1-tail] == prev[len(prev)-1-tail] {
		tail++
	}
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(head)), uint64(tail))
	return appendString(b, s[head:len(s)-tail])
}

// appendColumn appends column ci of rows as one vector.
func appendColumn(b []byte, col columnDef, rows [][]Value, ci int) ([]byte, error) {
	nulls := 0
	for _, r := range rows {
		switch r[ci].kind {
		case KindNull:
			nulls++
		case col.kind:
		default:
			return nil, fmt.Errorf("metadb: cannot serialize %s value in %s column %q", r[ci].kind, col.kind, col.name)
		}
	}
	b = binary.AppendUvarint(b, uint64(nulls))
	after := 0
	for i, r := range rows {
		if r[ci].kind == KindNull {
			b = binary.AppendUvarint(b, uint64(i-after))
			after = i + 1
		}
	}
	var dict map[string]int
	if col.kind == KindText {
		// Dictionary positions are handed out in order of appearance;
		// the dictionary is dropped once it outgrows maxDict.
		dict = make(map[string]int)
		var entries []byte
		prev := ""
		for _, r := range rows {
			if _, seen := dict[r[ci].s]; r[ci].kind == KindNull || seen {
				continue
			}
			if len(dict) == maxDict {
				dict = nil
				break
			}
			dict[r[ci].s] = len(dict)
			entries = appendFrontCoded(entries, prev, r[ci].s)
			prev = r[ci].s
		}
		if dict == nil {
			entries = nil
		}
		b = append(binary.AppendUvarint(b, uint64(len(dict))), entries...)
	}
	var prevInt int64
	prevText := ""
	for _, r := range rows {
		switch v := r[ci]; {
		case v.kind == KindNull:
		case col.kind == KindInt:
			b = binary.AppendVarint(b, v.int()-prevInt)
			prevInt = v.int()
		case col.kind == KindReal:
			b = binary.LittleEndian.AppendUint64(b, v.n)
		case col.kind == KindBlob:
			b = append(binary.AppendUvarint(b, uint64(len(v.s))), v.s...)
		case len(dict) > 0:
			b = binary.AppendUvarint(b, uint64(dict[v.s]))
		default:
			b = appendFrontCoded(b, prevText, v.s)
			prevText = v.s
		}
	}
	return b, nil
}

// Save writes a full snapshot of the database. It serializes from an
// MVCC snapshot, so it takes no locks and concurrent queries and
// writers proceed unstalled; the bytes reflect one consistent version.
func (db *DB) Save(w io.Writer) error {
	st := db.read()
	names := make([]string, 0, len(st.tables))
	for n := range st.tables {
		names = append(names, n)
	}
	slices.Sort(names)
	b := binary.AppendUvarint([]byte(magicV2), uint64(len(names)))
	var rows [][]Value
	for _, name := range names {
		t := st.tables[name]
		b = appendString(b, t.name)
		b = binary.AppendUvarint(b, uint64(len(t.cols)))
		for _, c := range t.cols {
			b = append(appendString(b, c.name), byte(c.kind))
		}
		b = binary.AppendUvarint(b, uint64(len(t.defs)))
		for _, d := range t.defs {
			b = appendString(appendString(b, d.name), d.key)
		}
		rows = rows[:0]
		for r := range t.rows.all() {
			rows = append(rows, r.vals)
		}
		b = binary.AppendUvarint(b, uint64(len(rows)))
		for ci, c := range t.cols {
			var err error
			if b, err = appendColumn(b, c, rows, ci); err != nil {
				return err
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// reader is a bounds-checked cursor over a whole snapshot. The first
// read the input cannot satisfy records an ErrCorruptSnapshot and
// empties the input, so every later read fails fast and callers check
// err once per loop rather than once per field.
type reader struct {
	b   []byte
	v1  bool // MDB1: counts and lengths are u32, not uvarints
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptSnapshot}, args...)...)
	}
	r.b = nil
}

func (r *reader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail("%d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *reader) byte() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *reader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1) // zig-zag, as binary.AppendVarint wrote it
}

// num reads a count or length in the format's encoding.
func (r *reader) num() uint64 {
	if !r.v1 {
		return r.uvarint()
	}
	if p := r.take(4); p != nil {
		return uint64(binary.LittleEndian.Uint32(p))
	}
	return 0
}

// count reads how many items follow, each at least size bytes long, and
// refuses a number the rest of the input could not hold.
func (r *reader) count(what string, size int) int {
	n := r.num()
	if n > uint64(len(r.b)/size) {
		r.fail("%d %s in %d bytes", n, what, len(r.b))
		return 0
	}
	return int(n)
}

func (r *reader) bytes() []byte { return r.take(r.num()) }
func (r *reader) str() string   { return string(r.bytes()) }

// frontCoded reads n front-coded strings as substrings of one backing
// string.
func (r *reader) frontCoded(n int) []string {
	ends := make([]int, n)
	var text []byte
	start := 0 // of the previous string
	for i := range ends {
		head, tail, mid := r.uvarint(), r.uvarint(), r.bytes()
		if head > maxShared || tail > maxShared || head+tail > uint64(len(text)-start) {
			r.fail("string shares %d+%d bytes with one of %d", head, tail, len(text)-start)
		}
		if r.err != nil {
			return nil
		}
		prev := text[start:]
		start = len(text)
		text = append(append(append(text, prev[:head]...), mid...), prev[len(prev)-int(tail):]...)
		ends[i] = len(text)
	}
	backing, out, start := string(text), make([]string, n), 0
	for i, end := range ends {
		out[i], start = backing[start:end], end
	}
	return out
}

// column reads one MDB2 vector into column ci of a row-major slab;
// isNull is scratch, one flag per row.
func (r *reader) column(kind Kind, slab []Value, ci, ncols int, isNull []bool) {
	clear(isNull)
	nrows := len(isNull)
	nulls, at := r.count("NULLs", 1), 0
	for range nulls {
		if at += int(min(r.uvarint(), uint64(nrows))); at >= nrows {
			r.fail("NULL at row %d of %d", at, nrows)
			return
		}
		isNull[at] = true
		at++
	}
	var dict, texts []string
	if kind == KindText {
		if n := r.count("dictionary entries", 3); n > 0 {
			dict = r.frontCoded(n)
		} else if nrows-nulls > len(r.b)/3 {
			r.fail("%d strings in %d bytes", nrows-nulls, len(r.b))
		} else {
			texts = r.frontCoded(nrows - nulls)
		}
	}
	var prev int64
	for row := 0; row < nrows && r.err == nil; row++ {
		if isNull[row] {
			continue
		}
		v := &slab[row*ncols+ci]
		switch {
		case kind == KindInt:
			prev += r.varint()
			*v = Int(prev)
		case kind == KindReal:
			*v = Real(math.Float64frombits(r.u64()))
		case kind == KindBlob:
			*v = Blob(r.bytes())
		case dict != nil:
			if i := r.uvarint(); i < uint64(len(dict)) {
				*v = Text(dict[i])
			} else {
				r.fail("dictionary position %d of %d", i, len(dict))
			}
		default:
			*v, texts = Text(texts[0]), texts[1:]
		}
	}
}

// cellV1 reads one MDB1 cell for a column of the given kind.
func (r *reader) cellV1(kind Kind) Value {
	var v Value
	switch k := Kind(r.byte()); k {
	case KindNull:
	case KindInt:
		v = Int(int64(r.u64()))
	case KindReal:
		v = Real(math.Float64frombits(r.u64()))
	case KindText:
		v = Text(r.str())
	case KindBlob:
		v = Blob(r.bytes())
	default:
		r.fail("value kind %d", k)
	}
	v, err := coerce(v, kind)
	if err != nil {
		r.fail("%v", err)
	}
	return v
}

// table reads one table of either format.
func (r *reader) table() *tableData {
	name := r.str()
	cols := make([]columnDef, r.count("columns", 2))
	colIdx := make(map[string]int, len(cols))
	for i := range cols {
		cols[i] = columnDef{r.str(), Kind(r.byte())}
		if _, dup := colIdx[cols[i].name]; dup || cols[i].kind < KindInt || cols[i].kind > KindBlob {
			r.fail("column %q of kind %d", cols[i].name, cols[i].kind)
		}
		colIdx[cols[i].name] = i
	}
	if len(cols) == 0 {
		r.fail("table %q has no columns", name)
		return nil
	}
	defs := make([]indexDef, min(r.count("indexes", 2), maxIndexes+1))
	for i := range defs {
		iname, icols := r.str(), strings.Split(r.str(), ",")
		colPos := make([]int, len(icols))
		for k, c := range icols {
			pos, ok := colIdx[c]
			if !ok {
				r.fail("index on unknown column %q", c)
			}
			colPos[k] = pos
		}
		defs[i] = newIndexDef(iname, icols, colPos)
	}
	slices.SortFunc(defs, byKey)
	for i := range defs {
		if i == maxIndexes || (i > 0 && defs[i].key == defs[i-1].key) {
			r.fail("table %q has over %d indexes, or index %q twice", name, maxIndexes, defs[i].key)
		}
	}
	// Every cell takes at least a byte in either format.
	nrows := r.count("rows", len(cols))
	if r.err != nil {
		return nil
	}
	slab := make([]Value, nrows*len(cols))
	if r.v1 {
		for i := 0; i < len(slab) && r.err == nil; i++ {
			slab[i] = r.cellV1(cols[i%len(cols)].kind)
		}
	} else {
		isNull := make([]bool, nrows)
		for ci, c := range cols {
			r.column(c.kind, slab, ci, len(cols), isNull)
		}
	}
	if r.err != nil {
		return nil
	}
	rows := make([]rowEntry, nrows)
	for i := range rows {
		rows[i] = rowEntry{int64(i), slab[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]}
	}
	return buildTable(name, cols, colIdx, defs, rows)
}

// Load replaces the database contents with a snapshot previously
// written by Save. The input is read whole and every count and length
// in it checked against the bytes that remain before anything is
// allocated for it, so a truncated or hostile snapshot is an
// ErrCorruptSnapshot, never a short table. The new state is built
// beside the old one and published atomically, as any writer's.
func (db *DB) Load(src io.Reader) error {
	b, err := io.ReadAll(src)
	if err != nil {
		return fmt.Errorf("metadb: reading snapshot: %w", err)
	}
	if len(b) < len(magicV2) || (string(b[:4]) != magicV1 && string(b[:4]) != magicV2) {
		return fmt.Errorf("%w: not a metadb snapshot (magic %q)", ErrCorruptSnapshot, b[:min(len(b), 4)])
	}
	r := &reader{b: b[4:], v1: string(b[:4]) == magicV1}
	tables := make(map[string]*tableData)
	for range r.count("tables", 3) {
		t := r.table()
		if r.err != nil {
			return r.err
		}
		if _, dup := tables[t.name]; dup {
			r.fail("table %q twice", t.name)
		}
		tables[t.name] = t
	}
	if len(r.b) > 0 {
		r.fail("%d bytes after the last table", len(r.b))
	}
	if r.err != nil {
		return r.err
	}
	cur := db.beginWrite()
	defer db.writeMu.Unlock()
	db.state.Store(&dbState{version: cur.version + 1, tables: tables})
	db.commits.Add(1)
	return nil
}
