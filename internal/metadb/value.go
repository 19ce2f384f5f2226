// Package metadb is an embedded relational database with a small SQL
// dialect, standing in for the MySQL instance the paper stores SDM's
// metadata in. The dialect is the SQL the program issues, and README's
// catalog section lists it: CREATE TABLE / CREATE INDEX (IF NOT
// EXISTS), DROP TABLE, multi-row INSERT, SELECT of columns, COUNT, MIN
// and MAX with WHERE comparisons joined by AND and an ascending ORDER
// BY, DELETE, EXPLAIN SELECT and `?` parameter placeholders. Ordered
// indexes serve equality, leading-prefix and range lookups and ORDER
// BY, and a database saves to and loads from a binary snapshot.
//
// The subset is what SDM's seven metadata tables need (run_table,
// access_pattern_table, execution_table, import_table, index_table,
// index_history_table, annotation_table — see internal/catalog), but
// the engine is general: any schema of INTEGER / REAL / TEXT / BLOB
// columns works.
package metadb

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates column/value types.
type Kind int

// Value kinds. KindNull is the type of the SQL NULL literal.
const (
	KindNull Kind = iota
	KindInt
	KindReal
	KindText
	KindBlob
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindReal:
		return "REAL"
	case KindText:
		return "TEXT"
	case KindBlob:
		return "BLOB"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is one cell. The zero Value is NULL. A row is a slice of these
// and a table holds them by the hundred thousand, so a Value has one
// word for a number and one string for bytes, 32 bytes in all.
type Value struct {
	kind Kind
	n    uint64 // INTEGER: the int64; REAL: the float64's bits
	s    string // TEXT: the text; BLOB: the bytes
}

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Real wraps a float64.
func Real(v float64) Value { return Value{kind: KindReal, n: math.Float64bits(v)} }

// Text wraps a string.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Blob wraps a copy of a byte slice.
func Blob(v []byte) Value { return Value{kind: KindBlob, s: string(v)} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer contents (real values truncate).
func (v Value) AsInt() int64 {
	if v.kind == KindReal {
		return int64(v.real())
	}
	return v.int()
}

// AsText returns the string contents.
func (v Value) AsText() string {
	if v.kind != KindText {
		return ""
	}
	return v.s
}

// AsBlob returns a copy of the raw bytes.
func (v Value) AsBlob() []byte {
	if v.kind != KindBlob {
		return nil
	}
	return []byte(v.s)
}

// int and real read n as the kind that wrote it; n is zero, and so are
// both, in a value that is not a number.
func (v *Value) int() int64    { return int64(v.n) }
func (v *Value) real() float64 { return math.Float64frombits(v.n) }

func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindReal:
		return strconv.FormatFloat(v.real(), 'g', -1, 64)
	case KindText:
		return v.s
	case KindBlob:
		return fmt.Sprintf("x'%x'", v.s)
	}
	return "?"
}

// compare is the one order over values: what =, <, ORDER BY, MIN and
// MAX decide by and what every index files its rows in. It is total.
// NULL sorts first, then numbers, text and blobs, mirroring SQLite's
// type ordering. Numbers compare by value whatever their kind, and
// exactly: NaN equals only NaN and sorts before every other number, -0
// equals +0, and an INTEGER beside a REAL is not rounded to it. Text
// and blobs compare lexicographically.
func compare(a, b Value) int { return a.compare(&b) }

// compare by reference, for the index descent: a Value is 32 bytes, and
// a bulk build or a probe compares keys by the million.
func (a *Value) compare(b *Value) int {
	switch {
	case a.kind == KindInt && b.kind == KindReal:
		return compareIntReal(a.int(), b.real())
	case a.kind == KindReal && b.kind == KindInt:
		return -compareIntReal(b.int(), a.real())
	case a.kind != b.kind:
		return cmp.Compare(a.kind, b.kind)
	}
	switch a.kind {
	case KindInt:
		return cmp.Compare(a.int(), b.int())
	case KindReal:
		return cmp.Compare(a.real(), b.real())
	case KindText, KindBlob:
		return strings.Compare(a.s, b.s)
	}
	return 0
}

// compareIntReal orders an INTEGER against a REAL without converting
// the integer: above 2^53 neighbouring integers round to one float64,
// and an order calling both equal to it, though not to each other,
// would not be transitive.
func compareIntReal(i int64, f float64) int {
	switch {
	case f != f || f < -(1<<63):
		return 1
	case f >= 1<<63:
		return -1
	}
	whole := int64(f) // exact: f lies within int64, and conversion truncates
	if c := cmp.Compare(i, whole); c != 0 {
		return c
	}
	return cmp.Compare(float64(whole), f) // the fraction truncation dropped
}

// coerce converts v for storage into a column of kind k.
func coerce(v Value, k Kind) (Value, error) {
	if v.kind == KindNull || v.kind == k {
		return v, nil
	}
	switch {
	case k == KindReal && v.kind == KindInt:
		return Real(float64(v.int())), nil
	case k == KindInt && v.kind == KindReal:
		if r := v.real(); r == float64(int64(r)) {
			return Int(int64(r)), nil
		}
	case k == KindBlob && v.kind == KindText:
		return Value{kind: KindBlob, s: v.s}, nil
	}
	return Value{}, fmt.Errorf("metadb: cannot store %s value into %s column", v.kind, k)
}

// GoValue converts common Go types into Values, for the Exec/Query
// parameter interface.
func GoValue(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Value{}, nil
	case Value:
		return x, nil
	case int:
		return Int(int64(x)), nil
	case int32:
		return Int(int64(x)), nil
	case int64:
		return Int(x), nil
	case uint32:
		return Int(int64(x)), nil
	case float64:
		return Real(x), nil
	case string:
		return Text(x), nil
	case []byte:
		return Blob(x), nil
	case bool:
		if x {
			return Int(1), nil
		}
		return Int(0), nil
	}
	return Value{}, fmt.Errorf("metadb: unsupported parameter type %T", v)
}
