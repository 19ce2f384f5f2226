// Package metadb is an embedded relational database with a small SQL
// dialect, standing in for the MySQL instance the paper stores SDM's
// metadata in. It supports CREATE TABLE / CREATE INDEX / INSERT /
// SELECT / UPDATE / DELETE with WHERE filters, ORDER BY, LIMIT and `?`
// parameter placeholders, hash indexes used automatically for equality
// lookups, and binary snapshot persistence.
//
// The subset is exactly what SDM's six metadata tables need (run_table,
// access_pattern_table, execution_table, import_table, index_table,
// index_history_table — see internal/catalog), but the engine is
// general: any schema of INTEGER / REAL / TEXT / BLOB columns works.
package metadb

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"strconv"
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

// Value is one cell. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	r    float64
	s    string
	b    []byte
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Real wraps a float64.
func Real(v float64) Value { return Value{kind: KindReal, r: v} }

// Text wraps a string.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Blob wraps a byte slice (not copied).
func Blob(v []byte) Value { return Value{kind: KindBlob, b: v} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer contents (real values truncate).
func (v Value) AsInt() int64 {
	if v.kind == KindReal {
		return int64(v.r)
	}
	return v.i
}

// AsReal returns the floating contents (integers widen).
func (v Value) AsReal() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.r
}

// AsText returns the string contents.
func (v Value) AsText() string { return v.s }

// AsBlob returns the raw bytes.
func (v Value) AsBlob() []byte { return v.b }

func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindReal:
		return strconv.FormatFloat(v.r, 'g', -1, 64)
	case KindText:
		return v.s
	case KindBlob:
		return fmt.Sprintf("x'%x'", v.b)
	}
	return "?"
}

// numeric reports whether v participates in arithmetic.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindReal }

// compare orders two values. NULL sorts before everything; numbers
// compare numerically across int/real; text and blobs compare
// lexicographically. Cross-type comparisons order by kind, mirroring
// SQLite's type ordering, so sorting is always total. Two INTEGERs
// compare as int64, exactly; an INTEGER beside a REAL compares as
// float64, so there — and only there — integers above 2^53 that round
// to one float are equal.
func compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind == KindInt && b.kind == KindInt {
		return cmp.Compare(a.i, b.i)
	}
	if a.numeric() && b.numeric() {
		av, bv := a.AsReal(), b.AsReal()
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindText:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	case KindBlob:
		return bytes.Compare(a.b, b.b)
	}
	return 0
}

// hashSeed starts every tuple hash; the multiplier is FNV-1a's.
const (
	hashSeed  = 14695981039346656037
	hashPrime = 1099511628211
)

func hashWord(h, x uint64) uint64 {
	h = (h ^ x) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

func hashBytes[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * hashPrime
	}
	return hashWord(h, uint64(len(b))) // the length keeps ("ab","c") off ("a","bc")
}

// hash folds v into the running tuple hash h. Values that sameKey
// equates hash alike: numbers by their real representation, so Int(3)
// and Real(3.0) collide, matching compare. So do INTEGERs above 2^53
// that round to one float, which compare then tells apart like any
// other collision.
func (v Value) hash(h uint64) uint64 {
	switch v.kind {
	case KindInt, KindReal:
		return hashWord(h^1, keyBits(v.AsReal()))
	case KindText:
		return hashBytes(h^2, v.s)
	case KindBlob:
		return hashBytes(h^3, v.b)
	}
	return hashWord(h, 0)
}

// keyBits is the bit pattern a number is indexed under: -0 as +0 and
// every NaN as one.
func keyBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// hashTuple hashes the index key of a row: the values at the given
// positions, or every value in order when pos is nil (a probe tuple).
// A variable so the collision test can force distinct tuples onto one
// hash.
var hashTuple = func(vals []Value, pos []int) uint64 {
	h := uint64(hashSeed)
	if pos == nil {
		for _, v := range vals {
			h = v.hash(h)
		}
		return h
	}
	for _, p := range pos {
		h = vals[p].hash(h)
	}
	return h
}

// sameKey reports whether two values are one index key — equal as the
// WHERE clause's = has it, except that NULL is a key too: the relation
// an index resolves colliding hashes with.
func sameKey(a, b Value) bool { return a.IsNull() == b.IsNull() && compare(a, b) == 0 }

// coerce converts v for storage into a column of kind k.
func coerce(v Value, k Kind) (Value, error) {
	if v.kind == KindNull || v.kind == k {
		return v, nil
	}
	switch {
	case k == KindReal && v.kind == KindInt:
		return Real(float64(v.i)), nil
	case k == KindInt && v.kind == KindReal:
		if v.r == float64(int64(v.r)) {
			return Int(int64(v.r)), nil
		}
	case k == KindBlob && v.kind == KindText:
		return Blob([]byte(v.s)), nil
	}
	return Value{}, fmt.Errorf("metadb: cannot store %s value into %s column", v.kind, k)
}

// GoValue converts common Go types into Values, for the Exec/Query
// parameter interface.
func GoValue(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null(), nil
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
