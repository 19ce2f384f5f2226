package core

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Element enumerates the Go element types datasets store, matching the
// catalog's DOUBLE / INTEGER / LONG metadata values.
type Element interface {
	float64 | int32 | int64
}

// Dataset is a typed handle on one dataset of a group — the
// SDM_write/SDM_read surface redesigned around element types and
// deferred steps. Inside a Manager's BeginStep/EndStep step, Put and
// Get queue operations zero-copy against the caller's slices; PutAt and
// GetAt wrap a whole one-operation step for callers that don't batch.
type Dataset[T Element] struct {
	g    *Group
	name string
}

// elemDataType maps the Go element type to its catalog DataType.
func elemDataType[T Element]() DataType {
	var z T
	switch any(z).(type) {
	case int32:
		return Integer
	case int64:
		return Long
	default:
		return Double
	}
}

// DatasetOf builds a typed handle on a registered dataset. The element
// type must match the dataset's registered DataType (float64 for
// DOUBLE, int32 for INTEGER, int64 for LONG).
func DatasetOf[T Element](g *Group, name string) (*Dataset[T], error) {
	a, err := g.Attr(name)
	if err != nil {
		return nil, err
	}
	if want := elemDataType[T](); a.Type != want {
		return nil, fmt.Errorf("core: dataset %q stores %s elements, handle requests %s",
			name, a.Type, want)
	}
	return &Dataset[T]{g: g, name: name}, nil
}

// elems is the caller's slice a queued Put encodes from or a queued Get
// decodes into, held by its element type: t names the one field set.
type elems struct {
	t   DataType
	f64 []float64
	i32 []int32
	i64 []int64
}

// elemsOf holds vals by its element type.
func elemsOf[T Element](vals []T) elems {
	switch vs := any(vals).(type) {
	case []float64:
		return elems{t: Double, f64: vs}
	case []int32:
		return elems{t: Integer, i32: vs}
	default:
		return elems{t: Long, i64: any(vals).([]int64)}
	}
}

// encode is a Put's fused permute-and-serialize, run at flush time:
// file-order slot i of dst receives element v.perm[i] in the dataset's
// little-endian wire encoding — one pass instead of the old
// convert-then-permute pair.
func (e *elems) encode(v *View, dst []byte) {
	switch e.t {
	case Integer:
		vs := e.i32
		for i, p := range v.perm {
			binary.LittleEndian.PutUint32(dst[i*4:], uint32(vs[p]))
		}
	case Long:
		vs := e.i64
		for i, p := range v.perm {
			binary.LittleEndian.PutUint64(dst[i*8:], uint64(vs[p]))
		}
	default:
		vs := e.f64
		for i, p := range v.perm {
			binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(vs[p]))
		}
	}
}

// decode is the inverse, a Get's delivery: file-order slot i of src
// scatters to element v.perm[i].
func (e *elems) decode(v *View, src []byte) {
	switch e.t {
	case Integer:
		vs := e.i32
		for i, p := range v.perm {
			vs[p] = int32(binary.LittleEndian.Uint32(src[i*4:]))
		}
	case Long:
		vs := e.i64
		for i, p := range v.perm {
			vs[p] = int64(binary.LittleEndian.Uint64(src[i*8:]))
		}
	default:
		vs := e.f64
		for i, p := range v.perm {
			vs[p] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
		}
	}
}

// Put queues one timestep of the dataset into the open step: vals
// holds this rank's local elements in map-array order, written through
// the view installed now. The slice is captured zero-copy and must stay
// unmodified until EndStep, which performs the write. Returns an error
// outside an open step.
func (d *Dataset[T]) Put(vals []T) error {
	return d.g.enqueue(true, d.name, len(vals), elemsOf(vals))
}

// Get queues a read of the dataset at the step's timestep: out
// receives this rank's local elements in map-array order, read through
// the view installed now, when EndStep flushes. Returns an error
// outside an open step.
func (d *Dataset[T]) Get(out []T) error {
	return d.g.enqueue(false, d.name, len(out), elemsOf(out))
}

// PutAt writes one timestep as a one-operation step: SDM_write in one
// call.
func (d *Dataset[T]) PutAt(timestep int64, vals []T) error {
	return d.g.s.oneOpStep(timestep, func() error { return d.Put(vals) })
}

// GetAt reads one timestep as a one-operation step: SDM_read in one
// call.
func (d *Dataset[T]) GetAt(timestep int64, out []T) error {
	return d.g.s.oneOpStep(timestep, func() error { return d.Get(out) })
}
