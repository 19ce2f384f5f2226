package mpiio

import (
	"reflect"
	"testing"
	"testing/quick"
)

func segsOf(d *Datatype) []Segment { return d.segs }

func TestBytesType(t *testing.T) {
	d := Bytes(10)
	if d.size != 10 || d.extent != 10 {
		t.Fatalf("size=%d extent=%d", d.size, d.extent)
	}
	if got := segsOf(d); !reflect.DeepEqual(got, []Segment{{Off: 0, Len: 10}}) {
		t.Fatalf("segs = %v", got)
	}
	if z := Bytes(0); z.size != 0 || len(z.segs) != 0 {
		t.Fatal("Bytes(0) not empty")
	}
}

func TestIndexed(t *testing.T) {
	// The map-array pattern: single elements at global indexes.
	d := IndexedBlock(1, []int{7, 2, 5}, Bytes(8))
	want := []Segment{{Off: 16, Len: 8}, {Off: 40, Len: 8}, {Off: 56, Len: 8}}
	if got := segsOf(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("segs = %v, want %v", got, want)
	}
	if d.size != 24 || d.extent != 64 {
		t.Fatalf("size=%d extent=%d", d.size, d.extent)
	}
}

func TestIndexedAdjacentCoalesce(t *testing.T) {
	d := IndexedBlock(1, []int{3, 1, 2}, Bytes(8))
	want := []Segment{{Off: 8, Len: 24}} // indexes 1,2,3 are adjacent
	if got := segsOf(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("segs = %v, want %v", got, want)
	}
}

// TestIndexedVariableBlocks: blocks longer than one element.
func TestIndexedVariableBlocks(t *testing.T) {
	d := IndexedBlock(2, []int{0, 4}, Bytes(4))
	want := []Segment{{Off: 0, Len: 8}, {Off: 16, Len: 8}}
	if got := segsOf(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("segs = %v", got)
	}
	if d.size != 16 || d.extent != 24 {
		t.Fatalf("size=%d extent=%d", d.size, d.extent)
	}
}

func TestOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping segments did not panic")
		}
	}()
	IndexedBlock(2, []int{0, 1}, Bytes(4)) // block 0 covers elem 0-1, block 1 elem 1-2
}

func TestMapRangeContiguous(t *testing.T) {
	d := Bytes(100)
	got := d.mapRangeInto(nil, 1000, 30, 50)
	if !reflect.DeepEqual(got, []Segment{{Off: 1030, Len: 50}}) {
		t.Fatalf("segs = %v", got)
	}
}

func TestMapRangeTiling(t *testing.T) {
	// Type: 4 data bytes at offset 0 of an 8-byte extent. Logical bytes
	// 0..3 -> phys 0..3, logical 4..7 -> phys 8..11, etc.
	d := newDatatype([]Segment{{Off: 0, Len: 4}}, 8)
	got := d.mapRangeInto(nil, 0, 2, 8)
	want := []Segment{{Off: 2, Len: 2}, {Off: 8, Len: 4}, {Off: 16, Len: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("segs = %v, want %v", got, want)
	}
}

func TestMapRangeCrossTileCoalesce(t *testing.T) {
	// Data at the tail of the extent followed by data at the head of
	// the next tile is physically adjacent and must coalesce.
	d := newDatatype([]Segment{{Off: 4, Len: 4}}, 8)
	got := d.mapRangeInto(nil, 0, 0, 8)
	// tile0 data at [4,8), tile1 data at [12,16): not adjacent.
	want := []Segment{{Off: 4, Len: 4}, {Off: 12, Len: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("segs = %v, want %v", got, want)
	}

	full := newDatatype([]Segment{{Off: 0, Len: 8}}, 8)
	got = full.mapRangeInto(nil, 0, 0, 24)
	if !reflect.DeepEqual(got, []Segment{{Off: 0, Len: 24}}) {
		t.Fatalf("full tiling segs = %v", got)
	}
}

func TestMapRangeIrregularView(t *testing.T) {
	// Map array {5, 0, 3} of 8-byte elements: local elements land at
	// global slots 5, 0, 3. Note segments are sorted by offset, so the
	// local order is recovered via the sorted displacements 0,3,5.
	d := IndexedBlock(1, []int{5, 0, 3}, Bytes(8))
	got := d.mapRangeInto(nil, 0, 0, 24)
	want := []Segment{{Off: 0, Len: 8}, {Off: 24, Len: 8}, {Off: 40, Len: 8}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("segs = %v, want %v", got, want)
	}
	// Partial range within one tile.
	got = d.mapRangeInto(nil, 0, 8, 8)
	if !reflect.DeepEqual(got, []Segment{{Off: 24, Len: 8}}) {
		t.Fatalf("partial segs = %v", got)
	}
}

func TestMapRangeWithDisplacement(t *testing.T) {
	d := IndexedBlock(1, []int{1, 3}, Bytes(4))
	got := d.mapRangeInto(nil, 100, 0, 8)
	want := []Segment{{Off: 104, Len: 4}, {Off: 112, Len: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("segs = %v, want %v", got, want)
	}
}

func TestMapRangeZeroLen(t *testing.T) {
	if got := Bytes(8).mapRangeInto(nil, 0, 0, 0); got != nil {
		t.Fatalf("zero-length mapRange = %v", got)
	}
}

func TestMapRangeZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mapRange on empty type did not panic")
		}
	}()
	Bytes(0).mapRangeInto(nil, 0, 0, 1)
}

// Property: mapped segments preserve total length, are sorted,
// non-overlapping, and fall inside the tiled segment pattern.
func TestMapRangeProperty(t *testing.T) {
	f := func(dispRaw uint16, logicalRaw uint16, nRaw uint16, pick uint8) bool {
		types := []*Datatype{
			Bytes(16),
			newDatatype([]Segment{{Off: 0, Len: 4}}, 8),
			newDatatype([]Segment{{Off: 2, Len: 3}, {Off: 7, Len: 1}}, 10),
			IndexedBlock(1, []int{9, 1, 4}, Bytes(8)),
			newDatatype([]Segment{{Off: 0, Len: 8}, {Off: 16, Len: 8}, {Off: 32, Len: 8}}, 40),
		}
		d := types[int(pick)%len(types)]
		disp := int64(dispRaw % 512)
		logical := int64(logicalRaw % 1024)
		n := int64(nRaw%512) + 1
		segs := d.mapRangeInto(nil, disp, logical, n)
		var total int64
		prevEnd := int64(-1)
		for _, s := range segs {
			if s.Len <= 0 || s.Off < disp {
				return false
			}
			if s.Off <= prevEnd { // must be strictly increasing and disjoint (coalesced)
				return false
			}
			prevEnd = s.Off + s.Len - 1
			total += s.Len
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: consecutive logical ranges map to consecutive physical
// coverage — mapping [0,a) then [a,b) covers the same bytes as [0,b).
func TestMapRangeSplitConsistencyProperty(t *testing.T) {
	d := IndexedBlock(1, []int{4, 0, 7, 2}, Bytes(8))
	f := func(aRaw, bRaw uint16) bool {
		a := int64(aRaw % 200)
		b := a + int64(bRaw%200) + 1
		first := d.mapRangeInto(nil, 0, 0, a)
		second := d.mapRangeInto(nil, 0, a, b-a)
		whole := d.mapRangeInto(nil, 0, 0, b)
		merged := append(append([]Segment{}, first...), second...)
		// Re-coalesce merged.
		var out []Segment
		for _, s := range merged {
			if k := len(out); k > 0 && out[k-1].Off+out[k-1].Len == s.Off {
				out[k-1].Len += s.Len
			} else {
				out = append(out, s)
			}
		}
		return reflect.DeepEqual(out, whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
