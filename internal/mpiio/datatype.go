// Package mpiio reimplements the portion of MPI-IO that SDM relies on:
// derived datatypes describing noncontiguous file layouts, file views
// (MPI_File_set_view), independent read/write through a view, and —
// the paper's key optimization — collective read/write implemented with
// the two-phase algorithm (file-domain aggregation plus an all-to-all
// redistribution), so noncontiguous irregular accesses turn into large
// contiguous requests at the file system.
//
// One simplification relative to full MPI-IO: the in-memory buffer is
// always contiguous; only the file side is noncontiguous. That is
// exactly the shape of SDM's accesses (a dense local array scattered to
// global-index positions in a file).
package mpiio

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"sdm/internal/mpi"
	"sdm/internal/pfs"
)

// Segment is a contiguous byte range, the unit derived datatypes
// flatten into. Off is relative to the datatype origin (or absolute in
// the file once a view is applied). It is an alias of pfs.Extent so a
// flattened segment list can be handed to the file system's vectored
// read/write entry points without conversion or copying.
type Segment = pfs.Extent

// Datatype describes a (possibly noncontiguous) byte layout: a sorted,
// non-overlapping list of segments within an extent. Tiling the extent
// repeatedly describes an arbitrarily long file region, as MPI filetypes
// do.
type Datatype struct {
	segs   []Segment
	prefix []int64 // prefix[i] = sum of segs[:i].Len; len = len(segs)+1
	size   int64   // bytes of data per tile
	extent int64   // span of one tile including holes

	installed rankSet // ranks that have installed the type as a file view
}

// rankSet records the ranks a datatype has been flattened for. ROMIO
// flattens a filetype once and caches the list on the type; here the
// segments are flattened when the type is built, and the set is what
// lets File.SetView charge a rank for that flatten once. The first rank
// takes an inline slot, so a type built and installed by one rank — every
// view SDM builds — records it without allocating. Further ranks, when a
// type is shared between ranks, go to a list. It takes no lock: only the
// rank holding the turn (internal/mpi) calls in.
type rankSet struct {
	first *mpi.Comm
	more  []*mpi.Comm
}

// add records c and reports whether it was not recorded before. Each
// rank is new exactly once, whatever order the ranks take their turns in.
func (s *rankSet) add(c *mpi.Comm) bool {
	switch {
	case s.first == c || slices.Contains(s.more, c):
		return false
	case s.first == nil:
		s.first = c
	default:
		s.more = append(s.more, c)
	}
	return true
}

// newDatatype normalizes segments in place — it takes ownership of
// segs: drops empty ones, sorts, validates non-overlap, coalesces
// adjacency — then keeps them in an array of their own length and
// builds the prefix table.
func newDatatype(segs []Segment, extent int64) *Datatype {
	sorted := segs[:0]
	for _, s := range segs {
		if s.Len < 0 {
			panic(fmt.Sprintf("mpiio: negative segment length %d", s.Len))
		}
		if s.Len == 0 {
			continue
		}
		if s.Off < 0 {
			panic(fmt.Sprintf("mpiio: negative segment offset %d", s.Off))
		}
		sorted = append(sorted, s)
	}
	// Equal offsets overlap and are refused below, so their order never
	// matters.
	slices.SortFunc(sorted, func(a, b Segment) int { return cmp.Compare(a.Off, b.Off) })
	coalesced := sorted[:0]
	for _, s := range sorted {
		if n := len(coalesced); n > 0 {
			last := &coalesced[n-1]
			if s.Off < last.Off+last.Len {
				panic(fmt.Sprintf("mpiio: overlapping segments at offset %d", s.Off))
			}
			if s.Off == last.Off+last.Len {
				last.Len += s.Len
				continue
			}
		}
		coalesced = append(coalesced, s)
	}
	if len(coalesced) < cap(coalesced) {
		// Keep no more than the segments: a type lives as long as its view.
		coalesced = slices.Clone(coalesced)
	}
	var size int64
	prefix := make([]int64, len(coalesced)+1)
	for i, s := range coalesced {
		prefix[i] = size
		size += s.Len
	}
	prefix[len(coalesced)] = size
	return &Datatype{segs: coalesced, prefix: prefix, size: size, extent: max(extent, segsEnd(coalesced))}
}

// segsEnd returns the end of the last of sorted segments, 0 for none.
func segsEnd(segs []Segment) int64 {
	if n := len(segs); n > 0 {
		return segs[n-1].Off + segs[n-1].Len
	}
	return 0
}

// Bytes returns a contiguous type of n bytes.
func Bytes(n int64) *Datatype {
	if n < 0 {
		panic(fmt.Sprintf("mpiio: Bytes(%d)", n))
	}
	if n == 0 {
		return newDatatype(nil, 0)
	}
	return newDatatype([]Segment{{Off: 0, Len: n}}, n)
}

// Elementary datatype sizes, matching the C types SDM stores.
const (
	SizeInt32   = 4
	SizeInt64   = 8
	SizeFloat64 = 8
)

// IndexedBlock places blocks of blocklen elements of old at
// displacements measured in units of old's extent
// (MPI_Type_create_indexed_block). This is the constructor SDM uses for
// irregular map arrays: a block of 1 at each global node index.
func IndexedBlock(blocklen int, displs []int, old *Datatype) *Datatype {
	segs := make([]Segment, 0, len(displs)*len(old.segs))
	extent := int64(0)
	for _, disp := range displs {
		for j := 0; j < blocklen; j++ {
			base := int64(disp+j) * old.extent
			for _, s := range old.segs {
				segs = append(segs, Segment{Off: base + s.Off, Len: s.Len})
			}
		}
		if e := int64(disp+blocklen) * old.extent; e > extent {
			extent = e
		}
	}
	return newDatatype(segs, extent)
}

// Resized returns old with its extent changed
// (MPI_Type_create_resized). SDM uses it to tile an irregular map-array
// type over a global array whose size exceeds the local pattern's span:
// the extent becomes the full global array size so consecutive logical
// slabs land in consecutive global slabs.
func Resized(old *Datatype, extent int64) *Datatype {
	// The segments and the prefix table are never written once built, so
	// the two types share them.
	return &Datatype{segs: old.segs, prefix: old.prefix, size: old.size, extent: max(extent, segsEnd(old.segs))}
}

// segCount bounds the segments mapRangeInto appends for n logical bytes
// from logical: the type's segments the range touches, counted before
// adjacent ones coalesce across tile boundaries.
func (d *Datatype) segCount(logical, n int64) int {
	if n <= 0 || d.size == 0 {
		return 0
	}
	last, lastSeg := d.locate(logical + n - 1)
	first, firstSeg := d.locate(logical)
	return int(last-first)*len(d.segs) + lastSeg - firstSeg + 1
}

// locate returns the tile holding logical byte l of the tiling and the
// index of the segment holding it within the tile.
func (d *Datatype) locate(l int64) (tile int64, seg int) {
	within := l % d.size
	return l / d.size, sort.Search(len(d.segs), func(k int) bool { return d.prefix[k+1] > within })
}

// mapRangeInto translates a logical range of the tiled datatype into
// physical segments, appended to dst. disp is the absolute byte
// displacement of tile 0; logical byte L of the view corresponds to the
// L-th data byte of the infinite tiling. The appended segments are
// absolute, sorted, and coalesced across tile boundaries where
// physically adjacent. Callers that keep a scratch slice sized by
// segCount (and pass dst[:0]) flatten a request without allocating.
func (d *Datatype) mapRangeInto(dst []Segment, disp, logical, n int64) []Segment {
	if n <= 0 {
		return dst
	}
	if d.size == 0 {
		panic("mpiio: I/O through a zero-size filetype")
	}
	base := len(dst)
	tile, i := d.locate(logical)
	within := logical % d.size
	for n > 0 {
		seg := d.segs[i]
		segOff := within - d.prefix[i] // offset into this segment's data
		take := seg.Len - segOff
		if take > n {
			take = n
		}
		abs := disp + tile*d.extent + seg.Off + segOff
		if k := len(dst); k > base && dst[k-1].Off+dst[k-1].Len == abs {
			dst[k-1].Len += take
		} else {
			dst = append(dst, Segment{Off: abs, Len: take})
		}
		n -= take
		within += take
		i++
		if i == len(d.segs) {
			i = 0
			tile++
			within = 0
		}
	}
	return dst
}
