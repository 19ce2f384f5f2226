package mesh

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// MshLayout describes the binary layout of a uns3d.msh-style mesh file,
// the externally created input SDM *imports* (as opposed to reads): the
// edge1 and edge2 index arrays followed by a number of per-edge and
// per-node double-precision data arrays, exactly the offset arithmetic
// the paper's Figure 3 performs by hand.
//
// File layout, little-endian:
//
//	edge1       NumEdges x int32
//	edge2       NumEdges x int32
//	edge data   EdgeArrays x (NumEdges x float64)
//	node data   NodeArrays x (NumNodes x float64)
type MshLayout struct {
	NumEdges   int64
	NumNodes   int64
	EdgeArrays int
	NodeArrays int
}

// Edge1Offset is the byte offset of the edge1 array (always zero).
func (l MshLayout) Edge1Offset() int64 { return 0 }

// Edge2Offset is the byte offset of the edge2 array.
func (l MshLayout) Edge2Offset() int64 { return l.NumEdges * 4 }

// EdgeDataOffset is the byte offset of per-edge double array k.
func (l MshLayout) EdgeDataOffset(k int) int64 {
	return 2*l.NumEdges*4 + int64(k)*l.NumEdges*8
}

// NodeDataOffset is the byte offset of per-node double array k.
func (l MshLayout) NodeDataOffset(k int) int64 {
	return l.EdgeDataOffset(l.EdgeArrays) + int64(k)*l.NumNodes*8
}

// TotalSize is the full file size in bytes.
func (l MshLayout) TotalSize() int64 {
	return l.NodeDataOffset(l.NodeArrays)
}

// fits checks a layout read from outside against a file of n bytes: no
// negative count, no more arrays than the file has bytes (empty arrays
// are free in the file but not in memory), and every array inside the
// file — checked by division, so no product can wrap past the bound.
func (l MshLayout) fits(n int64) error {
	if l.NumEdges < 0 || l.NumNodes < 0 || l.EdgeArrays < 0 || l.NodeArrays < 0 {
		return fmt.Errorf("mesh: layout %+v has a negative count", l)
	}
	if int64(l.EdgeArrays) > n || int64(l.NodeArrays) > n {
		return fmt.Errorf("mesh: layout %+v names more arrays than the file's %d bytes", l, n)
	}
	left := n
	for _, a := range [...]struct{ arrays, elems, size int64 }{
		{2, l.NumEdges, 4},
		{int64(l.EdgeArrays), l.NumEdges, 8},
		{int64(l.NodeArrays), l.NumNodes, 8},
	} {
		if a.arrays == 0 || a.elems == 0 {
			continue
		}
		if a.elems > left/a.size/a.arrays {
			return fmt.Errorf("mesh: file has %d bytes, layout %+v needs more", n, l)
		}
		left -= a.arrays * a.elems * a.size
	}
	return nil
}

// mshChunk bounds the bytes Msh.WriteTo hands its writer in one Write.
const mshChunk = 64 << 10

// Msh is a msh file to be written: the mesh's edge1 and edge2 arrays,
// then EdgeArrays per-edge and NodeArrays per-node double arrays.
// WriteTo asks for data array k (EdgeData(k), NodeData(k)) only when it
// writes it and keeps no reference to it afterwards, so a caller that
// synthesizes the arrays holds one at a time, and the encoded file
// exists whole only in its destination. With Mesh.EdgeData and
// Mesh.NodeData as the synthesizers, each array is made afresh on every
// write, its sines and cosines looked up in a memo that lives for that
// one call (see trigMemo): the bytes are those of direct evaluation.
type Msh struct {
	Mesh                   *Mesh
	EdgeArrays, NodeArrays int
	EdgeData, NodeData     func(k int) []float64
}

// Layout is where WriteTo puts each array.
func (f Msh) Layout() MshLayout {
	return MshLayout{
		NumEdges:   int64(f.Mesh.NumEdges()),
		NumNodes:   int64(f.Mesh.NumNodes()),
		EdgeArrays: f.EdgeArrays,
		NodeArrays: f.NodeArrays,
	}
}

// WriteTo encodes the file into w front to back, in Writes of at most
// 64 KiB. A data array of the wrong length stops it with an error.
func (f Msh) WriteTo(w io.Writer) (int64, error) {
	l := f.Layout()
	c := &chunkWriter{w: w, buf: make([]byte, mshChunk)}
	putChunked(c, f.Mesh.Edge1, 4, PutInt32s)
	putChunked(c, f.Mesh.Edge2, 4, PutInt32s)
	for k := 0; k < f.EdgeArrays && c.err == nil; k++ {
		c.array("edge", k, f.EdgeData(k), l.NumEdges)
	}
	for k := 0; k < f.NodeArrays && c.err == nil; k++ {
		c.array("node", k, f.NodeData(k), l.NumNodes)
	}
	return c.n, c.err
}

// chunkWriter encodes arrays through one buffer into w, counting the
// bytes written and stopping at the first error.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	n   int64
	err error
}

// array writes data array k of the given kind, which must hold want
// values.
func (c *chunkWriter) array(kind string, k int, d []float64, want int64) {
	if int64(len(d)) != want {
		c.err = fmt.Errorf("mesh: %s array %d has %d entries, want %d", kind, k, len(d), want)
		return
	}
	putChunked(c, d, 8, PutFloat64s)
}

// putChunked encodes vals (size bytes each) with put and writes them
// one buffer at a time.
func putChunked[T int32 | float64](c *chunkWriter, vals []T, size int, put func([]byte, []T)) {
	per := len(c.buf) / size
	for len(vals) > 0 && c.err == nil {
		k := min(per, len(vals))
		put(c.buf, vals[:k])
		m, err := c.w.Write(c.buf[:k*size])
		c.n += int64(m)
		c.err = err
		vals = vals[k:]
	}
}

// EncodeMsh serializes a mesh plus its data arrays into the msh layout,
// in one buffer (Msh.WriteTo into memory).
func EncodeMsh(m *Mesh, edgeData, nodeData [][]float64) ([]byte, MshLayout, error) {
	f := Msh{
		Mesh: m, EdgeArrays: len(edgeData), NodeArrays: len(nodeData),
		EdgeData: func(k int) []float64 { return edgeData[k] },
		NodeData: func(k int) []float64 { return nodeData[k] },
	}
	layout := f.Layout()
	buf := bytes.NewBuffer(make([]byte, 0, layout.TotalSize()))
	if _, err := f.WriteTo(buf); err != nil {
		return nil, layout, err
	}
	return buf.Bytes(), layout, nil
}

// DecodeMsh parses a msh file given its layout (the layout itself lives
// in SDM's import_table, not in the file, matching the paper: "the user
// has no control over the arrays except to read them, by specifying
// their data type, appropriate file offset, and length").
func DecodeMsh(buf []byte, layout MshLayout) (edge1, edge2 []int32, edgeData, nodeData [][]float64, err error) {
	if err := layout.fits(int64(len(buf))); err != nil {
		return nil, nil, nil, nil, err
	}
	edge1 = GetInt32s(buf[layout.Edge1Offset():], int(layout.NumEdges))
	edge2 = GetInt32s(buf[layout.Edge2Offset():], int(layout.NumEdges))
	edgeData = make([][]float64, layout.EdgeArrays)
	for k := range edgeData {
		edgeData[k] = GetFloat64s(buf[layout.EdgeDataOffset(k):], int(layout.NumEdges))
	}
	nodeData = make([][]float64, layout.NodeArrays)
	for k := range nodeData {
		nodeData[k] = GetFloat64s(buf[layout.NodeDataOffset(k):], int(layout.NumNodes))
	}
	return edge1, edge2, edgeData, nodeData, nil
}

// PutInt32s writes vals into buf little-endian.
func PutInt32s(buf []byte, vals []int32) {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
	}
}

// GetInt32s reads n little-endian int32 values from buf.
func GetInt32s(buf []byte, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return out
}

// PutFloat64s writes vals into buf little-endian.
func PutFloat64s(buf []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
}

// GetFloat64s reads n little-endian float64 values from buf.
func GetFloat64s(buf []byte, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out
}
