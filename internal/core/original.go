package core

import (
	"fmt"

	"sdm/internal/mpi"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// This file implements the paper's comparison baselines: the I/O
// behaviour of the *original* applications before they were ported to
// SDM. Figure 5 compares against a FUN3D whose process 0 reads
// everything and broadcasts; Figure 7 against an RT code whose
// processes write a shared file strictly one after another.

// OriginalImport models the original FUN3D input path: process 0 reads
// an entire array from the mesh file through one file handle and
// broadcasts it to all ranks. Collective; returns the full array on
// every rank.
func OriginalImport(c *mpi.Comm, fs *pfs.System, fileName string, offset int64, elems int64, elemSize int64) ([]byte, error) {
	var buf []byte
	if c.Rank() == 0 {
		h, err := fs.Open(fileName, pfs.ReadOnly, c.Clock())
		if err != nil {
			return nil, err
		}
		buf = make([]byte, elems*elemSize)
		if _, err := h.ReadAtVec(buf, []pfs.Extent{{Off: offset, Len: int64(len(buf))}}); err != nil {
			return nil, fmt.Errorf("core: original import: %w", err)
		}
		if err := h.Close(); err != nil {
			return nil, err
		}
	}
	res := mpi.BcastSlice(c, 0, buf)
	return res, nil
}

// OriginalCopyOut charges a rank's copy of its own n bytes out of an
// array OriginalImport broadcast whole, at the memory-copy rate.
func OriginalCopyOut(c *mpi.Comm, n int64) { c.ComputeItems(n, memCopyRate) }

// OriginalPartitionResult carries the original code's equivalent of an
// index partition plus its phase timings, for head-to-head comparison
// with PartitionIndex.
type OriginalPartitionResult struct {
	Partition      *IndexPartition
	ImportTime     sim.Duration
	DistributeTime sim.Duration
}

// OriginalImportAndPartition reproduces the original FUN3D start-up:
// process 0 reads the edge arrays and broadcasts them; every rank then
// makes TWO passes over all edges — one to size its arrays, one to fill
// them (the paper: "The original application reads the edges in two
// steps: one step to determine the amount of memory to store the
// partitioned edges and the other step to actually read the edges") —
// where SDM's single realloc-growing pass does it once.
func OriginalImportAndPartition(s *SDM, fileName string, edge1Off, edge2Off int64, totalEdges int64, partVec []int32) (*OriginalPartitionResult, error) {
	c := s.env.Comm
	t0 := c.Now()
	b1, err := OriginalImport(c, s.env.FS, fileName, edge1Off, totalEdges, 4)
	if err != nil {
		return nil, err
	}
	b2, err := OriginalImport(c, s.env.FS, fileName, edge2Off, totalEdges, 4)
	if err != nil {
		return nil, err
	}
	t1 := c.Now()

	edge1 := bytesToInt32s(b1)
	edge2 := bytesToInt32s(b2)
	me := int32(c.Rank())

	// Pass 1: count (sizing pass).
	count := 0
	for e := range edge1 {
		if partVec[edge1[e]] == me || partVec[edge2[e]] == me {
			count++
		}
	}
	c.ComputeItems(totalEdges, edgeScanRate)

	// Pass 2: fill exactly-sized arrays.
	keptG := make([]int32, 0, count)
	kept1 := make([]int32, 0, count)
	kept2 := make([]int32, 0, count)
	for e := range edge1 {
		if partVec[edge1[e]] == me || partVec[edge2[e]] == me {
			keptG = append(keptG, int32(e))
			kept1 = append(kept1, edge1[e])
			kept2 = append(kept2, edge2[e])
		}
	}
	c.ComputeItems(totalEdges, edgeScanRate)

	ip := s.buildPartition(keptG, kept1, kept2, partVec)
	return &OriginalPartitionResult{
		Partition:      ip,
		ImportTime:     t1.Sub(t0),
		DistributeTime: c.Now().Sub(t1),
	}, nil
}

// OriginalSequentialWrite models the original RT output path: all ranks
// write one shared file, strictly one after another — rank r starts
// writing only after rank r-1 finished (the paper: "after seeking the
// starting position in a file, processes write their local portion of
// data one by one"). Collective; data is this rank's contiguous portion
// at the given file offset.
func OriginalSequentialWrite(c *mpi.Comm, fs *pfs.System, fileName string, data []byte, offset int64) error {
	const tokenTag = 7777
	h, err := fs.Open(fileName, pfs.CreateMode, c.Clock())
	if err != nil {
		return err
	}
	if c.Rank() > 0 {
		// Wait for the previous writer's completion token.
		_, _ = c.Recv(c.Rank()-1, tokenTag)
	}
	if _, err := h.WriteAtVec(data, []pfs.Extent{{Off: offset, Len: int64(len(data))}}); err != nil {
		return err
	}
	if c.Rank() < c.Size()-1 {
		c.Send(c.Rank()+1, tokenTag, nil, 1)
	}
	if err := h.Close(); err != nil {
		return err
	}
	c.Barrier()
	return nil
}
