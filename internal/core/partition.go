package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"sdm/internal/catalog"
	"sdm/internal/mpi"
	"sdm/internal/mpiio"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// IndexPartition is the result of distributing an irregular mesh's
// edges among ranks (SDM_partition_index). An edge is assigned to every
// rank that owns at least one of its endpoints, so boundary ("ghost")
// edges appear on both sides — the paper's scheme for eliminating
// flux communication.
type IndexPartition struct {
	// EdgeGlobal holds the global edge ids (positions in the imported
	// edge arrays) of the edges assigned to this rank. It is the map
	// array for importing per-edge data (the paper's partitioned_edge).
	EdgeGlobal []int32
	// Edge1G/Edge2G are the kept edges' endpoints as global node ids.
	Edge1G, Edge2G []int32
	// Edge1L/Edge2L are the same edges with endpoints renumbered into
	// local node indices (the "localized" edges the sweep kernel uses).
	Edge1L, Edge2L []int32
	// Nodes lists the global ids of all local nodes — owned plus ghost
	// — sorted ascending. It is the map array for importing per-node
	// data (the paper's vector).
	Nodes []int32
	// Owned marks which entries of Nodes this rank owns.
	Owned []bool
	// OwnedNodes is the sorted owned subset of Nodes: the map array for
	// writing results ordered by global node number (each node written
	// by exactly one rank).
	OwnedNodes []int32
	// FromHistory reports whether the partition was read from a history
	// file instead of being computed by the ring distribution.
	FromHistory bool
	// digest names the inputs the partition was computed from
	// (historyDigest), on rank 0 only; IndexRegistry records it.
	digest string
	// ImportTime and DistributeTime record the virtual time this rank
	// spent importing edge arrays and distributing them — the two bars
	// of the paper's Figure 5.
	ImportTime     sim.Duration
	DistributeTime sim.Duration
}

// NumEdges reports the local partitioned edge count, ghosts included
// (SDM_partition_index_size).
func (ip *IndexPartition) NumEdges() int { return len(ip.EdgeGlobal) }

// NumNodes reports the local node count, ghosts included
// (SDM_partition_data_size).
func (ip *IndexPartition) NumNodes() int { return len(ip.Nodes) }

// PartitionTable converts the replicated global partitioning vector
// into this rank's local node list: the sorted global ids of the nodes
// assigned to this rank (the paper's SDM_partition_table).
func (s *SDM) PartitionTable(partVec []int32) []int32 {
	me := int32(s.env.Comm.Rank())
	var owned []int32
	for node, r := range partVec {
		if r == me {
			owned = append(owned, int32(node))
		}
	}
	s.env.Comm.ComputeItems(int64(len(partVec)), edgeScanRate)
	return owned
}

// historyFileName derives the deterministic name of a history file.
func (s *SDM) historyFileName(totalEdges int64) string {
	return fmt.Sprintf("%s_hist_e%d_p%d.idx", s.app, totalEdges, s.env.Comm.Size())
}

// hashChunk bounds the host buffer that hashes file content: the
// digests below stream their bytes through it, never holding a file.
const hashChunk = 64 << 10

// historyDigest names what a partition of the edge arrays e1 and e2 of
// imp is computed from: the partition vector, and the edge import — the
// file's name and staged size, each array's offset and length, and the
// content of both arrays. The paper keys a history on problem size and
// process count alone; a history replays only under the same digest, so
// another partition vector, or another mesh with as many edges (staged
// under any name), is a miss rather than another partition's edges. The
// arrays are read from the file system's backend in hashChunk pieces:
// host work on rank 0, unpriced like the rest of the digest.
func (s *SDM) historyDigest(imp *Importer, e1, e2 ImportSpec, partVec []int32) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%q %d %d %d %d %d %d\n", imp.fileName, imp.size,
		e1.FileOffset, e1.Length, e2.FileOffset, e2.Length, len(partVec))
	h.Write(int32sToBytes(partVec))
	obj, err := s.env.FS.Backend().Open(imp.fileName)
	if err != nil {
		return "", err
	}
	buf := make([]byte, hashChunk)
	for _, sp := range []ImportSpec{e1, e2} {
		if _, err := io.CopyBuffer(h, io.NewSectionReader(obj, sp.FileOffset, sp.Length*sp.Type.Size()), buf); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// blockSum is a history block's share of its file's content digest: the
// first eight bytes of the block's SHA-256, sum.
func blockSum(sum []byte) int64 { return int64(binary.LittleEndian.Uint64(sum)) }

// contentDigest is a history file's content digest: the SHA-256 of its
// blocks' sums in rank order.
func contentDigest(sums []int64) string {
	b := make([]byte, 0, 8*len(sums))
	for _, v := range sums {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:])
}

// PartitionIndex distributes the edges named by edge1Name/edge2Name in
// the import list across ranks using the partitioning vector. It first
// consults the index tables for a history of this (problem size,
// process count); on a hit the pre-partitioned edges are read
// contiguously from the history file, skipping both the edge import and
// the ring exchange — the paper's optimization. A history computed from
// other inputs, or whose file is damaged, counts as a miss (see
// lookupHistory). Collective.
func (s *SDM) PartitionIndex(imp *Importer, edge1Name, edge2Name string, partVec []int32) (*IndexPartition, error) {
	sp1, err := imp.Spec(edge1Name)
	if err != nil {
		return nil, err
	}
	sp2, err := imp.Spec(edge2Name)
	if err != nil {
		return nil, err
	}
	if sp1.Length != sp2.Length {
		return nil, fmt.Errorf("core: edge arrays %q and %q have different lengths", edge1Name, edge2Name)
	}
	totalEdges := sp1.Length
	hist, digest, err := s.lookupHistory(imp, sp1, sp2, partVec)
	if err != nil {
		return nil, err
	}
	if hist != nil {
		ip, err := s.loadIndexHistory(hist, partVec)
		if err == nil {
			ip.digest = digest
		}
		return ip, err
	}

	// No usable history: import both edge blocks as one epoch and run
	// the ring distribution.
	c := s.env.Comm
	t0 := c.Now()
	h1, err := imp.QueueContiguous(edge1Name)
	if err != nil {
		return nil, err
	}
	h2, err := imp.QueueContiguous(edge2Name)
	if err != nil {
		return nil, err
	}
	if err := imp.Flush(); err != nil {
		return nil, err
	}
	t1 := c.Now()
	ip := s.distributeIndex(bytesToInt32s(h1.buf), bytesToInt32s(h2.buf), h1.start, totalEdges, partVec)
	ip.digest = digest
	ip.ImportTime = t1.Sub(t0)
	ip.DistributeTime = c.Now().Sub(t1)
	return ip, nil
}

// lookupHistory checks index_table for a usable history of the edge
// arrays e1 and e2 of imp (rank 0 queries, result broadcast) and returns
// it with historyDigest's name for those inputs, on rank 0 only. A
// registered history computed from other inputs (a history registered
// without a digest included), or whose file fails historyIntact, is
// invalidated — its rows deleted and its file removed (uncharged, like
// the size check), so the caller's IndexRegistry creates the same file
// name afresh, at its own length and layout, rather than writing over a
// stale one in place — counted in core.history-fallbacks, and reported
// as a miss. The decision is rank 0's alone and travels in the
// broadcast, so every rank takes the same collective branch.
//
// The digest checks cost no virtual time: the digests travel in the rows
// LookupIndexHistory already reads in its one charged call, and hashing
// the inputs and the history file is host work on rank 0, unpriced like
// historyIntact's size query.
func (s *SDM) lookupHistory(imp *Importer, e1, e2 ImportSpec, partVec []int32) (*catalog.IndexHistory, string, error) {
	var digest string
	hist, err := onRoot(s, "core: history lookup", func(clk *sim.Clock) (*catalog.IndexHistory, int64, error) {
		var err error
		if digest, err = s.historyDigest(imp, e1, e2, partVec); err != nil {
			return nil, 0, err
		}
		h, err := s.env.Catalog.LookupIndexHistory(clk, e1.Length, int64(s.env.Comm.Size()))
		if err == nil && h != nil && (h.Digest != digest || !s.historyIntact(h)) {
			s.historyFallbacks.Add(1)
			err = s.env.Catalog.DeleteIndexHistory(clk, h.FileName)
			if rerr := s.env.FS.Remove(h.FileName); err == nil && !errors.Is(rerr, pfs.ErrNotExist) {
				err = rerr
			}
			h = nil
		}
		return h, 128, err
	})
	return hist, digest, err
}

// historyIntact reports whether a registered history can be replayed:
// it must describe this communicator with a block table — a history
// without one holds the old 12 B/edge records — and its file must hold
// exactly the registered blocks: its size is the sum of the block
// lengths, and its bytes hash to the content digest recorded at
// registration. Collective reads zero-fill past EOF, so a truncated,
// half-written, or missing history file would otherwise load as zeros
// with no error, and a damaged one as other edges. The checks are host
// work on rank 0 — a local size query, then the file streamed through
// the hash in hashChunk pieces — with no virtual-time charge.
func (s *SDM) historyIntact(hist *catalog.IndexHistory) bool {
	p := s.env.Comm.Size()
	if len(hist.EdgeSizes) != p || len(hist.BlockSizes) != p {
		return false
	}
	size, err := s.env.FS.FileSize(hist.FileName)
	if err != nil {
		return false
	}
	obj, err := s.env.FS.Backend().Open(hist.FileName)
	if err != nil {
		return false
	}
	buf := make([]byte, hashChunk)
	sums := make([]int64, p)
	var off int64
	for r, n := range hist.BlockSizes {
		if n < 0 || n > size-off || hist.EdgeSizes[r] < 0 {
			return false
		}
		h := sha256.New()
		if _, err := io.CopyBuffer(h, io.NewSectionReader(obj, off, n), buf); err != nil {
			return false
		}
		sums[r] = blockSum(h.Sum(nil))
		off += n
	}
	return off == size && contentDigest(sums) == hist.Content
}

// distributeIndex is the ring-oriented edge distribution of the paper:
// every rank starts with its contiguous block of edges, keeps the ones
// touching its nodes, and passes the block to the next rank around the
// ring, p-1 times, so each rank examines every edge. Memory for the
// kept edges grows by doubling (Go's append), the single-pass realloc
// strategy the paper credits for SDM's reduced index-distribution cost.
func (s *SDM) distributeIndex(block1, block2 []int32, start, totalEdges int64, partVec []int32) *IndexPartition {
	c := s.env.Comm
	p := c.Size()
	me := int32(c.Rank())

	var keptG []int32
	var kept1, kept2 []int32
	scan := func(b1, b2 []int32, base int64) {
		for e := range b1 {
			u, v := b1[e], b2[e]
			if partVec[u] == me || partVec[v] == me {
				keptG = append(keptG, int32(base)+int32(e))
				kept1 = append(kept1, u)
				kept2 = append(kept2, v)
			}
		}
		c.ComputeItems(int64(len(b1)), edgeScanRate)
	}

	cur1, cur2 := block1, block2
	origin := c.Rank()
	base := start
	scan(cur1, cur2, base)
	next := (c.Rank() + 1) % p
	prev := (c.Rank() - 1 + p) % p
	for step := 0; step < p-1; step++ {
		// Pass the current block to the next rank; receive the previous
		// rank's. Tags encode the step to keep rounds separate.
		in1, _ := mpi.SendrecvSlice(c, next, 1000+step, cur1, prev, 1000+step)
		in2, _ := mpi.SendrecvSlice(c, next, 2000+step, cur2, prev, 2000+step)
		cur1, cur2 = in1, in2
		origin = (origin - 1 + p) % p
		base, _ = blockRange(totalEdges, p, origin)
		scan(cur1, cur2, base)
	}

	ip := s.buildPartition(keptG, kept1, kept2, partVec)
	return ip
}

// buildPartition derives node sets and localized edges from the kept
// edge list. Every endpoint occurrence is sorted by node, as a node id
// above its position among the endpoints; walking the partitioning
// vector beside them in node order yields the rank's nodes in ascending
// order — the endpoints merged with the nodes the vector gives the rank
// (a rank can own isolated nodes that no local edge touches) — and each
// occurrence its node's local index.
func (s *SDM) buildPartition(keptG, kept1, kept2 []int32, partVec []int32) *IndexPartition {
	me := int32(s.env.Comm.Rank())
	occ := make([]uint64, 0, 2*len(kept1))
	for i := range kept1 {
		occ = append(occ, uint64(kept1[i])<<32|uint64(2*i), uint64(kept2[i])<<32|uint64(2*i+1))
	}
	slices.Sort(occ)
	e1l := make([]int32, len(kept1))
	e2l := make([]int32, len(kept2))
	var nodes, ownedNodes []int32
	var owned []bool
	j := 0
	for node, r := range partVec {
		if r != me && (j == len(occ) || occ[j]>>32 != uint64(node)) {
			continue
		}
		local := int32(len(nodes))
		nodes = append(nodes, int32(node))
		owned = append(owned, r == me)
		if r == me {
			ownedNodes = append(ownedNodes, int32(node))
		}
		for ; j < len(occ) && occ[j]>>32 == uint64(node); j++ {
			if at := uint32(occ[j]); at%2 == 0 {
				e1l[at/2] = local
			} else {
				e2l[at/2] = local
			}
		}
	}
	s.env.Comm.ComputeItems(int64(len(kept1)+len(nodes)), edgeScanRate)
	return &IndexPartition{
		EdgeGlobal: keptG,
		Edge1G:     kept1,
		Edge2G:     kept2,
		Edge1L:     e1l,
		Edge2L:     e2l,
		Nodes:      nodes,
		Owned:      owned,
		OwnedNodes: ownedNodes,
	}
}

// IndexRegistry registers the index distribution for reuse
// (SDM_index_registry): the partitioned edges are written
// asynchronously to a history file and the metadata lands in
// index_table / index_history_table. Optional, as in the paper.
// Collective.
//
// Each rank's block is encodeHistoryBlock's varints. One Allgather
// carries every rank's edge count, node count, block length and block
// sum, so each rank knows its offset and rank 0 the block table and the
// file's content digest (contentDigest), which it records beside the
// history's digest in the one charged catalog call. The history file is
// laid out like a group's step (stripeUnit): the replay reads all of it
// in one collective, so its whole extent, the sum of the block lengths,
// is spread evenly over the servers, in rows of NumServers stripes under
// the file system's default unit. Its first stripe is where its name
// hash puts it, as for any one-file placement.
func (s *SDM) IndexRegistry(ip *IndexPartition, totalEdges int64, partVec []int32) error {
	c := s.env.Comm
	block := encodeHistoryBlock(ip)
	c.ComputeItems(int64(len(block)), memCopyRate)
	sum := sha256.Sum256(block)
	all := mpi.AllgatherSlice(c, []int64{int64(ip.NumEdges()), int64(ip.NumNodes()), int64(len(block)), blockSum(sum[:])})
	var myOff, extent int64
	edgeSizes := make([]int64, c.Size())
	nodeSizes := make([]int64, c.Size())
	blockSizes := make([]int64, c.Size())
	sums := make([]int64, c.Size())
	for r, v := range all {
		edgeSizes[r], nodeSizes[r], blockSizes[r], sums[r] = v[0], v[1], v[2], v[3]
		if r < c.Rank() {
			myOff += v[2]
		}
		extent += v[2]
	}

	name := s.historyFileName(totalEdges)
	cur := mpiio.NewCursor(c, s.env.FS)
	f, err := s.env.FS.Create(name, s.stripeUnit(extent), cur.Next(name, 0, 0).Server, c.Clock())
	if err != nil {
		return err
	}
	// Asynchronous write, on a sub-timeline forked here: the server is
	// scheduled now, the rank goes on from the fork point, and Finalize
	// joins the completion.
	fork := c.Now()
	if _, err := f.WriteAtVec(block, []pfs.Extent{{Off: myOff, Len: int64(len(block))}}); err != nil {
		return err
	}
	s.asyncDone = append(s.asyncDone, c.Now())
	c.Clock().Rebase(fork)
	if err := f.Close(); err != nil {
		return err
	}

	return s.catalogCall(func() error {
		return s.env.Catalog.RegisterIndexHistory(c.Clock(), catalog.IndexHistory{
			ProblemSize: totalEdges,
			NumNodes:    int64(len(partVec)),
			NProcs:      int64(c.Size()),
			Dimension:   1,
			FileName:    name,
			EdgeSizes:   edgeSizes,
			NodeSizes:   nodeSizes,
			Digest:      ip.digest,
			BlockSizes:  blockSizes,
			Content:     contentDigest(sums),
		})
	})
}

// loadIndexHistory reconstructs the partition from a history file: one
// contiguous collective read of each rank's block, its decode
// (decodeHistoryBlock, charged at memCopyRate over the block's bytes, as
// IndexRegistry's encode is), and a local pass to rebuild node sets — no
// ring communication, no full-mesh scan. A block that does not decode to
// this rank's edges is an error.
func (s *SDM) loadIndexHistory(hist *catalog.IndexHistory, partVec []int32) (*IndexPartition, error) {
	c := s.env.Comm
	t0 := c.Now()
	h, err := mpiio.Open(c, s.env.FS, hist.FileName, pfs.ReadOnly, s.opts.Hints)
	if err != nil {
		return nil, fmt.Errorf("core: history file missing: %w", err)
	}
	h.UseScratch(&s.scratch)
	var myOff int64
	for r := 0; r < c.Rank(); r++ {
		myOff += hist.BlockSizes[r]
	}
	block := make([]byte, hist.BlockSizes[c.Rank()])
	if err := h.ReadAtAllOps([]mpiio.BatchOp{{Off: myOff, Data: block}}); err != nil {
		return nil, fmt.Errorf("core: reading history: %w", err)
	}
	if err := h.Close(); err != nil {
		return nil, err
	}
	keptG, kept1, kept2, err := decodeHistoryBlock(block, hist.EdgeSizes[c.Rank()], hist.ProblemSize, partVec, int32(c.Rank()))
	if err != nil {
		return nil, fmt.Errorf("core: history %q: %w", hist.FileName, err)
	}
	c.ComputeItems(int64(len(block)), memCopyRate)
	ip := s.buildPartition(keptG, kept1, kept2, partVec)
	ip.FromHistory = true
	ip.DistributeTime = c.Now().Sub(t0)
	return ip, nil
}

// A history block is a rank's kept edges in the order the ring
// distribution found them, three zigzag varints per edge: the edge id's
// difference from the previous edge's id, the first endpoint's
// difference from the previous edge's first endpoint (both from 0 for
// the first edge), and the second endpoint's difference from the first.
// Ring order keeps ids ascending within each rank's block of the edge
// arrays and a mesh numbers neighbours close together, so most varints
// are one byte: about 3.6 bytes an edge on the FUN3D meshes, against
// twelve for three int32s.

// encodeHistoryBlock is this rank's history block.
func encodeHistoryBlock(ip *IndexPartition) []byte {
	b := make([]byte, 0, 4*len(ip.EdgeGlobal))
	var g, u int64
	for i, e := range ip.EdgeGlobal {
		e1, e2 := int64(ip.Edge1G[i]), int64(ip.Edge2G[i])
		b = binary.AppendVarint(b, int64(e)-g)
		b = binary.AppendVarint(b, e1-u)
		b = binary.AppendVarint(b, e2-e1)
		g, u = int64(e), e1
	}
	return b
}

// errHistoryBlock is the error of a history block that is not a valid
// block of this rank's edges (decodeHistoryBlock).
var errHistoryBlock = errors.New("malformed history block")

// decodeHistoryBlock decodes rank me's history block, which holds the
// given number of edges: their ids, and their endpoints as global node
// ids. It is total: a
// block that ends inside a varint or an edge, holds a varint longer
// than its value needs or than 64 bits, an edge id outside
// [0, totalEdges), a node outside [0, len(partVec)), an edge touching
// no node partVec gives me, or bytes after the last edge is an
// errHistoryBlock, never a panic.
func decodeHistoryBlock(block []byte, edges, totalEdges int64, partVec []int32, me int32) (keptG, kept1, kept2 []int32, err error) {
	fail := func(format string, args ...any) ([]int32, []int32, []int32, error) {
		return nil, nil, nil, fmt.Errorf("%w: %s", errHistoryBlock, fmt.Sprintf(format, args...))
	}
	// Every edge takes at least three bytes, which bounds what a hostile
	// edge count can make this allocate.
	if edges < 0 || edges > int64(len(block))/3 {
		return fail("%d edges in %d bytes", edges, len(block))
	}
	totalEdges = min(totalEdges, math.MaxInt32+1) // ids are int32s
	nodes := int64(len(partVec))
	keptG = make([]int32, edges)
	kept1 = make([]int32, edges)
	kept2 = make([]int32, edges)
	var pos int
	var g, u int64
	for i := range keptG {
		var d [3]int64
		for k := range d {
			x, n := binary.Varint(block[pos:])
			switch {
			case n == 0:
				return fail("edge %d: block ends inside a varint", i)
			case n < 0 || (n > 1 && block[pos+n-1] == 0):
				return fail("edge %d: overlong varint at byte %d", i, pos)
			}
			d[k], pos = x, pos+n
		}
		// Each sum starts in range, so an overflowing delta wraps it
		// negative and the range checks refuse it.
		g, u = g+d[0], u+d[1]
		v := u + d[2]
		switch {
		case g < 0 || g >= totalEdges:
			return fail("edge %d: id %d outside [0, %d)", i, g, totalEdges)
		case u < 0 || u >= nodes || v < 0 || v >= nodes:
			return fail("edge %d: node (%d, %d) outside [0, %d)", i, u, v, nodes)
		case partVec[u] != me && partVec[v] != me:
			return fail("edge %d: (%d, %d) touches no node of rank %d", i, u, v, me)
		}
		keptG[i], kept1[i], kept2[i] = int32(g), int32(u), int32(v)
	}
	if pos != len(block) {
		return fail("%d bytes after the last edge", len(block)-pos)
	}
	return keptG, kept1, kept2, nil
}
