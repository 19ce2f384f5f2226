package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

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

// historyDigest names what a partition of the edge arrays e1 and e2 of
// imp is computed from: the partition vector, and the edge import's
// identity — the file's name and staged size, each array's offset and
// length. The paper keys a history on problem size and process count
// alone; a history replays only under the same digest, so another
// partition vector, or another mesh with as many edges, is a miss rather
// than another partition's edges.
func historyDigest(imp *Importer, e1, e2 ImportSpec, partVec []int32) string {
	h := sha256.New()
	fmt.Fprintf(h, "%q %d %d %d %d %d %d\n", imp.fileName, imp.size,
		e1.FileOffset, e1.Length, e2.FileOffset, e2.Length, len(partVec))
	h.Write(int32sToBytes(partVec))
	return hex.EncodeToString(h.Sum(nil))
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
	var digest string // only rank 0 asks the catalog
	if s.env.Comm.Rank() == 0 {
		digest = historyDigest(imp, sp1, sp2, partVec)
	}

	hist, err := s.lookupHistory(totalEdges, digest)
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

// lookupHistory checks index_table for a usable history (rank 0
// queries, result broadcast). A registered history computed from other
// inputs than digest names (a history registered without a digest
// included), or whose file fails historyIntact, is invalidated — its
// rows deleted and its file removed (uncharged, like the size check), so
// the caller's IndexRegistry creates the same file name afresh, at its
// own length and layout, rather than writing over a stale one in place —
// counted in core.history-fallbacks, and reported as a miss. The
// decision is rank 0's alone and travels in the broadcast, so every rank
// takes the same collective branch.
//
// The digest check costs no virtual time: the digest travels in the rows
// LookupIndexHistory already reads in its one charged call, and hashing
// the vector is host work on rank 0, unpriced like historyIntact's size
// query.
func (s *SDM) lookupHistory(totalEdges int64, digest string) (*catalog.IndexHistory, error) {
	return onRoot(s, "core: history lookup", func(clk *sim.Clock) (*catalog.IndexHistory, int64, error) {
		h, err := s.env.Catalog.LookupIndexHistory(clk, totalEdges, int64(s.env.Comm.Size()))
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
}

// historyIntact reports whether a registered history can be replayed:
// it must describe this communicator, and its file must hold exactly
// the registered edges. Collective reads zero-fill past EOF, so a
// truncated, half-written, or missing history file would otherwise
// load as a partition of (0,0,0) edges with no error. The check is a
// local size query — no virtual-time charge.
func (s *SDM) historyIntact(hist *catalog.IndexHistory) bool {
	if len(hist.EdgeSizes) != s.env.Comm.Size() {
		return false
	}
	var edges int64
	for _, n := range hist.EdgeSizes {
		edges += n
	}
	size, err := s.env.FS.FileSize(hist.FileName)
	return err == nil && size == edges*12
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
// edge list.
func (s *SDM) buildPartition(keptG, kept1, kept2 []int32, partVec []int32) *IndexPartition {
	me := int32(s.env.Comm.Rank())
	present := make(map[int32]bool, len(kept1)*2)
	for i := range kept1 {
		present[kept1[i]] = true
		present[kept2[i]] = true
	}
	// Owned nodes come from the partitioning vector; a rank can own
	// isolated nodes that no local edge touches.
	var nodes []int32
	for node, r := range partVec {
		if r == me || present[int32(node)] {
			nodes = append(nodes, int32(node))
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	owned := make([]bool, len(nodes))
	var ownedNodes []int32
	g2l := make(map[int32]int32, len(nodes))
	for i, n := range nodes {
		g2l[n] = int32(i)
		owned[i] = partVec[n] == me
		if owned[i] {
			ownedNodes = append(ownedNodes, n)
		}
	}
	e1l := make([]int32, len(kept1))
	e2l := make([]int32, len(kept2))
	for i := range kept1 {
		e1l[i] = g2l[kept1[i]]
		e2l[i] = g2l[kept2[i]]
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
// The history file is laid out like a group's step (stripeUnit): the
// replay reads all of it in one collective, so its whole extent,
// 12·ΣEdgeSizes bytes, is spread evenly over the servers, in rows of
// NumServers stripes under the file system's default unit. Its first
// stripe is where its name hash puts it, as for any one-file placement.
func (s *SDM) IndexRegistry(ip *IndexPartition, totalEdges int64, partVec []int32) error {
	c := s.env.Comm
	edgeCounts := mpi.AllgatherSlice(c, []int64{int64(ip.NumEdges())})
	nodeCounts := mpi.AllgatherSlice(c, []int64{int64(ip.NumNodes())})
	var myOff, edges int64
	edgeSizes := make([]int64, c.Size())
	nodeSizes := make([]int64, c.Size())
	for r := 0; r < c.Size(); r++ {
		edgeSizes[r] = edgeCounts[r][0]
		nodeSizes[r] = nodeCounts[r][0]
		edges += edgeSizes[r]
		if r < c.Rank() {
			myOff += edgeCounts[r][0]
		}
	}

	name := s.historyFileName(totalEdges)
	cur := mpiio.NewCursor(c, s.env.FS)
	h, err := s.env.FS.Create(name, s.stripeUnit(edges*12), cur.Next(name, 0, 0).Server, c.Clock())
	if err != nil {
		return err
	}
	// Serialize this rank's block: gid, u, v per edge.
	rec := make([]int32, 0, ip.NumEdges()*3)
	for i := range ip.EdgeGlobal {
		rec = append(rec, ip.EdgeGlobal[i], ip.Edge1G[i], ip.Edge2G[i])
	}
	payload := int32sToBytes(rec)
	c.ComputeItems(int64(len(payload)), memCopyRate)
	// Asynchronous write, on a sub-timeline forked here: the server is
	// scheduled now, the rank goes on from the fork point, and Finalize
	// joins the completion.
	fork := c.Now()
	if _, err := h.WriteAtVec(payload, []pfs.Extent{{Off: myOff * 12, Len: int64(len(payload))}}); err != nil {
		return err
	}
	s.asyncDone = append(s.asyncDone, c.Now())
	c.Clock().Rebase(fork)
	if err := h.Close(); err != nil {
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
		})
	})
}

// loadIndexHistory reconstructs the partition from a history file: a
// contiguous collective read of each rank's pre-partitioned block plus
// a local pass to rebuild node sets — no ring communication, no
// full-mesh scan.
func (s *SDM) loadIndexHistory(hist *catalog.IndexHistory, partVec []int32) (*IndexPartition, error) {
	c := s.env.Comm
	t0 := c.Now()
	var myOff int64
	for r := 0; r < c.Rank(); r++ {
		myOff += hist.EdgeSizes[r]
	}
	myEdges := hist.EdgeSizes[c.Rank()]
	h, err := mpiio.Open(c, s.env.FS, hist.FileName, pfs.ReadOnly, s.opts.Hints)
	if err != nil {
		return nil, fmt.Errorf("core: history file missing: %w", err)
	}
	h.UseScratch(&s.scratch)
	buf := make([]byte, myEdges*12)
	if err := h.ReadAtAllOps([]mpiio.BatchOp{{Off: myOff * 12, Data: buf}}); err != nil {
		return nil, fmt.Errorf("core: reading history: %w", err)
	}
	if err := h.Close(); err != nil {
		return nil, err
	}
	rec := bytesToInt32s(buf)
	keptG := make([]int32, myEdges)
	kept1 := make([]int32, myEdges)
	kept2 := make([]int32, myEdges)
	for i := int64(0); i < myEdges; i++ {
		keptG[i] = rec[i*3]
		kept1[i] = rec[i*3+1]
		kept2[i] = rec[i*3+2]
	}
	ip := s.buildPartition(keptG, kept1, kept2, partVec)
	ip.FromHistory = true
	ip.DistributeTime = c.Now().Sub(t0)
	return ip, nil
}
