package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"sdm/internal/mesh"
	"sdm/internal/obs"
	"sdm/internal/partition"
)

// A history replays only what it was computed from: the partition vector
// and the edge import it was registered under. Anything else sharing the
// paper's key (problem size, process count) is a miss, counted as a
// fallback, and the ring distribution gives each rank exactly the edges
// its vector says.

const histRanks = 3

// historySession runs one job on te: it imports the edges of file
// (staged with layout), partitions them under partVec and registers the
// result when it did not come from a history.
func historySession(t *testing.T, te *testEnv, file string, layout mesh.MshLayout, partVec []int32) [histRanks]*IndexPartition {
	t.Helper()
	var parts [histRanks]*IndexPartition
	te.run(t, Options{}, func(s *SDM) {
		imp, err := s.MakeImportlist(file, edgeSpecs(layout)[:2])
		if err != nil {
			panic(err)
		}
		ip, err := s.PartitionIndex(imp, "edge1", "edge2", partVec)
		if err != nil {
			panic(err)
		}
		parts[s.Comm().Rank()] = ip
		if !ip.FromHistory {
			if err := s.IndexRegistry(ip, layout.NumEdges, partVec); err != nil {
				panic(err)
			}
		}
	})
	return parts
}

// checkOwners fails unless every edge of (edge1, edge2) is held, with
// its own endpoints, by exactly the ranks partVec assigns its endpoints.
func checkOwners(t *testing.T, parts [histRanks]*IndexPartition, edge1, edge2, partVec []int32) {
	t.Helper()
	held := make([][histRanks]bool, len(edge1))
	for r, ip := range parts {
		for i, e := range ip.EdgeGlobal {
			if ip.Edge1G[i] != edge1[e] || ip.Edge2G[i] != edge2[e] {
				t.Fatalf("rank %d holds edge %d as (%d,%d), the mesh has (%d,%d)",
					r, e, ip.Edge1G[i], ip.Edge2G[i], edge1[e], edge2[e])
			}
			held[e][r] = true
		}
	}
	for e := range edge1 {
		for r := range histRanks {
			want := partVec[edge1[e]] == int32(r) || partVec[edge2[e]] == int32(r)
			if held[e][r] != want {
				t.Fatalf("edge %d (%d,%d): held by rank %d = %v, want %v",
					e, edge1[e], edge2[e], r, held[e][r], want)
			}
		}
	}
}

func fallbacks(reg *obs.Registry) int64 { return reg.Snapshot()["core.history-fallbacks"] }

// TestHistoryMissForAnotherPartition: a history registered under one
// partition vector is not replayed under another; the job falls back to
// the ring, re-registers the history under the same name, and the next
// job with the new vector replays it.
func TestHistoryMissForAnotherPartition(t *testing.T) {
	te := newTestEnv(histRanks)
	m, layout := stageMesh(t, te.fs, 2, 3, 2)
	reg := obs.NewRegistry()
	te.metrics = reg
	vecA := make([]int32, m.NumNodes())
	vecB := make([]int32, m.NumNodes())
	for i := range vecA {
		vecA[i] = int32((i * 7) % histRanks)
		vecB[i] = int32((i / 4) % histRanks)
	}
	historySession(t, te, "uns3d.msh", layout, vecA)
	got := historySession(t, te, "uns3d.msh", layout, vecB)
	for r, ip := range got {
		if ip.FromHistory {
			t.Fatalf("rank %d replayed vector A's history under vector B", r)
		}
	}
	checkOwners(t, got, m.Edge1, m.Edge2, vecB)
	if n := fallbacks(reg); n != 1 {
		t.Fatalf("fallbacks = %d, want 1", n)
	}
	again := historySession(t, te, "uns3d.msh", layout, vecB)
	for r, ip := range again {
		if !ip.FromHistory {
			t.Fatalf("rank %d: the history re-registered under vector B was not replayed", r)
		}
	}
	checkOwners(t, again, m.Edge1, m.Edge2, vecB)
	if n := fallbacks(reg); n != 1 {
		t.Fatalf("fallbacks = %d after the replay, want still 1", n)
	}
}

// TestHistoryMissForAnotherMesh: a second mesh with as many edges (and
// nodes, and the same file layout and size: the first with its nodes
// numbered backwards) does not replay the first mesh's history.
func TestHistoryMissForAnotherMesh(t *testing.T) {
	te := newTestEnv(histRanks)
	m, layout := stageMesh(t, te.fs, 2, 3, 2)
	n := int32(m.NumNodes())
	other := &mesh.Mesh{Coords: m.Coords, Edge1: make([]int32, m.NumEdges()), Edge2: make([]int32, m.NumEdges())}
	for e := range m.Edge1 {
		other.Edge1[e], other.Edge2[e] = n-1-m.Edge2[e], n-1-m.Edge1[e]
	}
	buf, otherLayout, err := mesh.EncodeMsh(other, [][]float64{m.EdgeData(0)}, [][]float64{m.NodeData(0)})
	if err != nil {
		t.Fatal(err)
	}
	if otherLayout != layout {
		t.Fatalf("second mesh layout %+v, want the first's %+v", otherLayout, layout)
	}
	if err := te.fs.WriteFile("other.msh", bytes.NewReader(buf)); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	te.metrics = reg
	vec := make([]int32, n)
	for i := range vec {
		vec[i] = int32((i * 7) % histRanks)
	}
	historySession(t, te, "uns3d.msh", layout, vec)
	got := historySession(t, te, "other.msh", layout, vec)
	for r, ip := range got {
		if ip.FromHistory {
			t.Fatalf("rank %d replayed the first mesh's history for the second", r)
		}
	}
	checkOwners(t, got, other.Edge1, other.Edge2, vec)
	if n := fallbacks(reg); n != 1 {
		t.Fatalf("fallbacks = %d, want 1", n)
	}
}

// backwards is m with its nodes numbered backwards: as many nodes and
// edges, the same file layout and size, other edge arrays.
func backwards(m *mesh.Mesh) *mesh.Mesh {
	n := int32(m.NumNodes())
	other := &mesh.Mesh{Coords: m.Coords, Edge1: make([]int32, m.NumEdges()), Edge2: make([]int32, m.NumEdges())}
	for e := range m.Edge1 {
		other.Edge1[e], other.Edge2[e] = n-1-m.Edge2[e], n-1-m.Edge1[e]
	}
	return other
}

// TestHistoryMissForRestagedMesh: a mesh re-staged under the same name
// with the same size — the first with its nodes numbered backwards — does
// not replay the first mesh's history: the digest covers the edge
// arrays' content, so the job is a counted miss and every edge is held
// by exactly its endpoints' owners.
func TestHistoryMissForRestagedMesh(t *testing.T) {
	te := newTestEnv(histRanks)
	m, layout := stageMesh(t, te.fs, 2, 3, 2)
	size, _ := te.fs.FileSize("uns3d.msh")
	other := backwards(m)
	buf, _, err := mesh.EncodeMsh(other, [][]float64{m.EdgeData(0)}, [][]float64{m.NodeData(0)})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(buf)) != size {
		t.Fatalf("re-staged mesh is %d B, want the first's %d", len(buf), size)
	}
	reg := obs.NewRegistry()
	te.metrics = reg
	vec := make([]int32, m.NumNodes())
	for i := range vec {
		vec[i] = int32((i * 7) % histRanks)
	}
	historySession(t, te, "uns3d.msh", layout, vec)
	if err := te.fs.WriteFile("uns3d.msh", bytes.NewReader(buf)); err != nil {
		t.Fatal(err)
	}
	got := historySession(t, te, "uns3d.msh", layout, vec)
	for r, ip := range got {
		if ip.FromHistory {
			t.Fatalf("rank %d replayed the first mesh's history for the re-staged one", r)
		}
	}
	checkOwners(t, got, other.Edge1, other.Edge2, vec)
	if n := fallbacks(reg); n != 1 {
		t.Fatalf("fallbacks = %d, want 1", n)
	}
	again := historySession(t, te, "uns3d.msh", layout, vec)
	for r, ip := range again {
		if !ip.FromHistory {
			t.Fatalf("rank %d: the history re-registered for the re-staged mesh was not replayed", r)
		}
	}
	checkOwners(t, again, other.Edge1, other.Edge2, vec)
}

// TestHistoryCompact: on a FUN3D mesh under the partitioner's vector,
// the history file holds at most four bytes per held edge, and the
// replay of what IndexRegistry wrote is exactly the ring distribution.
func TestHistoryCompact(t *testing.T) {
	const ranks = 8
	te := newTestEnv(ranks)
	m, layout := stageMesh(t, te.fs, 12, 12, 12)
	g, err := partition.FromEdges(m.NumNodes(), m.Edge1, m.Edge2)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := partition.Multilevel(g, ranks, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ring, replay [ranks]*IndexPartition
	for _, parts := range []*[ranks]*IndexPartition{&ring, &replay} {
		te.run(t, Options{}, func(s *SDM) {
			imp, err := s.MakeImportlist("uns3d.msh", edgeSpecs(layout)[:2])
			if err != nil {
				panic(err)
			}
			ip, err := s.PartitionIndex(imp, "edge1", "edge2", vec)
			if err != nil {
				panic(err)
			}
			parts[s.Comm().Rank()] = ip
			if !ip.FromHistory {
				if err := s.IndexRegistry(ip, layout.NumEdges, vec); err != nil {
					panic(err)
				}
			}
		})
	}
	var held int64
	for r := range ranks {
		a, b := ring[r], replay[r]
		if a.FromHistory || !b.FromHistory {
			t.Fatalf("rank %d: FromHistory %v then %v, want false then true", r, a.FromHistory, b.FromHistory)
		}
		for _, f := range []struct {
			name string
			a, b any
		}{
			{"EdgeGlobal", a.EdgeGlobal, b.EdgeGlobal}, {"Edge1G", a.Edge1G, b.Edge1G}, {"Edge2G", a.Edge2G, b.Edge2G},
			{"Edge1L", a.Edge1L, b.Edge1L}, {"Edge2L", a.Edge2L, b.Edge2L}, {"Nodes", a.Nodes, b.Nodes},
			{"Owned", a.Owned, b.Owned}, {"OwnedNodes", a.OwnedNodes, b.OwnedNodes},
		} {
			if !reflect.DeepEqual(f.a, f.b) {
				t.Fatalf("rank %d: replayed %s differs from the ring's", r, f.name)
			}
		}
		held += int64(a.NumEdges())
	}
	h, err := te.cat.LookupIndexHistory(nil, layout.NumEdges, ranks)
	if err != nil || h == nil {
		t.Fatalf("registered history = %+v, %v", h, err)
	}
	size, err := te.fs.FileSize(h.FileName)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(size) / float64(held)
	t.Logf("history: %d B for %d held edges, %.2f B/edge", size, held, per)
	if per > 4 {
		t.Fatalf("history holds %d B for %d held edges: %.2f B/edge, want at most 4", size, held, per)
	}
}

// TestOldHistoryReRegisteredCompact: a history registered before block
// tables existed — twelve bytes (id, u, v) per edge and no block table
// beside its digest — is a counted miss; the job re-registers it in the
// compact form, and the next job replays that.
func TestOldHistoryReRegisteredCompact(t *testing.T) {
	te := newTestEnv(histRanks)
	m, layout := stageMesh(t, te.fs, 2, 3, 2)
	reg := obs.NewRegistry()
	te.metrics = reg
	vec := make([]int32, m.NumNodes())
	for i := range vec {
		vec[i] = int32((i * 7) % histRanks)
	}
	parts := historySession(t, te, "uns3d.msh", layout, vec)

	// Rewrite the registration in the old form: the same digest, a file
	// of int32 triples, no block table.
	h, err := te.cat.LookupIndexHistory(nil, layout.NumEdges, histRanks)
	if err != nil || h == nil || h.BlockSizes == nil {
		t.Fatalf("registered history = %+v, %v; want one with a block table", h, err)
	}
	var old []byte
	for _, ip := range parts {
		for i := range ip.EdgeGlobal {
			for _, v := range []int32{ip.EdgeGlobal[i], ip.Edge1G[i], ip.Edge2G[i]} {
				old = binary.LittleEndian.AppendUint32(old, uint32(v))
			}
		}
	}
	if err := te.cat.DeleteIndexHistory(nil, h.FileName); err != nil {
		t.Fatal(err)
	}
	h.BlockSizes, h.Content = nil, ""
	if err := te.cat.RegisterIndexHistory(nil, *h); err != nil {
		t.Fatal(err)
	}
	if err := te.fs.WriteFile(h.FileName, bytes.NewReader(old)); err != nil {
		t.Fatal(err)
	}

	got := historySession(t, te, "uns3d.msh", layout, vec)
	for r, ip := range got {
		if ip.FromHistory {
			t.Fatalf("rank %d replayed a history with no block table", r)
		}
	}
	checkOwners(t, got, m.Edge1, m.Edge2, vec)
	if n := fallbacks(reg); n != 1 {
		t.Fatalf("fallbacks = %d, want 1", n)
	}
	h, err = te.cat.LookupIndexHistory(nil, layout.NumEdges, histRanks)
	if err != nil || h == nil || len(h.BlockSizes) != histRanks {
		t.Fatalf("re-registered history = %+v, %v; want a block table", h, err)
	}
	var edges int64
	for _, n := range h.EdgeSizes {
		edges += n
	}
	if size, _ := te.fs.FileSize(h.FileName); size >= 12*edges {
		t.Fatalf("re-registered history is %d B for %d edges, want the compact form", size, edges)
	}
	for r, ip := range historySession(t, te, "uns3d.msh", layout, vec) {
		if !ip.FromHistory {
			t.Fatalf("rank %d: the re-registered history was not replayed", r)
		}
	}
}

// Block decoder fixtures: rank 1 of three over 64 nodes, 200 edges.
const (
	blockRank  = 1
	blockEdges = 200
)

var blockVec = func() []int32 {
	v := make([]int32, 64)
	for i := range v {
		v[i] = int32(i % 3)
	}
	return v
}()

// blockOf encodes (id, u, v) triples as a history block.
func blockOf(edges ...[3]int32) []byte {
	ip := &IndexPartition{}
	for _, e := range edges {
		ip.EdgeGlobal = append(ip.EdgeGlobal, e[0])
		ip.Edge1G = append(ip.Edge1G, e[1])
		ip.Edge2G = append(ip.Edge2G, e[2])
	}
	return encodeHistoryBlock(ip)
}

// blockSeeds are a valid block and one of each way a block is refused.
var blockSeeds = []struct {
	name  string
	block []byte
	edges int64
}{
	{"valid", blockOf([3]int32{5, 1, 2}, [3]int32{6, 1, 4}, [3]int32{150, 40, 3}, [3]int32{2, 7, 8}), 4},
	{"truncated", blockOf([3]int32{5, 1, 2}, [3]int32{150, 40, 3})[:6], 2},
	{"truncated varint", append(blockOf([3]int32{5, 1, 2}), 0x80, 0x80, 0x80), 2},
	{"overlong varint", []byte{0x0a, 0x82, 0x00, 0x02}, 1},
	{"varint past 64 bits", append([]byte{0x0a, 0x02}, bytes.Repeat([]byte{0xff}, 11)...), 1},
	{"id out of range", blockOf([3]int32{blockEdges, 1, 2}), 1},
	{"negative id", blockOf([3]int32{-1, 1, 2}), 1},
	{"node out of range", blockOf([3]int32{5, 1, 64}), 1},
	{"foreign edge", blockOf([3]int32{5, 0, 3}), 1},
	{"bytes left over", append(blockOf([3]int32{5, 1, 2}), 0), 1},
	{"too many edges", blockOf([3]int32{5, 1, 2}), 2},
}

func zip3(g, u, v []int32) [][3]int32 {
	out := make([][3]int32, len(g))
	for i := range g {
		out[i] = [3]int32{g[i], u[i], v[i]}
	}
	return out
}

// FuzzHistoryBlock: the block decoder is total. Whatever the bytes and
// the edge count, it returns an errHistoryBlock or edges that lie in
// range, touch the rank, and re-encode to exactly the block — so each
// refused seed fails the target if it is accepted.
func FuzzHistoryBlock(f *testing.F) {
	for _, sd := range blockSeeds {
		f.Add(sd.block, sd.edges)
	}
	f.Fuzz(func(t *testing.T, block []byte, edges int64) {
		g, u, v, err := decodeHistoryBlock(block, edges, blockEdges, blockVec, blockRank)
		if err != nil {
			if !errors.Is(err, errHistoryBlock) {
				t.Fatalf("error %v is not an errHistoryBlock", err)
			}
			return
		}
		if int64(len(g)) != edges {
			t.Fatalf("decoded %d edges, want %d", len(g), edges)
		}
		nodes := int32(len(blockVec))
		for i := range g {
			if g[i] < 0 || g[i] >= blockEdges || u[i] < 0 || u[i] >= nodes || v[i] < 0 || v[i] >= nodes ||
				(blockVec[u[i]] != blockRank && blockVec[v[i]] != blockRank) {
				t.Fatalf("edge %d = (%d: %d, %d) accepted", i, g[i], u[i], v[i])
			}
		}
		if got := blockOf(zip3(g, u, v)...); !bytes.Equal(got, block) {
			t.Fatalf("decoded edges re-encode to %x, want %x", got, block)
		}
	})
}
