package core

import (
	"bytes"
	"testing"

	"sdm/internal/mesh"
	"sdm/internal/obs"
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
