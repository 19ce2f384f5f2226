package sdm_test

import (
	"strings"
	"testing"

	"sdm"
	"sdm/meshgen"
	"sdm/partitioner"
)

func TestClusterDefaults(t *testing.T) {
	cl := sdm.NewCluster(sdm.ClusterConfig{})
	if cl.Procs() != 4 {
		t.Fatalf("default procs = %d", cl.Procs())
	}
	if cl.FS == nil || cl.DB == nil || cl.Catalog == nil || cl.World == nil {
		t.Fatal("cluster parts missing")
	}
}

func TestClusterRoundTripThroughPublicAPI(t *testing.T) {
	cl := sdm.NewCluster(sdm.ClusterConfig{Procs: 3})
	const globalN = 30
	err := cl.Run(func(p *sdm.Proc) {
		s, err := p.Initialize("facade", sdm.Options{Organization: sdm.Level2})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		attrs := sdm.MakeDatalist("d")
		attrs[0].GlobalSize = globalN
		g, err := s.SetAttributes(attrs)
		if err != nil {
			t.Error(err)
			return
		}
		var m []int32
		for i := p.Rank(); i < globalN; i += p.Size() {
			m = append(m, int32(i))
		}
		if _, err := g.DataView([]string{"d"}, m); err != nil {
			t.Error(err)
			return
		}
		vals := make([]float64, len(m))
		for i, gi := range m {
			vals[i] = float64(gi) * 2
		}
		d, err := sdm.DatasetOf[float64](g, "d")
		if err != nil {
			t.Error(err)
			return
		}
		if err := d.PutAt(5, vals); err != nil {
			t.Error(err)
			return
		}
		got := make([]float64, len(m))
		if err := d.GetAt(5, got); err != nil {
			t.Error(err)
			return
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Errorf("rank %d: element %d mismatch", p.Rank(), i)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Elapsed() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if len(cl.ListFiles()) != 1 {
		t.Fatalf("files = %v", cl.ListFiles())
	}
}

func TestAttachStorageSharesHistoryAcrossClusters(t *testing.T) {
	m, err := meshgen.GenerateTet(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	msh, layout, err := meshgen.EncodeMsh(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := partitioner.FromEdges(m.NumNodes(), m.Edge1, m.Edge2)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := partitioner.Multilevel(g, 4, partitioner.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	base := sdm.NewCluster(sdm.ClusterConfig{Procs: 4})
	if err := base.StageFile("uns3d.msh", msh); err != nil {
		t.Fatal(err)
	}
	runOnce := func(cl *sdm.Cluster) (fromHist bool) {
		err := cl.Run(func(p *sdm.Proc) {
			s, err := p.Initialize("attach", sdm.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Finalize()
			imp, err := s.MakeImportlist("uns3d.msh", []sdm.ImportSpec{
				{Name: "edge1", Type: sdm.Integer, FileOffset: layout.Edge1Offset(), Length: layout.NumEdges, Content: "INDEX"},
				{Name: "edge2", Type: sdm.Integer, FileOffset: layout.Edge2Offset(), Length: layout.NumEdges, Content: "INDEX"},
			})
			if err != nil {
				t.Error(err)
				return
			}
			ip, err := s.PartitionIndex(imp, "edge1", "edge2", vec)
			if err != nil {
				t.Error(err)
				return
			}
			if p.Rank() == 0 {
				fromHist = ip.FromHistory
			}
			if !ip.FromHistory {
				if err := s.IndexRegistry(ip, layout.NumEdges, vec); err != nil {
					t.Error(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return fromHist
	}
	if runOnce(base) {
		t.Fatal("cold run found phantom history")
	}
	// A second cluster attached to the same storage sees the history.
	second := sdm.NewCluster(sdm.ClusterConfig{Procs: 4})
	second.AttachStorage(base)
	if !runOnce(second) {
		t.Fatal("attached cluster did not find the history")
	}
}

func TestOrigin2000Config(t *testing.T) {
	cfg := sdm.Origin2000Config(64)
	if cfg.Procs != 64 {
		t.Fatalf("procs = %d", cfg.Procs)
	}
	if cfg.Storage.NumServers != 10 {
		t.Fatalf("servers = %d; the paper's platform had 10 FC controllers", cfg.Storage.NumServers)
	}
	if cfg.Network.Bandwidth <= 0 || cfg.Network.Latency <= 0 {
		t.Fatal("network profile empty")
	}
}

func TestPublicMeshgenAndPartitioner(t *testing.T) {
	m, err := meshgen.GenerateTet(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Sweep through the public API.
	p, q := meshgen.SweepSerial(m.Edge1, m.Edge2, m.EdgeData(0), m.NodeData(0), m.NumNodes())
	if len(p) != m.NumNodes() || len(q) != m.NumNodes() {
		t.Fatal("sweep result sizes wrong")
	}
	// Encode/decode through the public API.
	buf, layout, err := meshgen.EncodeMsh(m, [][]float64{m.EdgeData(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e1, _, ed, _, err := meshgen.DecodeMsh(buf, layout)
	if err != nil || len(e1) != m.NumEdges() || len(ed) != 1 {
		t.Fatalf("decode: %v", err)
	}
	// RT through the public API.
	rt := meshgen.NewRT(m)
	if rt.NumTriangles() == 0 || len(rt.NodeDataset(0)) != m.NumNodes() {
		t.Fatal("RT datasets wrong")
	}
	// Partitioner baselines.
	if v := partitioner.Block(10, 2); len(v) != 10 {
		t.Fatal("block vector wrong")
	}
	if v := partitioner.Random(10, 2, 1); v.Validate(2) != nil {
		t.Fatal("random vector invalid")
	}
}

// TestCollectiveErrorsNameTheCause: Initialize and every catalog call
// do their database work on rank 0 and fail on every rank with it, so
// every rank's error must name rank 0's cause.
func TestCollectiveErrorsNameTheCause(t *testing.T) {
	const procs = 4
	cl := sdm.NewCluster(sdm.ClusterConfig{Procs: procs})
	var attach, register [procs]error
	err := cl.Run(func(p *sdm.Proc) {
		_, attach[p.Rank()] = p.Initialize("attach", sdm.Options{AttachRun: 99})
		s, err := p.Initialize("register", sdm.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		attrs := sdm.MakeDatalist("d")
		attrs[0].GlobalSize = 8
		if p.Rank() == 0 {
			if _, err := cl.DB.Exec("DROP TABLE access_pattern_table"); err != nil {
				t.Error(err)
			}
		}
		_, register[p.Rank()] = s.SetAttributes(attrs)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range procs {
		if attach[r] == nil || !strings.Contains(attach[r].Error(), "no run 99") {
			t.Errorf("rank %d: Initialize attaching to a missing run returned %v, want the missing run named", r, attach[r])
		}
		if register[r] == nil || !strings.Contains(register[r].Error(), "access_pattern_table") {
			t.Errorf("rank %d: registering into a dropped table returned %v, want the table named", r, register[r])
		}
	}
}
