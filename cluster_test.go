package sdm_test

import (
	"bytes"
	"strings"
	"testing"

	"sdm"
	"sdm/internal/mesh"
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
	if err := base.StageFile("uns3d.msh", bytes.NewReader(msh)); err != nil {
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
	// Encode through the public API, decode with the reference decoder.
	buf, layout, err := meshgen.EncodeMsh(m, [][]float64{m.EdgeData(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e1, _, ed, _, err := mesh.DecodeMsh(buf, layout)
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
// every rank's error must name rank 0's cause — and the job still ends
// cleanly, every rank having skipped the same collectives. Each case
// fails one rank-0 site: a missing run or dataset, or a table rank 0
// drops just before the call.
func TestCollectiveErrorsNameTheCause(t *testing.T) {
	const procs, n = 4, 8
	edges := make([]byte, 2*n*4) // two int32 edge arrays of n edges
	imports := []sdm.ImportSpec{
		{Name: "e1", Type: sdm.Integer, Length: n, Content: "INDEX"},
		{Name: "e2", Type: sdm.Integer, FileOffset: n * 4, Length: n, Content: "INDEX"},
	}
	cases := []struct {
		name string
		opts sdm.Options
		want string
		// call runs on every rank of a fresh Manager; drop removes a
		// catalog table (on rank 0, the rank that queries it).
		call func(p *sdm.Proc, s *sdm.Manager, drop func(table string)) error
	}{
		{name: "Initialize", opts: sdm.Options{AttachRun: 99}, want: "no run 99"},
		{name: "SetAttributes", want: `no such table "access_pattern_table"`,
			call: func(p *sdm.Proc, s *sdm.Manager, drop func(string)) error {
				attrs := sdm.MakeDatalist("d")
				attrs[0].GlobalSize = n
				drop("access_pattern_table")
				_, err := s.SetAttributes(attrs)
				return err
			}},
		{name: "OpenGroup", want: `dataset "missing" not registered for run 1`,
			call: func(p *sdm.Proc, s *sdm.Manager, _ func(string)) error {
				_, err := s.OpenGroup([]string{"missing"})
				return err
			}},
		{name: "EndStep", want: `no such table "execution_table"`,
			call: func(p *sdm.Proc, s *sdm.Manager, drop func(string)) error {
				attrs := sdm.MakeDatalist("d")
				attrs[0].GlobalSize = n
				g, err := s.SetAttributes(attrs)
				if err != nil {
					return err
				}
				var m []int32
				for i := p.Rank(); i < n; i += p.Size() {
					m = append(m, int32(i))
				}
				if _, err := g.DataView([]string{"d"}, m); err != nil {
					return err
				}
				d, err := sdm.DatasetOf[float64](g, "d")
				if err != nil {
					return err
				}
				if err := s.BeginStep(0); err != nil {
					return err
				}
				if err := d.Put(make([]float64, len(m))); err != nil {
					return err
				}
				drop("execution_table")
				return s.EndStep()
			}},
		{name: "PartitionIndex", want: `no such table "index_table"`,
			call: func(p *sdm.Proc, s *sdm.Manager, drop func(string)) error {
				imp, err := s.MakeImportlist("edges.bin", imports)
				if err != nil {
					return err
				}
				drop("index_table")
				_, err = s.PartitionIndex(imp, "e1", "e2", make([]int32, n))
				return err
			}},
		{name: "MakeImportlist", want: `no such table "import_table"`,
			call: func(p *sdm.Proc, s *sdm.Manager, drop func(string)) error {
				drop("import_table")
				_, err := s.MakeImportlist("edges.bin", imports)
				return err
			}},
		{name: "Annotate", want: `no such table "annotation_table"`,
			call: func(p *sdm.Proc, s *sdm.Manager, drop func(string)) error {
				drop("annotation_table")
				return s.Annotate(s.RunID(), "scope", "key", []byte("value"))
			}},
		{name: "Annotation", want: `no such table "annotation_table"`,
			call: func(p *sdm.Proc, s *sdm.Manager, drop func(string)) error {
				drop("annotation_table")
				_, err := s.Annotation(s.RunID(), "scope", "key")
				return err
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := sdm.NewCluster(sdm.ClusterConfig{Procs: procs})
			if err := cl.StageFile("edges.bin", bytes.NewReader(edges)); err != nil {
				t.Fatal(err)
			}
			var errs [procs]error
			err := cl.Run(func(p *sdm.Proc) {
				s, err := p.Initialize("errors", tc.opts)
				if err == nil {
					defer s.Finalize()
					err = tc.call(p, s, func(table string) {
						if p.Rank() != 0 {
							return
						}
						if _, err := cl.DB.Exec("DROP TABLE " + table); err != nil {
							t.Error(err)
						}
					})
				}
				errs[p.Rank()] = err
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("rank %d: %v, want an error naming %s", r, err, tc.want)
				}
			}
		})
	}
}
