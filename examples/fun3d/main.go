// Command fun3d walks through the paper's Figures 1-3 end to end on a
// synthetic tetrahedral mesh: import an externally created uns3d.msh
// file, partition the edges with a MeTis-style partitioning vector,
// distribute the edge and node data through irregular views, sweep over
// the edges, and write the results p and q to global files ordered by
// global node number — then verify the files against a serial sweep.
//
// Run with:
//
//	go run ./examples/fun3d [-nx 16] [-procs 8] [-level 3]
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math"

	"sdm"
	"sdm/internal/server"
	"sdm/meshgen"
	"sdm/partitioner"
)

func main() {
	nx := flag.Int("nx", 16, "mesh grid cells per dimension")
	procs := flag.Int("procs", 8, "simulated process count")
	level := flag.Int("level", 3, "file organization level (1, 2, or 3)")
	steps := flag.Int("steps", 2, "time steps (checkpoint every step)")
	flag.Parse()

	// ----- The data "created outside of SDM": mesh + physical fields.
	m, err := meshgen.GenerateTet(*nx, *nx, *nx)
	if err != nil {
		log.Fatal(err)
	}
	x := m.EdgeData(0) // one array attached to edges
	y := m.NodeData(0) // one array attached to nodes
	msh, layout, err := meshgen.EncodeMsh(m, [][]float64{x}, [][]float64{y})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %d nodes, %d edges; uns3d.msh is %.1f MB\n",
		m.NumNodes(), m.NumEdges(), float64(len(msh))/1e6)

	// ----- The partitioning vector ("assume a partitioning vector
	// already resides in processor memory", generated by MeTis).
	graph, err := partitioner.FromEdges(m.NumNodes(), m.Edge1, m.Edge2)
	if err != nil {
		log.Fatal(err)
	}
	partVec, err := partitioner.Multilevel(graph, *procs, partitioner.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioning: edge cut %d, balance %.3f\n",
		partitioner.EdgeCut(graph, partVec), partitioner.Balance(graph, partVec, *procs))

	cluster := sdm.NewCluster(sdm.Origin2000Config(*procs))
	if err := cluster.StageFile("uns3d.msh", bytes.NewReader(msh)); err != nil {
		log.Fatal(err)
	}

	err = cluster.Run(func(p *sdm.Proc) {
		s, err := p.Initialize("fun3d", sdm.Options{
			Organization: sdm.FileOrganization(*level),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer s.Finalize()

		// Figure 2: register the result data group.
		result := sdm.MakeDatalist("p", "q")
		for i := range result {
			result[i].GlobalSize = int64(m.NumNodes())
		}
		group, err := s.SetAttributes(result)
		if err != nil {
			log.Fatal(err)
		}

		// Figure 3: import and partition.
		imp, err := s.MakeImportlist("uns3d.msh", []sdm.ImportSpec{
			{Name: "edge1", Type: sdm.Integer, FileOffset: layout.Edge1Offset(), Length: layout.NumEdges, Content: "INDEX"},
			{Name: "edge2", Type: sdm.Integer, FileOffset: layout.Edge2Offset(), Length: layout.NumEdges, Content: "INDEX"},
			{Name: "x", Type: sdm.Double, FileOffset: layout.EdgeDataOffset(0), Length: layout.NumEdges},
			{Name: "y", Type: sdm.Double, FileOffset: layout.NodeDataOffset(0), Length: layout.NumNodes},
		})
		if err != nil {
			log.Fatal(err)
		}
		ip, err := s.PartitionIndex(imp, "edge1", "edge2", partVec)
		if err != nil {
			log.Fatal(err)
		}
		// SDM_index_registry: remember this distribution for later runs.
		if !ip.FromHistory {
			if err := s.IndexRegistry(ip, layout.NumEdges, partVec); err != nil {
				log.Fatal(err)
			}
		}

		// Distribute x by the partitioned edges, y by the partitioned
		// nodes (SDM_data_view + SDM_import): both arrays are queued on
		// one import epoch, so their collectives overlap.
		xv, err := sdm.NewView(ip.EdgeGlobal, sdm.Double, layout.NumEdges)
		if err != nil {
			log.Fatal(err)
		}
		yv, err := sdm.NewView(ip.Nodes, sdm.Double, layout.NumNodes)
		if err != nil {
			log.Fatal(err)
		}
		xh, err := imp.QueueView("x", xv)
		if err != nil {
			log.Fatal(err)
		}
		yh, err := imp.QueueView("y", yv)
		if err != nil {
			log.Fatal(err)
		}
		if err := imp.Flush(); err != nil {
			log.Fatal(err)
		}
		xl, yl := xh.Float64s(), yh.Float64s()
		if err := imp.Release(); err != nil {
			log.Fatal(err)
		}
		if p.Rank() == 0 {
			fmt.Printf("rank 0: %d local edges (%d ghosts possible), %d local nodes\n",
				ip.NumEdges(), ip.NumEdges(), ip.NumNodes())
		}

		// Results are written per owned node, ordered by global number.
		if _, err := group.DataView([]string{"p", "q"}, ip.OwnedNodes); err != nil {
			log.Fatal(err)
		}
		dsP, err := sdm.DatasetOf[float64](group, "p")
		if err != nil {
			log.Fatal(err)
		}
		dsQ, err := sdm.DatasetOf[float64](group, "q")
		if err != nil {
			log.Fatal(err)
		}

		var tok *sdm.StepToken
		for ts := 1; ts <= *steps; ts++ {
			// "Do computation and produce results p and q." The previous
			// checkpoint's flush is still in flight here — its token is
			// waited only when the next checkpoint needs the file — so
			// the sweep overlaps the I/O, the split-collective version
			// of the paper's asynchronous history write.
			pl, ql := meshgen.SweepLocal(ip.Edge1L, ip.Edge2L, xl, yl, ip.Owned)
			pOwned := make([]float64, 0, len(ip.OwnedNodes))
			qOwned := make([]float64, 0, len(ip.OwnedNodes))
			for i := range ip.Nodes {
				if ip.Owned[i] {
					pOwned = append(pOwned, pl[i])
					qOwned = append(qOwned, ql[i])
				}
			}
			if tok != nil {
				if err := tok.Wait(); err != nil {
					log.Fatal(err)
				}
			}
			// Checkpoint: the whole timestep is one deferred step, so
			// both flow variables flush in a single merged collective.
			if err := s.BeginStep(int64(ts)); err != nil {
				log.Fatal(err)
			}
			if err := dsP.Put(pOwned); err != nil {
				log.Fatal(err)
			}
			if err := dsQ.Put(qOwned); err != nil {
				log.Fatal(err)
			}
			if tok, err = s.EndStepAsync(); err != nil {
				log.Fatal(err)
			}
		}
		if tok != nil {
			if err := tok.Wait(); err != nil {
				log.Fatal(err)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// ----- Verify the final global file against the serial sweep.
	pRef, _ := meshgen.SweepSerial(m.Edge1, m.Edge2, x, y, m.NumNodes())
	// Read it the way any later reader of the run would: by name, through
	// the execution table.
	raw, err := server.Source{Catalog: cluster.Catalog, FS: cluster.FS}.ReadDataset(1, "p", int64(*steps))
	if err != nil {
		log.Fatalf("final checkpoint: %v", err)
	}
	maxErr := 0.0
	for g := 0; g < m.NumNodes(); g++ {
		bits := binary.LittleEndian.Uint64(raw[g*8:])
		diff := math.Abs(math.Float64frombits(bits) - pRef[g])
		if diff > maxErr {
			maxErr = diff
		}
	}
	fmt.Printf("verification: max |p_parallel - p_serial| = %.2e over %d nodes\n",
		maxErr, m.NumNodes())
	if maxErr > 1e-9 {
		log.Fatal("verification FAILED")
	}
	fmt.Printf("files: %v\n", cluster.ListFiles())
	fmt.Printf("virtual time: %v\n", cluster.Elapsed())
}
