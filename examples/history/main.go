// Command history demonstrates SDM's history-file optimization across
// application runs: the first run pays the full ring-oriented index
// distribution and registers it (SDM_index_registry); the second run —
// same problem size, same process count — finds the history in
// index_table and replays the partition with a contiguous read. A third
// run on a different process count shows the documented limitation: the
// history cannot be reused, and SDM falls back to the ring.
//
// Run with:
//
//	go run ./examples/history [-nx 20] [-procs 8]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"

	"sdm"
	"sdm/meshgen"
	"sdm/partitioner"
)

func main() {
	nx := flag.Int("nx", 20, "mesh grid cells per dimension")
	procs := flag.Int("procs", 8, "simulated process count for runs 1 and 2")
	flag.Parse()

	m, err := meshgen.GenerateTet(*nx, *nx, *nx)
	if err != nil {
		log.Fatal(err)
	}
	msh, layout, err := meshgen.EncodeMsh(m, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %d nodes, %d edges\n", m.NumNodes(), m.NumEdges())

	graph, err := partitioner.FromEdges(m.NumNodes(), m.Edge1, m.Edge2)
	if err != nil {
		log.Fatal(err)
	}

	// One cluster persists across "runs": its file system holds the
	// mesh and history files, its database the metadata — the role of
	// the machine's disks and MySQL instance between job submissions.
	cluster := sdm.NewCluster(sdm.Origin2000Config(*procs))
	if err := cluster.StageFile("uns3d.msh", bytes.NewReader(msh)); err != nil {
		log.Fatal(err)
	}

	runOnce := func(label string, nprocs int) {
		partVec, err := partitioner.Multilevel(graph, nprocs, partitioner.Options{Seed: 5})
		if err != nil {
			log.Fatal(err)
		}
		// Reuse the same storage and metadata, but a fresh set of
		// processes — possibly a different number of them.
		world := sdm.NewCluster(sdm.Origin2000Config(nprocs))
		world.AttachStorage(cluster)

		err = world.Run(func(p *sdm.Proc) {
			// Level-1 (file-per-timestep) output with a 4-deep step
			// pipeline: each checkpoint lands in its own file, so up to 4
			// asynchronous flushes stay in flight back-to-back.
			s, err := p.Initialize("historydemo", sdm.Options{
				Organization:      sdm.Level1,
				StepPipelineDepth: 4,
			})
			if err != nil {
				log.Fatal(err)
			}
			defer s.Finalize()
			imp, err := s.MakeImportlist("uns3d.msh", []sdm.ImportSpec{
				{Name: "edge1", Type: sdm.Integer, FileOffset: layout.Edge1Offset(), Length: layout.NumEdges, Content: "INDEX"},
				{Name: "edge2", Type: sdm.Integer, FileOffset: layout.Edge2Offset(), Length: layout.NumEdges, Content: "INDEX"},
			})
			if err != nil {
				log.Fatal(err)
			}
			t0 := p.Comm.Now()
			ip, err := s.PartitionIndex(imp, "edge1", "edge2", partVec)
			if err != nil {
				log.Fatal(err)
			}
			elapsed := p.Comm.Now().Sub(t0)
			if !ip.FromHistory {
				if err := s.IndexRegistry(ip, layout.NumEdges, partVec); err != nil {
					log.Fatal(err)
				}
			}
			// Stream the run's result checkpoints through the async
			// split-collective step API: every timestep writes its own
			// level-1 file, so the 4-deep pipeline keeps several flushes
			// in flight at once — BeginStep opens the next step while
			// earlier tokens are still outstanding, and EndStepAsync
			// joins only what the depth bound (or a file conflict)
			// requires. Finalize drains whatever is still in flight —
			// the same pattern as SDM's asynchronous history-file write
			// above, generalized to the whole checkpoint stream.
			const checkpoints = 4
			res := sdm.MakeDatalist("p")
			res[0].GlobalSize = int64(m.NumNodes())
			gr, err := s.SetAttributes(res)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := gr.DataView([]string{"p"}, ip.OwnedNodes); err != nil {
				log.Fatal(err)
			}
			dp, err := sdm.DatasetOf[float64](gr, "p")
			if err != nil {
				log.Fatal(err)
			}
			vals := make([]float64, len(ip.OwnedNodes))
			for ts := int64(1); ts <= checkpoints; ts++ {
				for i, g := range ip.OwnedNodes {
					vals[i] = float64(g) + float64(ts)
				}
				if err := s.BeginStep(ts); err != nil {
					log.Fatal(err)
				}
				if err := dp.Put(vals); err != nil {
					log.Fatal(err)
				}
				if _, err := s.EndStepAsync(); err != nil {
					log.Fatal(err)
				}
			}
			if p.Rank() == 0 {
				src := "ring distribution"
				if ip.FromHistory {
					src = "history file"
				}
				fmt.Printf("%-28s procs=%-3d partition via %-17s in %8v (local edges: %d)\n",
					label, nprocs, src, elapsed, ip.NumEdges())
			}
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	runOnce("run 1 (cold)", *procs)
	runOnce("run 2 (history hit)", *procs)
	runOnce("run 3 (different procs)", *procs/2)
	runOnce("run 4 (history hit again)", *procs/2)

	hists, err := cluster.Catalog.Histories(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nindex_table now holds:")
	for _, h := range hists {
		fmt.Printf("  problem_size=%d nprocs=%d file=%s\n", h.ProblemSize, h.NProcs, h.FileName)
	}
}
