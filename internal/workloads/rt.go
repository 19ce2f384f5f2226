package workloads

import (
	"fmt"
	"sync"

	"sdm"
	"sdm/internal/core"
	"sdm/internal/mesh"
	"sdm/internal/mpi"
	"sdm/internal/partition"
)

// RTConfig sizes the Rayleigh–Taylor workload. The paper wrote ~36 MB
// of node data and ~74 MB of triangle data per checkpoint for five
// checkpoints (~550 MB total); the default 48x48x48 grid scales that
// to roughly 1 MB + 0.2 MB per checkpoint, and cmd/sdmbench can grow
// it.
type RTConfig struct {
	NX, NY, NZ int
	Steps      int
	Seed       uint64
}

func (c *RTConfig) fill() {
	if c.NX == 0 {
		c.NX, c.NY, c.NZ = 48, 48, 48
	}
	if c.Steps == 0 {
		c.Steps = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// RTWorkload is a generated Rayleigh–Taylor run.
type RTWorkload struct {
	Cfg RTConfig
	RT  *mesh.RT

	// node and tri are every checkpoint's two datasets. They depend on
	// the mesh and the checkpoint time alone, and no simulated time is
	// charged for producing them, so they are synthesised once, by NewRT,
	// and shared read-only by every rank, mode and process count.
	node, tri [][]float64

	mu       sync.Mutex
	partVecs map[int][]int32
}

// NewRT generates the mesh and instability model.
func NewRT(cfg RTConfig) (*RTWorkload, error) {
	cfg.fill()
	m, err := mesh.GenerateTet(cfg.NX, cfg.NY, cfg.NZ)
	if err != nil {
		return nil, err
	}
	r := &RTWorkload{Cfg: cfg, RT: mesh.NewRT(m), partVecs: make(map[int][]int32)}
	for ts := 0; ts < cfg.Steps; ts++ {
		tm := float64(ts) * 0.5
		r.node = append(r.node, r.RT.NodeDataset(tm))
		r.tri = append(r.tri, r.RT.TriangleDataset(tm))
	}
	return r, nil
}

// PartVec returns the cached node partitioning vector for nparts.
func (r *RTWorkload) PartVec(nparts int) ([]int32, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.partVecs[nparts]; ok {
		return v, nil
	}
	m := r.RT.Mesh()
	g, err := partition.FromEdges(m.NumNodes(), m.Edge1, m.Edge2)
	if err != nil {
		return nil, err
	}
	v, err := partition.Multilevel(g, nparts, partition.Options{Seed: r.Cfg.Seed})
	if err != nil {
		return nil, err
	}
	r.partVecs[nparts] = v
	return v, nil
}

// RTMode selects the write strategy Figure 7 compares.
type RTMode int

const (
	// RTOriginal is the pre-SDM code: processes write their portions of
	// a shared file strictly one after another.
	RTOriginal RTMode = iota
	// RTLevel1 is SDM with one file per dataset per checkpoint.
	RTLevel1
	// RTLevel23 is SDM with one file per dataset, checkpoints appended.
	// Levels 2 and 3 coincide for RT because the two datasets are
	// written to separate files, as the paper notes.
	RTLevel23
)

func (m RTMode) String() string {
	switch m {
	case RTOriginal:
		return "original"
	case RTLevel1:
		return "level1"
	default:
		return "level2/3"
	}
}

// RTStats reports one Figure 7 measurement.
type RTStats struct {
	Procs    int
	TotalMB  float64
	WriteSec float64
	MBps     float64
}

// WriteBandwidth reproduces Figure 7: at every checkpoint the
// application writes one node dataset (ordered by global node number)
// and one triangle dataset (contiguous), under the selected strategy.
func (r *RTWorkload) WriteBandwidth(cl *sdm.Cluster, mode RTMode) (*RTStats, error) {
	partVec, err := r.PartVec(cl.Procs())
	if err != nil {
		return nil, err
	}
	m := r.RT.Mesh()
	nNodes := int64(m.NumNodes())
	nTris := int64(r.RT.NumTriangles())
	steps := r.Cfg.Steps
	// Rank 0 alone fills stats, read once Run has returned.
	stats := &RTStats{Procs: cl.Procs()}

	err = cl.Run(func(p *sdm.Proc) {
		level := sdm.Level2
		if mode == RTLevel1 {
			level = sdm.Level1
		}
		s, err := p.Initialize("rt", sdm.Options{Organization: level})
		if err != nil {
			panic(err)
		}
		defer func() {
			if err := s.Finalize(); err != nil {
				panic(err)
			}
		}()

		owned := s.PartitionTable(partVec)
		triMap := blockMapArray(nTris, p.Size(), p.Rank())
		triStart := int64(0)
		if len(triMap) > 0 {
			triStart = int64(triMap[0])
		}

		// Node dataset and triangle dataset live in separate groups
		// (different sizes), so level 2 and level 3 coincide: two files.
		var gn, gt *sdm.Group
		var nodeDS, triDS *sdm.Dataset[float64]
		if mode != RTOriginal {
			an := sdm.MakeDatalist("node")
			an[0].GlobalSize = nNodes
			gn, err = s.SetAttributes(an)
			if err != nil {
				panic(err)
			}
			if _, err := gn.DataView([]string{"node"}, owned); err != nil {
				panic(err)
			}
			if nodeDS, err = sdm.DatasetOf[float64](gn, "node"); err != nil {
				panic(err)
			}
			at := sdm.MakeDatalist("tri")
			at[0].GlobalSize = nTris
			gt, err = s.SetAttributes(at)
			if err != nil {
				panic(err)
			}
			if _, err := gt.DataView([]string{"tri"}, triMap); err != nil {
				panic(err)
			}
			if triDS, err = sdm.DatasetOf[float64](gt, "tri"); err != nil {
				panic(err)
			}
		}

		p.Comm.Barrier()
		t0 := p.Comm.Now()
		for ts := 0; ts < steps; ts++ {
			nodeFull, triFull := r.node[ts], r.tri[ts]
			nodeLocal := make([]float64, len(owned))
			for i, g := range owned {
				nodeLocal[i] = nodeFull[g]
			}
			triLocal := triFull[triStart : triStart+int64(len(triMap))]

			switch mode {
			case RTOriginal:
				// Sequential shared-file writes: node portions are the
				// contiguous block division the original code used.
				blockNodes := blockMapArray(nNodes, p.Size(), p.Rank())
				var bStart int64
				if len(blockNodes) > 0 {
					bStart = int64(blockNodes[0])
				}
				blockLocal := make([]float64, len(blockNodes))
				for i, g := range blockNodes {
					blockLocal[i] = nodeFull[g]
				}
				if err := core.OriginalSequentialWrite(p.Comm, cl.FS,
					rtFileName("node", ts), float64sToBytesW(blockLocal), bStart*8); err != nil {
					panic(err)
				}
				if err := core.OriginalSequentialWrite(p.Comm, cl.FS,
					rtFileName("tri", ts), float64sToBytesW(triLocal), triStart*8); err != nil {
					panic(err)
				}
			default:
				// One cross-group step per checkpoint: the node and
				// triangle datasets (two files) flush in one rendezvous,
				// issued async so the next checkpoint's data assembly
				// overlaps the outstanding flush. The pipeline manages
				// the tokens: EndStepAsync joins the previous flush
				// implicitly (depth 1), so checkpoints stream without
				// explicit token plumbing.
				if err := s.BeginStep(int64(ts)); err != nil {
					panic(err)
				}
				if err := nodeDS.Put(nodeLocal); err != nil {
					panic(err)
				}
				if err := triDS.Put(triLocal); err != nil {
					panic(err)
				}
				if _, err := s.EndStepAsync(); err != nil {
					panic(err)
				}
			}
		}
		if mode != RTOriginal {
			if err := s.DrainSteps(); err != nil {
				panic(err)
			}
		}
		p.Comm.Barrier()
		writeSec := p.Comm.AllreduceFloat64(p.Comm.Now().Sub(t0).Seconds(), mpi.OpMax)
		if p.Rank() == 0 {
			totalBytes := float64(steps) * float64(nNodes+nTris) * 8
			stats.TotalMB = totalBytes / 1e6
			stats.WriteSec = writeSec
			stats.MBps = totalBytes / 1e6 / writeSec
		}
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

func rtFileName(dataset string, ts int) string {
	return fmt.Sprintf("rt_orig_%s_%d.dat", dataset, ts)
}

// float64sToBytesW serializes values little-endian for the original
// (non-SDM) write path.
func float64sToBytesW(vals []float64) []byte {
	out := make([]byte, len(vals)*8)
	mesh.PutFloat64s(out, vals)
	return out
}
