// Package workloads builds the paper's two benchmark applications on
// top of the public SDM API: the FUN3D-like tetrahedral CFD template
// (Figures 5 and 6) and the Rayleigh–Taylor instability template
// (Figure 7). The examples, the benchmark suite, and cmd/sdmbench all
// drive these implementations so measured numbers always come from the
// same code paths.
package workloads

import (
	"fmt"
	"sync"

	"sdm"
	"sdm/internal/core"
	"sdm/internal/mesh"
	"sdm/internal/mpi"
	"sdm/internal/partition"
	"sdm/internal/sim"
)

// FUN3DConfig sizes the CFD workload. The paper used 18M edges and 2M
// nodes; the default 40x40x40 grid (~480k edges, ~69k nodes) preserves
// the access patterns at laptop scale, and flags in cmd/sdmbench scale
// it up.
type FUN3DConfig struct {
	NX, NY, NZ int
	// EdgeArrays and NodeArrays are the per-edge and per-node double
	// arrays imported alongside the edges (the paper imports four of
	// each).
	EdgeArrays int
	NodeArrays int
	// Seed drives the graph partitioner.
	Seed uint64
}

func (c *FUN3DConfig) fill() {
	if c.NX == 0 {
		c.NX, c.NY, c.NZ = 40, 40, 40
	}
	if c.EdgeArrays == 0 {
		c.EdgeArrays = 4
	}
	if c.NodeArrays == 0 {
		c.NodeArrays = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// FUN3D is a generated CFD workload: the mesh, its msh-file layout, and
// cached partitioning vectors.
type FUN3D struct {
	Cfg    FUN3DConfig
	Mesh   *mesh.Mesh
	Layout mesh.MshLayout

	mu       sync.Mutex
	partVecs map[int][]int32
}

// MshFileName is the staged mesh file's name, matching the paper.
const MshFileName = "uns3d.msh"

// NewFUN3D generates the mesh and its data arrays. The mesh comes from
// the streamed edge generator: FUN3D consumes edges and nodes, never
// the tetrahedra, so paper-scale grids (nx=128, ~15M edges) skip the
// tet array entirely.
func NewFUN3D(cfg FUN3DConfig) (*FUN3D, error) {
	cfg.fill()
	m, err := mesh.GenerateTetEdges(cfg.NX, cfg.NY, cfg.NZ)
	if err != nil {
		return nil, err
	}
	f := &FUN3D{Cfg: cfg, Mesh: m, partVecs: make(map[int][]int32)}
	f.Layout = f.msh().Layout()
	return f, nil
}

// msh is the mesh file: the edges, then the configured data arrays,
// each synthesized when it is written.
func (f *FUN3D) msh() mesh.Msh {
	return mesh.Msh{
		Mesh: f.Mesh, EdgeArrays: f.Cfg.EdgeArrays, NodeArrays: f.Cfg.NodeArrays,
		EdgeData: f.Mesh.EdgeData, NodeData: f.Mesh.NodeData,
	}
}

// Stage places the mesh file in the cluster's file system as
// externally created input. It encodes the file straight into place,
// one data array at a time, and keeps nothing: each call synthesizes
// the data arrays again.
func (f *FUN3D) Stage(cl *sdm.Cluster) error {
	return cl.StageFile(MshFileName, f.msh())
}

// PartVec returns (and caches) the MeTis-style partitioning vector for
// nparts, computed by the multilevel partitioner. Per the paper it is
// assumed to be replicated in memory before SDM runs.
func (f *FUN3D) PartVec(nparts int) ([]int32, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := f.partVecs[nparts]; ok {
		return v, nil
	}
	g, err := partition.FromEdges(f.Mesh.NumNodes(), f.Mesh.Edge1, f.Mesh.Edge2)
	if err != nil {
		return nil, err
	}
	v, err := partition.Multilevel(g, nparts, partition.Options{Seed: f.Cfg.Seed})
	if err != nil {
		return nil, err
	}
	f.partVecs[nparts] = v
	return v, nil
}

// ImportSpecs builds the import list for the staged mesh file: the two
// edge index arrays plus the configured data arrays.
func (f *FUN3D) ImportSpecs() []sdm.ImportSpec {
	specs := []sdm.ImportSpec{
		{Name: "edge1", Type: sdm.Integer, FileOffset: f.Layout.Edge1Offset(), Length: f.Layout.NumEdges, Content: "INDEX"},
		{Name: "edge2", Type: sdm.Integer, FileOffset: f.Layout.Edge2Offset(), Length: f.Layout.NumEdges, Content: "INDEX"},
	}
	for k := 0; k < f.Cfg.EdgeArrays; k++ {
		specs = append(specs, sdm.ImportSpec{
			Name: fmt.Sprintf("edgedata%d", k), Type: sdm.Double,
			FileOffset: f.Layout.EdgeDataOffset(k), Length: f.Layout.NumEdges,
		})
	}
	for k := 0; k < f.Cfg.NodeArrays; k++ {
		specs = append(specs, sdm.ImportSpec{
			Name: fmt.Sprintf("nodedata%d", k), Type: sdm.Double,
			FileOffset: f.Layout.NodeDataOffset(k), Length: f.Layout.NumNodes,
		})
	}
	return specs
}

// PartitionMode selects the import-and-partition strategy Figure 5
// compares.
type PartitionMode int

const (
	// ModeOriginal is the pre-SDM application: process 0 reads all
	// arrays and broadcasts; edges are selected with two passes.
	ModeOriginal PartitionMode = iota
	// ModeSDM is SDM's parallel collective import plus the ring index
	// distribution (a history file is used automatically if one was
	// registered earlier on the same cluster).
	ModeSDM
)

// PartitionStats reports the two phases of Figure 5, as the maximum
// virtual time across ranks.
type PartitionStats struct {
	FromHistory    bool
	ImportSec      float64 // reading edges + the eight data arrays
	DistributeSec  float64 // partitioning the edges
	TotalSec       float64 // the slowest rank's import and distribution together
	LocalEdges     int     // rank-0 partitioned edge count, for sanity
	LocalNodes     int
	CommBytesDelta int64 // point-to-point traffic generated
}

// ImportAndPartition runs one import-and-partition experiment on a
// cluster whose file system already holds the staged mesh. register
// asks SDM to record the index distribution in a history file
// (SDM_index_registry), enabling the history path for later calls on
// the same cluster.
func (f *FUN3D) ImportAndPartition(cl *sdm.Cluster, mode PartitionMode, register bool) (*PartitionStats, error) {
	partVec, err := f.PartVec(cl.Procs())
	if err != nil {
		return nil, err
	}
	// Rank 0 alone fills stats, read once Run has returned.
	stats := &PartitionStats{}
	trafficBefore, _ := cl.World.Traffic()

	err = cl.Run(func(p *sdm.Proc) {
		s, err := p.Initialize("fun3d", sdm.Options{})
		if err != nil {
			panic(err)
		}
		defer func() {
			if err := s.Finalize(); err != nil {
				panic(err)
			}
		}()
		imp, err := s.MakeImportlist(MshFileName, f.ImportSpecs())
		if err != nil {
			panic(err)
		}

		var importDur, distrDur sim.Duration
		var ip *sdm.IndexPartition
		switch mode {
		case ModeOriginal:
			orig, err := core.OriginalImportAndPartition(s, MshFileName,
				f.Layout.Edge1Offset(), f.Layout.Edge2Offset(), f.Layout.NumEdges, partVec)
			if err != nil {
				panic(err)
			}
			ip = orig.Partition
			importDur = orig.ImportTime
			distrDur = orig.DistributeTime
			// The eight data arrays also flow through rank 0 in the
			// original application, and each rank then copies out its
			// own elements — the ones SDM's views import.
			t0 := p.Comm.Now()
			for k := 0; k < f.Cfg.EdgeArrays; k++ {
				if _, err := core.OriginalImport(p.Comm, cl.FS, MshFileName,
					f.Layout.EdgeDataOffset(k), f.Layout.NumEdges, 8); err != nil {
					panic(err)
				}
				core.OriginalCopyOut(p.Comm, int64(len(ip.EdgeGlobal))*8)
			}
			for k := 0; k < f.Cfg.NodeArrays; k++ {
				if _, err := core.OriginalImport(p.Comm, cl.FS, MshFileName,
					f.Layout.NodeDataOffset(k), f.Layout.NumNodes, 8); err != nil {
					panic(err)
				}
				core.OriginalCopyOut(p.Comm, int64(len(ip.Nodes))*8)
			}
			importDur += p.Comm.Now().Sub(t0)
		case ModeSDM:
			ip, err = s.PartitionIndex(imp, "edge1", "edge2", partVec)
			if err != nil {
				panic(err)
			}
			importDur = ip.ImportTime
			distrDur = ip.DistributeTime
			// Import the data arrays through the irregular views.
			edgeView, err := sdm.NewView(ip.EdgeGlobal, sdm.Double, f.Layout.NumEdges)
			if err != nil {
				panic(err)
			}
			nodeView, err := sdm.NewView(ip.Nodes, sdm.Double, f.Layout.NumNodes)
			if err != nil {
				panic(err)
			}
			// One import epoch: the eight collectives overlap in virtual
			// time instead of paying eight serial round trips.
			t0 := p.Comm.Now()
			for k := 0; k < f.Cfg.EdgeArrays; k++ {
				if _, err := imp.QueueView(fmt.Sprintf("edgedata%d", k), edgeView); err != nil {
					panic(err)
				}
			}
			for k := 0; k < f.Cfg.NodeArrays; k++ {
				if _, err := imp.QueueView(fmt.Sprintf("nodedata%d", k), nodeView); err != nil {
					panic(err)
				}
			}
			if err := imp.Flush(); err != nil {
				panic(err)
			}
			importDur += p.Comm.Now().Sub(t0)
			if register && !ip.FromHistory {
				if err := s.IndexRegistry(ip, f.Layout.NumEdges, partVec); err != nil {
					panic(err)
				}
			}
		}
		if err := imp.Release(); err != nil {
			panic(err)
		}

		maxImport := p.Comm.AllreduceFloat64(importDur.Seconds(), mpi.OpMax)
		maxDistr := p.Comm.AllreduceFloat64(distrDur.Seconds(), mpi.OpMax)
		// The slowest rank's whole import, not the sum of two maxima that
		// different ranks may reach.
		maxTotal := p.Comm.AllreduceFloat64((importDur + distrDur).Seconds(), mpi.OpMax)
		if p.Rank() == 0 {
			stats.ImportSec = maxImport
			stats.DistributeSec = maxDistr
			stats.TotalSec = maxTotal
			stats.FromHistory = ip.FromHistory
			stats.LocalEdges = ip.NumEdges()
			stats.LocalNodes = ip.NumNodes()
		}
	})
	if err != nil {
		return nil, err
	}
	trafficAfter, _ := cl.World.Traffic()
	stats.CommBytesDelta = trafficAfter - trafficBefore
	return stats, nil
}

// Fig6Stats reports Figure 6's write and read bandwidths for one file
// organization level.
type Fig6Stats struct {
	Level     sdm.FileOrganization
	WriteMBps float64
	ReadMBps  float64
	Files     int
	FileOpens int64 // charged opens: one per aggregator-set member per file open, not one per rank
	FileViews int64
	WriteReqs int64
	Depth     int // step-pipeline depth the run used
	// MinStripeUnit and MaxStripeUnit bound the stripe units of the files
	// the run created: the node-dataset files' and the flux file's.
	MinStripeUnit, MaxStripeUnit int64
}

// WriteReadBandwidth reproduces Figure 6's experiment: after
// partitioning, the application writes a group of four node-sized
// datasets plus one five-times-larger dataset per timestep (the
// paper's 4x21MB + 105MB), then reads everything back, under the given
// file organization. Bandwidth is global bytes over max virtual time.
func (f *FUN3D) WriteReadBandwidth(cl *sdm.Cluster, level sdm.FileOrganization, steps int) (*Fig6Stats, error) {
	return f.checkpoints(cl, checkpointRun{level: level, steps: steps, depth: 1})
}

// PipelineWriteBandwidth streams `steps` file-per-timestep checkpoints
// back-to-back with up to `depth` asynchronous step flushes in flight
// (Options.StepPipelineDepth over the level-1 layout): consecutive
// steps write disjoint files, so per-file dependency tracking lets the
// next checkpoint's collectives overlap the previous ones' I/O in
// virtual time. Depth 1 reproduces the classic one-outstanding-flush
// schedule; the `pipeline` figure sweeps the depth. After the writes
// have drained the checkpoints are read back in order through
// synchronous EndStep closes — the sequential reader SDM's
// metadata-directed read-ahead streams at the same depth.
func (f *FUN3D) PipelineWriteBandwidth(cl *sdm.Cluster, steps, depth int) (*Fig6Stats, error) {
	return f.checkpoints(cl, checkpointRun{level: sdm.Level1, steps: steps, depth: depth})
}

// checkpointRun is what the figures and ablations vary over the one
// checkpoint body: the file organization, the step count, the MPI-IO
// hints (the collective-vs-independent and striping ablations), the
// step-pipeline depth, and fully synchronous step closes (EndStep
// instead of the pipelined EndStepAsync) — the reference the depth-1
// differential test pins the pipeline against.
type checkpointRun struct {
	level   sdm.FileOrganization
	steps   int
	hints   sdm.Hints
	depth   int
	syncEnd bool
}

// checkpoints is the body beneath the Figure-6 bandwidth runs, the
// pipeline figure and the ablations: write run.steps cross-group
// checkpoints, then read everything back.
func (f *FUN3D) checkpoints(cl *sdm.Cluster, run checkpointRun) (*Fig6Stats, error) {
	level, steps, depth := run.level, run.steps, run.depth
	partVec, err := f.PartVec(cl.Procs())
	if err != nil {
		return nil, err
	}
	nNodes := int64(f.Mesh.NumNodes())
	bigN := 5 * nNodes
	// Rank 0 alone fills stats, read once Run has returned.
	stats := &Fig6Stats{Level: level, Depth: depth}
	statsBefore := cl.FS.Stats()
	filesBefore := make(map[string]bool)
	for _, name := range cl.FS.List() {
		filesBefore[name] = true
	}

	err = cl.Run(func(p *sdm.Proc) {
		s, err := p.Initialize("fun3d", sdm.Options{
			Organization: level, Hints: run.hints, StepPipelineDepth: depth,
		})
		if err != nil {
			panic(err)
		}
		defer func() {
			if err := s.Finalize(); err != nil {
				panic(err)
			}
		}()

		// Owned-node map array from the partitioning vector (the
		// paper's vector, via SDM_partition_table).
		owned := s.PartitionTable(partVec)

		// Group A: four node datasets sharing the owned-node view.
		namesA := []string{"p", "q", "r", "w"}
		attrsA := sdm.MakeDatalist(namesA...)
		for i := range attrsA {
			attrsA[i].GlobalSize = nNodes
		}
		ga, err := s.SetAttributes(attrsA)
		if err != nil {
			panic(err)
		}
		if _, err := ga.DataView(namesA, owned); err != nil {
			panic(err)
		}
		dsA := make([]*sdm.Dataset[float64], len(namesA))
		for i, name := range namesA {
			if dsA[i], err = sdm.DatasetOf[float64](ga, name); err != nil {
				panic(err)
			}
		}
		// Group B: one five-times-larger dataset, block-partitioned.
		attrsB := sdm.MakeDatalist("flux")
		attrsB[0].GlobalSize = bigN
		gb, err := s.SetAttributes(attrsB)
		if err != nil {
			panic(err)
		}
		blockMap := blockMapArray(bigN, p.Size(), p.Rank())
		if _, err := gb.DataView([]string{"flux"}, blockMap); err != nil {
			panic(err)
		}
		flux, err := sdm.DatasetOf[float64](gb, "flux")
		if err != nil {
			panic(err)
		}

		bufA := make([]float64, len(owned))
		for i, g := range owned {
			bufA[i] = float64(g)
		}
		bufB := make([]float64, len(blockMap))
		for i := range bufB {
			bufB[i] = float64(i)
		}
		readA := make([]float64, len(owned))
		readB := make([]float64, len(blockMap))

		// Each timestep is one Manager-level cross-group epoch: group A's
		// four datasets and group B's flux merge into a single rendezvous
		// (one execution-table batch, the two files' collectives forked
		// concurrently), and the flush is issued as a split-collective.
		// Tokens are managed by the pipeline itself: EndStepAsync keeps
		// up to StepPipelineDepth flushes in flight, implicitly joining
		// the earliest completions (and any same-file conflict) — at
		// depth 1 this reproduces the classic wait-before-next-step
		// schedule bit-identically, while file-per-timestep layouts
		// stream checkpoints back-to-back at depth >= 2.
		p.Comm.Barrier()
		t0 := p.Comm.Now()
		for ts := 0; ts < steps; ts++ {
			if err := s.BeginStep(int64(ts * 10)); err != nil {
				panic(err)
			}
			for _, d := range dsA {
				if err := d.Put(bufA); err != nil {
					panic(err)
				}
			}
			if err := flux.Put(bufB); err != nil {
				panic(err)
			}
			if run.syncEnd {
				if err := s.EndStep(); err != nil {
					panic(err)
				}
			} else if _, err := s.EndStepAsync(); err != nil {
				panic(err)
			}
		}
		if err := s.DrainSteps(); err != nil {
			panic(err)
		}
		p.Comm.Barrier()
		t1 := p.Comm.Now()
		for ts := 0; ts < steps; ts++ {
			if err := s.BeginStep(int64(ts * 10)); err != nil {
				panic(err)
			}
			for _, d := range dsA {
				if err := d.Get(readA); err != nil {
					panic(err)
				}
			}
			if err := flux.Get(readB); err != nil {
				panic(err)
			}
			if err := s.EndStep(); err != nil {
				panic(err)
			}
		}
		p.Comm.Barrier()
		t2 := p.Comm.Now()

		writeSec := p.Comm.AllreduceFloat64(t1.Sub(t0).Seconds(), mpi.OpMax)
		readSec := p.Comm.AllreduceFloat64(t2.Sub(t1).Seconds(), mpi.OpMax)
		if p.Rank() == 0 {
			totalBytes := float64(steps) * (4*float64(nNodes) + float64(bigN)) * 8
			stats.WriteMBps = totalBytes / 1e6 / writeSec
			stats.ReadMBps = totalBytes / 1e6 / readSec
		}
	})
	if err != nil {
		return nil, err
	}
	statsAfter := cl.FS.Stats()
	for _, name := range cl.FS.List() {
		if filesBefore[name] {
			continue
		}
		stats.Files++
		unit, _ := cl.FS.StripeUnit(name)
		if stats.MinStripeUnit == 0 || unit < stats.MinStripeUnit {
			stats.MinStripeUnit = unit
		}
		stats.MaxStripeUnit = max(stats.MaxStripeUnit, unit)
	}
	stats.FileOpens = statsAfter.Opens - statsBefore.Opens
	stats.FileViews = statsAfter.Views - statsBefore.Views
	stats.WriteReqs = statsAfter.WriteReqs - statsBefore.WriteReqs
	return stats, nil
}

// blockMapArray is the contiguous equal-division map array for a
// globally block-partitioned dataset.
func blockMapArray(globalN int64, size, rank int) []int32 {
	per := globalN / int64(size)
	rem := globalN % int64(size)
	start := int64(rank)*per + min(int64(rank), rem)
	count := per
	if int64(rank) < rem {
		count++
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(start + int64(i))
	}
	return out
}
