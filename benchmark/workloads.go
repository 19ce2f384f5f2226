package main

import (
	"fmt"

	"sdm"
)

// cacheMode says how the serve phase treats sdmd's block cache.
type cacheMode int

const (
	// cacheWarm: the cache is larger than the data and an untimed pass
	// fills it, so timed requests are hits.
	cacheWarm cacheMode = iota
	// cacheQuarter: the cache holds a quarter of the data, so timed
	// requests evict and go back to the backend every round.
	cacheQuarter
	// cacheCold: the cache starts empty and every block is requested
	// once, so timed requests are misses served by ranged backend reads.
	cacheCold
)

// appKind selects which of the paper's two applications shapes the
// checkpoint phase.
type appKind int

const (
	// appFUN3D: four node-sized datasets through the irregular
	// partition view plus one five-times-larger block-partitioned
	// dataset (Figure 6's group).
	appFUN3D appKind = iota
	// appRT: one node dataset through the partition view plus one
	// contiguous boundary-triangle dataset (Figure 7's checkpoint).
	appRT
	// appMeta: many node-sized datasets on a tiny mesh, so metadata and
	// per-file costs outweigh the bytes.
	appMeta
)

// workload is one row of the parameter table. The four workloads run
// the same lifecycle and differ only here.
type workload struct {
	name string

	app   appKind
	nx    int // tetrahedral grid of nx^3 cells
	procs int
	level sdm.FileOrganization
	steps int
	depth int // Options.StepPipelineDepth
	// metaDatasets is the dataset count of the appMeta shape.
	metaDatasets int
	// distinct bounds how many different global arrays a dataset group
	// cycles through across steps (memory for the expected values).
	distinct int

	// How many times a round executes each phase's body; the costs are
	// summed into one repetition for the estimator and the metric divides
	// by the count. They are sized so that no repetition is shorter than
	// 0.1 s on the wall clock (a single nx=16 import takes 9 ms, a single
	// restart of one 5 MB checkpoint 20 ms). restartSteps is how many
	// trailing checkpoints one restart reads.
	importReps, ckptReps, saveReps, restartReps int
	restartSteps                                int

	bundle sdm.BundleOptions

	cache      cacheMode
	rangeBytes int64 // bytes per served ReadRange
	serveReqs  int   // timed requests per client per round
	// coldMounts is how many times the cold workload mounts its bundle:
	// cache keys carry the mount name, so one sweep over every mount
	// misses on every block, coldMounts times the data.
	coldMounts int
	// Preloaded catalog rows: runs x datasets x steps, recorded before
	// the application's own run.
	preRuns, preDatasets, preSteps int
	lookupBatches                  int // 64-key batches per client per round
}

const (
	lookupBatchKeys = 64
	recordBatchRows = 16
)

// workloadTable is the benchmark's parameter table. BENCHMARK.json and
// README.md say why each workload exists: fun3d-l3 is the paper's
// headline case (big irregular collectives into two shared files),
// rt-l1-pipe the other application on the layout with the most opens,
// views and catalog rows per byte, fun3d-l2-cold the remote tier and a
// second organisation level, meta-heavy the case where metadata and
// per-file costs outweigh the bytes.
var workloadTable = []workload{
	{
		name: "fun3d-l3",
		app:  appFUN3D, nx: 40, procs: 64, level: sdm.Level3, steps: 8, depth: 1, distinct: 5,
		importReps: 2, ckptReps: 2, saveReps: 2, restartReps: 6, restartSteps: 1,
		bundle: sdm.BundleOptions{Backend: "dir"},
		cache:  cacheWarm, rangeBytes: 256 << 10, serveReqs: 560,
		lookupBatches: 120,
	},
	{
		name: "rt-l1-pipe",
		app:  appRT, nx: 40, procs: 32, level: sdm.Level1, steps: 12, depth: 4, distinct: 12,
		importReps: 2, ckptReps: 3, saveReps: 1, restartReps: 3, restartSteps: 6,
		bundle: sdm.BundleOptions{Backend: "cas", ChunkSize: 64 << 10, Compress: true},
		cache:  cacheQuarter, rangeBytes: 256 << 10, serveReqs: 96,
		preRuns: 4, preDatasets: 2, preSteps: 60,
		lookupBatches: 100,
	},
	{
		name: "fun3d-l2-cold",
		app:  appFUN3D, nx: 40, procs: 64, level: sdm.Level2, steps: 6, depth: 1, distinct: 5,
		importReps: 2, ckptReps: 2, saveReps: 2, restartReps: 5, restartSteps: 1,
		bundle: sdm.BundleOptions{Backend: "obj", PartSize: 1 << 20},
		cache:  cacheCold, rangeBytes: 256 << 10, coldMounts: 6, // one sweep over every mount
		lookupBatches: 120,
	},
	{
		name: "meta-heavy",
		app:  appMeta, nx: 16, procs: 16, level: sdm.Level1, steps: 16, depth: 1, metaDatasets: 16, distinct: 8,
		importReps: 12, ckptReps: 1, saveReps: 1, restartReps: 1, restartSteps: 1,
		bundle: sdm.BundleOptions{Backend: "dir"},
		cache:  cacheWarm, rangeBytes: 64 << 10, serveReqs: 1100,
		preRuns: 8, preDatasets: 16, preSteps: 400,
		lookupBatches: 72,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// short shrinks a workload to a size the tests run in about a second
// while keeping every phase and every code path of the full size.
func (w workload) short() workload {
	w.nx = 8
	if w.procs > 8 {
		w.procs = 8
	}
	if w.steps > 4 {
		w.steps = 4
	}
	w.metaDatasets = min(w.metaDatasets, 4) // a save fsyncs every file
	w.restartSteps = min(w.restartSteps, 2)
	w.importReps, w.ckptReps, w.saveReps, w.restartReps = 1, min(w.ckptReps, 2), min(w.saveReps, 2), min(w.restartReps, 2)
	w.coldMounts = min(w.coldMounts, 2)
	if w.preSteps > 20 {
		w.preSteps = 20
	}
	w.serveReqs = 8
	w.rangeBytes = 4 << 10
	w.lookupBatches = 2
	if w.bundle.Backend == "obj" {
		w.bundle.PartSize = 16 << 10
	}
	if w.bundle.Backend == "cas" {
		w.bundle.ChunkSize = 4 << 10
	}
	return w
}
