// Command restart demonstrates run bundles: the write phase runs a
// small irregular application and saves everything — metadata catalog
// plus file bytes — as a self-contained bundle directory; the read
// phase, meant to run as a separate OS process, opens the bundle,
// attaches to the saved run, and reads every checkpoint back by name
// through the execution table, verifying the values.
//
// Run as two processes (the point of the exercise):
//
//	go run ./examples/restart -phase write -dir /tmp/sdm-bundle
//	go run ./examples/restart -phase read  -dir /tmp/sdm-bundle
//
// Or let one invocation do both (still through the disk):
//
//	go run ./examples/restart -dir /tmp/sdm-bundle
//
// Inspect the saved bundle with the companion tools:
//
//	go run ./cmd/sdmcat -list /tmp/sdm-bundle
//	go run ./cmd/sdmcat -dataset pressure -timestep 2 -head 8 /tmp/sdm-bundle
//	go run ./cmd/sdmls /tmp/sdm-bundle/catalog.db
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"sdm"
)

const (
	globalN = 1 << 14
	steps   = 3
)

// value is the deterministic content of dataset ds at (timestep, global
// index), so the read phase can verify without any shared state.
func value(ds string, ts int64, g int32) float64 {
	if ds == "velocity" {
		return -float64(g) - float64(ts)
	}
	return float64(g) + float64(ts)*0.001
}

// mapFor is rank's round-robin irregular mapping; both phases derive
// it from (rank, size) alone.
func mapFor(rank, size int) []int32 {
	var m []int32
	for g := rank; g < globalN; g += size {
		m = append(m, int32(g))
	}
	return m
}

func main() {
	dir := flag.String("dir", filepath.Join(os.TempDir(), "sdm-bundle"), "bundle directory")
	phase := flag.String("phase", "both", "write, read, or both")
	procs := flag.Int("procs", 4, "simulated process count (must match across phases)")
	backend := flag.String("backend", "cas", "bundle storage: dir or cas")
	compress := flag.Bool("compress", true, "compress cas chunks (byte-shuffled or plain flate per chunk, whichever is smaller)")
	flag.Parse()

	switch *phase {
	case "write":
		writePhase(*dir, *procs, *backend, *compress)
	case "read":
		readPhase(*dir, *procs)
	case "both":
		writePhase(*dir, *procs, *backend, *compress)
		readPhase(*dir, *procs)
	default:
		log.Fatalf("unknown -phase %q", *phase)
	}
}

func writePhase(dir string, procs int, backend string, compress bool) {
	cluster := sdm.NewCluster(sdm.ClusterConfig{Procs: procs})
	err := cluster.Run(func(p *sdm.Proc) {
		s, err := p.Initialize("restartdemo", sdm.Options{Organization: sdm.Level3})
		if err != nil {
			log.Fatal(err)
		}
		defer s.Finalize()
		attrs := sdm.MakeDatalist("pressure", "velocity")
		for i := range attrs {
			attrs[i].GlobalSize = globalN
		}
		g, err := s.SetAttributes(attrs)
		if err != nil {
			log.Fatal(err)
		}
		mapArr := mapFor(p.Rank(), p.Size())
		if _, err := g.DataView([]string{"pressure", "velocity"}, mapArr); err != nil {
			log.Fatal(err)
		}
		// Typed handles and value buffers are hoisted out of the step
		// loop; each checkpoint is then one deferred step, both
		// datasets flushing in a single merged collective.
		names := []string{"pressure", "velocity"}
		handles := make(map[string]*sdm.Dataset[float64], len(names))
		vals := make(map[string][]float64, len(names))
		for _, ds := range names {
			h, err := sdm.DatasetOf[float64](g, ds)
			if err != nil {
				log.Fatal(err)
			}
			handles[ds] = h
			vals[ds] = make([]float64, len(mapArr))
		}
		for ts := int64(0); ts < steps; ts++ {
			if err := s.BeginStep(ts); err != nil {
				log.Fatal(err)
			}
			for _, ds := range names {
				for i, gi := range mapArr {
					vals[ds][i] = value(ds, ts, gi)
				}
				if err := handles[ds].Put(vals[ds]); err != nil {
					log.Fatal(err)
				}
			}
			if err := s.EndStep(); err != nil {
				log.Fatal(err)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	err = cluster.SaveBundleOpts(dir, sdm.BundleOptions{Backend: backend, Compress: compress})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("write phase: %d checkpoints of 2 datasets in %v virtual time\n",
		steps, cluster.Elapsed())
	fmt.Printf("saved bundle to %s (backend %s)\n", dir, backend)
}

func readPhase(dir string, procs int) {
	cluster, err := sdm.OpenBundle(dir, sdm.ClusterConfig{Procs: procs})
	if err != nil {
		log.Fatal(err)
	}
	runs, err := cluster.Catalog.Runs(nil)
	if err != nil || len(runs) == 0 {
		log.Fatalf("bundle has no runs (err %v)", err)
	}
	runID := runs[len(runs)-1].RunID
	err = cluster.Run(func(p *sdm.Proc) {
		s, err := p.Initialize("restartdemo", sdm.Options{
			Organization: sdm.Level3,
			AttachRun:    runID,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer s.Finalize()
		g, err := s.OpenGroup([]string{"pressure", "velocity"})
		if err != nil {
			log.Fatal(err)
		}
		mapArr := mapFor(p.Rank(), p.Size())
		if _, err := g.DataView([]string{"pressure", "velocity"}, mapArr); err != nil {
			log.Fatal(err)
		}
		// Read each checkpoint back as one batched step through typed
		// handles (hoisted out of the loop) and verify.
		names := []string{"pressure", "velocity"}
		handles := make(map[string]*sdm.Dataset[float64], len(names))
		got := make(map[string][]float64, len(names))
		for _, ds := range names {
			h, err := sdm.DatasetOf[float64](g, ds)
			if err != nil {
				log.Fatal(err)
			}
			handles[ds] = h
			got[ds] = make([]float64, len(mapArr))
		}
		for ts := int64(0); ts < steps; ts++ {
			if err := s.BeginStep(ts); err != nil {
				log.Fatal(err)
			}
			for _, ds := range names {
				if err := handles[ds].Get(got[ds]); err != nil {
					log.Fatal(err)
				}
			}
			if err := s.EndStep(); err != nil {
				log.Fatal(err)
			}
			for _, ds := range names {
				for i, gi := range mapArr {
					if want := value(ds, ts, gi); got[ds][i] != want {
						log.Fatalf("rank %d: %s@%d elem %d = %g, want %g",
							p.Rank(), ds, ts, gi, got[ds][i], want)
					}
				}
			}
		}
		if p.Rank() == 0 {
			fmt.Printf("read phase: attached to run %d, verified %d checkpoints of 2 datasets\n",
				runID, steps)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read phase virtual time: %v\n", cluster.Elapsed())
}
