// Command quickstart is the smallest complete SDM program: four
// simulated processes write a two-dataset data group through irregular
// views and read it back, with all metadata recorded in the embedded
// database.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sdm"
)

func main() {
	const (
		procs   = 4
		globalN = 1 << 14 // elements per dataset
		steps   = 3
	)
	cluster := sdm.NewCluster(sdm.ClusterConfig{Procs: procs})

	err := cluster.Run(func(p *sdm.Proc) {
		// SDM_initialize: connect to the metadata database and register
		// this run.
		s, err := p.Initialize("quickstart", sdm.Options{Organization: sdm.Level3})
		if err != nil {
			log.Fatal(err)
		}
		defer s.Finalize()

		// SDM_make_datalist + SDM_set_attributes: register a data group
		// of two double-precision datasets with the same global size.
		attrs := sdm.MakeDatalist("pressure", "velocity")
		for i := range attrs {
			attrs[i].GlobalSize = globalN
		}
		group, err := s.SetAttributes(attrs)
		if err != nil {
			log.Fatal(err)
		}

		// SDM_data_view: this rank's elements are strided round-robin
		// across the global array — an irregular mapping that becomes a
		// noncontiguous collective file view.
		var mapArr []int32
		for g := p.Rank(); g < globalN; g += p.Size() {
			mapArr = append(mapArr, int32(g))
		}
		if _, err := group.DataView([]string{"pressure", "velocity"}, mapArr); err != nil {
			log.Fatal(err)
		}

		// Typed handles on the registered datasets: Put/Get replace the
		// old float64 byte-slice calls.
		pressure, err := sdm.DatasetOf[float64](group, "pressure")
		if err != nil {
			log.Fatal(err)
		}
		velocity, err := sdm.DatasetOf[float64](group, "velocity")
		if err != nil {
			log.Fatal(err)
		}

		// Write three checkpoints; each timestep is one deferred step,
		// so both datasets flush in a single merged collective and the
		// execution table records the whole step in one rank-0 batch.
		pr := make([]float64, len(mapArr))
		ve := make([]float64, len(mapArr))
		for ts := 0; ts < steps; ts++ {
			for i, g := range mapArr {
				pr[i] = float64(g) + float64(ts)*0.001
				ve[i] = -float64(g)
			}
			if err := s.BeginStep(int64(ts * 10)); err != nil {
				log.Fatal(err)
			}
			if err := pressure.Put(pr); err != nil {
				log.Fatal(err)
			}
			if err := velocity.Put(ve); err != nil {
				log.Fatal(err)
			}
			if err := s.EndStep(); err != nil {
				log.Fatal(err)
			}
		}

		// SDM_read: fetch the middle checkpoint back and verify.
		got := make([]float64, len(mapArr))
		if err := pressure.GetAt(10, got); err != nil {
			log.Fatal(err)
		}
		for i, g := range mapArr {
			want := float64(g) + 0.001
			if got[i] != want {
				log.Fatalf("rank %d: element %d = %g, want %g", p.Rank(), g, got[i], want)
			}
		}
		if p.Rank() == 0 {
			fmt.Printf("rank 0: wrote and verified %d checkpoints of 2 datasets (run id %d)\n",
				steps, s.RunID())
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("files created: %v\n", cluster.ListFiles())
	fmt.Printf("virtual time elapsed: %v\n", cluster.Elapsed())

	// The metadata survives the run: list what the catalog recorded.
	runs, err := cluster.Catalog.Runs(nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range runs {
		fmt.Printf("run_table: id=%d app=%s\n", r.RunID, r.Application)
	}
	recs, err := cluster.Catalog.WritesForRun(nil, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("execution_table: %d write records\n", len(recs))
	for _, rec := range recs[:3] {
		fmt.Printf("  dataset=%s timestep=%d offset=%d file=%s\n",
			rec.Dataset, rec.Timestep, rec.FileOffset, rec.FileName)
	}
}
