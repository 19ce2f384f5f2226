// Benchmarks regenerating the paper's evaluation figures.
// BenchmarkFigures loops the table cmd/sdmbench prints
// (workloads.Figures) at a reduced scale so `go test -bench=.`
// completes quickly; run cmd/sdmbench for paper-scale tables.
//
// Wall-clock ns/op measures the simulator, not the modelled machine:
// the reproduction's results are the custom metrics, one per case and
// metric of each figure (sim seconds for Figure 5, sim MB/s for
// Figures 6 and 7).
package sdm_test

import (
	"strings"
	"testing"

	"sdm"
	"sdm/internal/workloads"
)

// benchScale is the reduced scale. 20^3 cells (~60k edges) is the
// smallest FUN3D mesh where the history file's fixed costs (database
// lookup, open) amortize, as they do at the paper's 18M-edge scale.
var benchScale = workloads.Scale{NX: 20, Procs: 16, Steps: 2, RTNX: 16, RTSteps: 3, PipeSteps: 4}

// BenchmarkFigures regenerates every figure and ablation of the table.
func BenchmarkFigures(b *testing.B) {
	for _, fig := range workloads.Figures {
		b.Run(fig.Name, func(b *testing.B) {
			sums := map[string]float64{}
			for i := 0; i < b.N; i++ {
				rows, err := fig.Run(&workloads.Inputs{Scale: benchScale}, sdm.NewCluster)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					for m, v := range r.Metrics {
						// A unit may not hold a space.
						sums[strings.ReplaceAll(r.Case, " ", "-")+":"+m] += v
					}
				}
			}
			for unit, sum := range sums {
				b.ReportMetric(sum/float64(b.N), unit)
			}
		})
	}
}

// BenchmarkAblation_HistoryRegistryCost measures what registering a
// history (the asynchronous write plus database rows) adds to a cold
// partition run — the price paid once to enable every later replay.
func BenchmarkAblation_HistoryRegistryCost(b *testing.B) {
	f, err := workloads.NewFUN3D(workloads.FUN3DConfig{NX: benchScale.NX, NY: benchScale.NX, NZ: benchScale.NX})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		register bool
	}{{"without-registry", false}, {"with-registry", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				cl := sdm.NewCluster(sdm.Origin2000Config(benchScale.Procs))
				if err := f.Stage(cl); err != nil {
					b.Fatal(err)
				}
				st, err := f.ImportAndPartition(cl, workloads.ModeSDM, tc.register)
				if err != nil {
					b.Fatal(err)
				}
				total += st.TotalSec
			}
			b.ReportMetric(total/float64(b.N), "sim-total-s/op")
		})
	}
}
