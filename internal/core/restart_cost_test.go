package core

import (
	"fmt"
	"testing"

	"sdm/internal/catalog"
)

// TestOpenGroupCostFollowsTheRun pins what reattaching to a run costs
// in the catalog: beside 500, 5 k and 50 k execution-table rows of
// other runs' history, OpenGroup examines the attached run's rows and no
// others — its two access_pattern_table rows for each of the two
// datasets it looks up, and the eight execution_table rows WritesForRun
// returns (before PR 24 that call scanned the table) — and no plan is a
// full scan.
func TestOpenGroupCostFollowsTheRun(t *testing.T) {
	te := newTestEnv(2)
	const globalN, steps = 16, 4
	names := []string{"p", "q"}
	te.run(t, Options{Organization: Level2}, func(s *SDM) {
		g, err := s.SetAttributes([]Attr{{Name: "p", GlobalSize: globalN, Type: Double}, {Name: "q", GlobalSize: globalN, Type: Double}})
		if err != nil {
			panic(err)
		}
		m := roundRobinMap(s.Comm().Rank(), 2, globalN)
		if _, err := g.DataView(names, m); err != nil {
			panic(err)
		}
		for ts := range int64(steps) {
			for _, name := range names {
				if err := putAt(g, name, ts, make([]float64, len(m))); err != nil {
					panic(err)
				}
			}
		}
	})
	const want = 2*2 + 2*steps
	nextRun := int64(1000)
	for _, history := range []int{500, 5_000, 50_000} {
		for ; (nextRun-1000)*100 < int64(history); nextRun++ {
			recs := make([]catalog.WriteRecord, 100)
			for i := range recs {
				recs[i] = catalog.WriteRecord{RunID: nextRun, Dataset: fmt.Sprintf("d%d", i%4), Timestep: int64(i / 4), FileName: "other.dat"}
			}
			if err := te.cat.RecordWrites(nil, recs); err != nil {
				t.Fatal(err)
			}
		}
		te.run(t, Options{Organization: Level2, AttachRun: 1}, func(s *SDM) {
			st0 := te.cat.DB().StatsSnapshot() // only rank 0 queries the catalog
			if _, err := s.OpenGroup(names); err != nil {
				panic(err)
			}
			if s.Comm().Rank() != 0 {
				return
			}
			st := te.cat.DB().StatsSnapshot()
			if scanned := st.RowsScanned - st0.RowsScanned; scanned != want || st.PlanScan != st0.PlanScan {
				t.Errorf("OpenGroup beside %d rows of history examined %d catalog rows in %d full scan(s), want %d in none",
					history, scanned, st.PlanScan-st0.PlanScan, want)
			}
		})
	}
}
