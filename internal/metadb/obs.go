package metadb

import (
	"maps"
	"slices"

	"sdm/internal/obs"
)

// RegisterMetrics exposes the database's query statistics — including
// the per-plan-kind counts behind EXPLAIN and the MVCC counters
// (snapshots taken, versions committed, contended acquisitions of the
// writer mutex) plus per-table row gauges — as a snapshot source of a
// metrics registry, behind the existing accessors with no hot-path
// changes.
func (db *DB) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.RegisterSource("metadb", func(put func(key string, val int64)) {
		st := db.StatsSnapshot()
		put("queries", st.Queries)
		put("rows-scanned", st.RowsScanned)
		put("index-hits", st.IndexHits)
		put("order-skips", st.OrderSkips)
		put("plan-eq", st.PlanEq)
		put("plan-range", st.PlanRange)
		put("plan-scan", st.PlanScan)
		put("snapshots", st.Snapshots)
		put("commits", st.Commits)
		put("writer-waits", st.ShardWaits)
		state := db.state.Load()
		for _, n := range slices.Sorted(maps.Keys(state.tables)) {
			put("rows."+n, int64(state.tables[n].rows.n))
		}
	})
}
