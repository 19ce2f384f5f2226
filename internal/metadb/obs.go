package metadb

import (
	"fmt"
	"sort"

	"sdm/internal/obs"
)

// RegisterMetrics exposes the database's query statistics — including
// the per-plan-kind counts behind EXPLAIN and the MVCC/sharding
// counters (snapshots taken, versions committed, contended shard
// locks, single-shard vs scatter plans) plus per-shard row gauges —
// as a snapshot source of a metrics registry, behind the existing
// accessors with no hot-path changes.
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
		put("plan-single-shard", st.PlanSingleShard)
		put("plan-scatter", st.PlanScatter)
		put("snapshots", st.Snapshots)
		put("commits", st.Commits)
		put("shard-waits", st.ShardWaits)
		state := db.state.Load()
		names := make([]string, 0, len(state.tables))
		for n := range state.tables {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			t := state.tables[n]
			total := t.rowCount()
			put("rows."+n, int64(total))
			if total == 0 {
				continue
			}
			for i, sh := range t.shards {
				put(fmt.Sprintf("rows.%s.shard%d", n, i), int64(sh.rows.n))
			}
		}
	})
}
