package catalog

import (
	"fmt"
	"testing"

	"sdm/internal/sim"
)

// TestRecordWritesBatch inserts a whole epoch's rows in one call and
// verifies they are individually retrievable, with the virtual cost
// charged once for the batch.
func TestRecordWritesBatch(t *testing.T) {
	c := newCat(t)
	clock := sim.NewClock()
	recs := make([]WriteRecord, 5)
	for i := range recs {
		recs[i] = WriteRecord{
			RunID: 1, Dataset: fmt.Sprintf("d%d", i), Timestep: 10,
			FileOffset: int64(i) * 4096, FileName: "app_r1_g0.dat",
		}
	}
	before := clock.Now()
	if err := c.RecordWrites(clock, recs); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(before); got != AccessCost {
		t.Fatalf("batched insert charged %v, want one AccessCost %v", got, AccessCost)
	}
	keys := make([]WriteKey, len(recs))
	for i := range keys {
		keys[i] = WriteKey{Dataset: fmt.Sprintf("d%d", i), Timestep: 10}
	}
	got, err := c.LookupWrites(nil, 1, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range got {
		if rec == nil || rec.FileOffset != int64(i)*4096 {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	if err := c.RecordWrites(clock, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestLookupWritesBatchAndCompositeIndex resolves several placements in
// one charged round trip, and asserts each probe was served by the
// execution table's composite (runid, dataset, timestep) index —
// exactly one row scanned per present key.
func TestLookupWritesBatchAndCompositeIndex(t *testing.T) {
	c := newCat(t)
	for ts := int64(0); ts < 8; ts++ {
		for _, ds := range []string{"p", "q"} {
			if err := c.RecordWrites(nil, []WriteRecord{{
				RunID: 1, Dataset: ds, Timestep: ts, FileOffset: ts * 100, FileName: "f",
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	keys := []WriteKey{{Dataset: "p", Timestep: 3}, {Dataset: "q", Timestep: 5}, {Dataset: "p", Timestep: 99}} // last one missing
	clock := sim.NewClock()
	st0 := c.db.StatsSnapshot()
	before := clock.Now()
	recs, err := c.LookupWrites(clock, 1, keys)
	if err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(before); got != AccessCost {
		t.Fatalf("batched lookup charged %v, want one AccessCost %v", got, AccessCost)
	}
	if len(recs) != 3 || recs[0] == nil || recs[1] == nil || recs[2] != nil {
		t.Fatalf("batch lookup shape wrong: %+v", recs)
	}
	if recs[0].FileOffset != 300 || recs[1].FileOffset != 500 {
		t.Fatalf("batch lookup offsets: %+v %+v", recs[0], recs[1])
	}
	st := c.db.StatsSnapshot()
	if gotHits := st.IndexHits - st0.IndexHits; gotHits != 3 {
		t.Fatalf("IndexHits delta = %d, want 3 (one per probe)", gotHits)
	}
	// Present keys scan exactly their single matching row; the missing
	// key scans none.
	if gotScanned := st.RowsScanned - st0.RowsScanned; gotScanned != 2 {
		t.Fatalf("RowsScanned delta = %d, want 2", gotScanned)
	}
	if gotEq := st.PlanEq - st0.PlanEq; gotEq != 3 {
		t.Fatalf("PlanEq delta = %d, want 3", gotEq)
	}
}

// TestLookupWriteUsesCompositeIndex pins the one-key probe (the one Slab
// issues) to the composite index too: a run with a long per-dataset
// history must not be scanned per probe.
func TestLookupWriteUsesCompositeIndex(t *testing.T) {
	c := newCat(t)
	const steps = 40
	for ts := int64(0); ts < steps; ts++ {
		if err := c.RecordWrites(nil, []WriteRecord{{
			RunID: 1, Dataset: "p", Timestep: ts, FileOffset: ts, FileName: "f",
		}}); err != nil {
			t.Fatal(err)
		}
	}
	st0 := c.db.StatsSnapshot()
	recs, err := c.LookupWrites(nil, 1, []WriteKey{{Dataset: "p", Timestep: 17}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recs[0]; rec == nil || rec.FileOffset != 17 {
		t.Fatalf("lookup = %+v", rec)
	}
	st := c.db.StatsSnapshot()
	if got := st.RowsScanned - st0.RowsScanned; got != 1 {
		t.Fatalf("a one-key LookupWrites scanned %d rows, want 1 via composite index", got)
	}
	if eq, hits := st.PlanEq-st0.PlanEq, st.IndexHits-st0.IndexHits; eq != 1 || hits != 1 {
		t.Fatalf("a one-key LookupWrites ran %d equality plans with %d index hits, want 1 and 1", eq, hits)
	}
}
