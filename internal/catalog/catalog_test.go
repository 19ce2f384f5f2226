package catalog

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdm/internal/metadb"
	"sdm/internal/sim"
)

func newCat(t *testing.T) *Catalog {
	t.Helper()
	c := New(metadb.New())
	if err := c.EnsureSchema(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEnsureSchemaIdempotent(t *testing.T) {
	c := newCat(t)
	if err := c.EnsureSchema(); err != nil {
		t.Fatalf("second EnsureSchema: %v", err)
	}
	names := c.DB().TableNames()
	want := []string{"access_pattern_table", "annotation_table", "execution_table",
		"import_table", "index_history_table", "index_table", "run_table"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("tables = %v", names)
	}
}

func TestRegisterRunSequence(t *testing.T) {
	c := newCat(t)
	when := time.Date(2001, 2, 20, 10, 30, 0, 0, time.UTC)
	id1, err := c.RegisterRun(nil, "fun3d", 3, 18_000_000, 2, when)
	if err != nil || id1 != 1 {
		t.Fatalf("first run id = %d, %v", id1, err)
	}
	id2, _ := c.RegisterRun(nil, "rt", 3, 1_000_000, 5, when)
	if id2 != 2 {
		t.Fatalf("second run id = %d", id2)
	}
	run, err := c.FindRun(nil, 1)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if run.Application != "fun3d" || run.ProblemSize != 18_000_000 || run.Stamp != when {
		t.Fatalf("run = %+v", run)
	}
	runs, _ := c.Runs(nil)
	if len(runs) != 2 || runs[1].Application != "rt" {
		t.Fatalf("runs = %+v", runs)
	}
	var nf NotFound
	if missing, err := c.FindRun(nil, 99); !errors.As(err, &nf) || missing != nil {
		t.Fatalf("missing run: %v, %v", missing, err)
	}
}

func TestDatasetRegistration(t *testing.T) {
	c := newCat(t)
	info := DatasetInfo{
		RunID: 1, Dataset: "p", AccessPattern: "IRREGULAR",
		DataType: "DOUBLE", StorageOrder: "ROW_MAJOR", GlobalSize: 2_000_000,
	}
	if err := c.RegisterDataset(nil, info); err != nil {
		t.Fatal(err)
	}
	_ = c.RegisterDataset(nil, DatasetInfo{RunID: 1, Dataset: "q", AccessPattern: "IRREGULAR",
		DataType: "DOUBLE", StorageOrder: "ROW_MAJOR", GlobalSize: 2_000_000})
	got, err := c.LookupDataset(nil, 1, "p")
	if err != nil || got == nil || *got != info {
		t.Fatalf("lookup = %+v, %v", got, err)
	}
	all, _ := c.Datasets(nil, 1)
	if len(all) != 2 || all[0].Dataset != "p" || all[1].Dataset != "q" {
		t.Fatalf("datasets = %+v", all)
	}
	if none, _ := c.LookupDataset(nil, 1, "zz"); none != nil {
		t.Fatal("phantom dataset")
	}
}

func TestExecutionRecords(t *testing.T) {
	c := newCat(t)
	rec := WriteRecord{RunID: 1, Dataset: "p", Timestep: 10, FileOffset: 8192, FileName: "group0.dat"}
	if err := c.RecordWrites(nil, []WriteRecord{rec}); err != nil {
		t.Fatal(err)
	}
	_ = c.RecordWrites(nil, []WriteRecord{{RunID: 1, Dataset: "p", Timestep: 20, FileOffset: 16384, FileName: "group0.dat"}})
	got, err := c.LookupWrites(nil, 1, []WriteKey{{Dataset: "p", Timestep: 10}, {Dataset: "p", Timestep: 30}})
	if err != nil || got[0] == nil || *got[0] != rec {
		t.Fatalf("lookup = %+v, %v", got, err)
	}
	if got[1] != nil {
		t.Fatal("phantom write record")
	}
	all, _ := c.WritesForRun(nil, 1)
	if len(all) != 2 || all[0].Timestep != 10 || all[1].Timestep != 20 {
		t.Fatalf("writes = %+v", all)
	}
}

// TestRewriteResolvesToLatestRow: a (dataset, timestep) written several
// times has one row per write. LookupWrites (and so Slab)
// resolves it to the last row, and WritesForRun lists its rows in write
// order — more of them than one index leaf holds, interleaved with other
// keys' rows and written both one at a time and in batches.
func TestRewriteResolvesToLatestRow(t *testing.T) {
	c := newCat(t)
	const rewrites = 40
	for i := range rewrites {
		rec := WriteRecord{RunID: 1, Dataset: "p", Timestep: 10, FileOffset: int64(i) * 8, FileName: "g.dat"}
		other := WriteRecord{RunID: 1, Dataset: "q", Timestep: int64(i), FileOffset: 1 << 20, FileName: "g.dat"}
		var err error
		if i%2 == 0 {
			err = c.RecordWrites(nil, []WriteRecord{other, rec})
		} else {
			if err = c.RecordWrites(nil, []WriteRecord{rec}); err == nil {
				err = c.RecordWrites(nil, []WriteRecord{other})
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.LookupWrites(nil, 1, []WriteKey{{Dataset: "p", Timestep: 10}, {Dataset: "q", Timestep: 3}})
	if err != nil || got[0] == nil || got[1] == nil {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if want := int64(rewrites-1) * 8; got[0].FileOffset != want {
		t.Errorf("p@10 resolves to offset %d, want the last write's %d", got[0].FileOffset, want)
	}
	if err := c.RegisterDataset(nil, DatasetInfo{RunID: 1, Dataset: "p", AccessPattern: "IRREGULAR",
		DataType: "DOUBLE", StorageOrder: "ROW_MAJOR", GlobalSize: 1}); err != nil {
		t.Fatal(err)
	}
	if _, rec, err := c.Slab(nil, 1, "p", 10); err != nil || rec.FileOffset != got[0].FileOffset {
		t.Errorf("Slab(p@10) = %+v, %v, want the last write", rec, err)
	}
	all, err := c.WritesForRun(nil, 1)
	if err != nil || len(all) != 2*rewrites {
		t.Fatalf("writes = %d rows, %v", len(all), err)
	}
	for i, rec := range all[:rewrites] {
		if rec.Dataset != "p" || rec.FileOffset != int64(i)*8 {
			t.Fatalf("row %d of p@10 = %+v, want offset %d: rows out of write order", i, rec, i*8)
		}
	}
}

func TestImportLifecycle(t *testing.T) {
	c := newCat(t)
	entries := []ImportEntry{
		{RunID: 1, ImportedName: "edge1", FileName: "uns3d.msh", DataType: "INTEGER",
			StorageOrder: "ROW_MAJOR", Partition: "DISTRIBUTED", FileContent: "INDEX", Length: 100},
		{RunID: 1, ImportedName: "x", FileName: "uns3d.msh", DataType: "DOUBLE",
			StorageOrder: "ROW_MAJOR", Partition: "DISTRIBUTED", FileContent: "DATA",
			FileOffset: 800, Length: 100},
	}
	clock := sim.NewClock()
	if err := c.RegisterImports(clock, entries); err != nil {
		t.Fatal(err)
	}
	// The whole list costs one database access.
	if got := clock.Now().Sub(0); got != c.cost {
		t.Fatalf("RegisterImports charged %v, want one access (%v)", got, c.cost)
	}
	got, err := c.Imports(nil, 1)
	if err != nil || len(got) != 2 {
		t.Fatalf("imports = %+v, %v", got, err)
	}
	if got[0] != entries[0] || got[1] != entries[1] {
		t.Fatalf("imports = %+v", got)
	}
	if err := c.ReleaseImports(nil, 1); err != nil {
		t.Fatal(err)
	}
	if left, _ := c.Imports(nil, 1); len(left) != 0 {
		t.Fatalf("after release: %+v", left)
	}
}

func TestIndexHistoryRoundTrip(t *testing.T) {
	c := newCat(t)
	h := IndexHistory{
		ProblemSize: 4000, NumNodes: 1200, NProcs: 4, Dimension: 1,
		FileName:  "hist_4000_4",
		EdgeSizes: []int64{1100, 1050, 980, 1010},
		NodeSizes: []int64{330, 310, 300, 320},
	}
	if err := c.RegisterIndexHistory(nil, h); err != nil {
		t.Fatal(err)
	}
	got, err := c.LookupIndexHistory(nil, 4000, 4)
	if err != nil || got == nil {
		t.Fatalf("lookup: %v", err)
	}
	if got.FileName != h.FileName || got.NumNodes != 1200 {
		t.Fatalf("history = %+v", got)
	}
	for i := range h.EdgeSizes {
		if got.EdgeSizes[i] != h.EdgeSizes[i] || got.NodeSizes[i] != h.NodeSizes[i] {
			t.Fatalf("sizes = %v / %v", got.EdgeSizes, got.NodeSizes)
		}
	}
}

// TestIndexHistoryDigest: a history's digest is recorded in the one
// charged register call and read back by the one charged lookup; a
// history registered without one reads back empty, and deleting a
// history deletes its digest.
func TestIndexHistoryDigest(t *testing.T) {
	c := newCat(t)
	h := IndexHistory{ProblemSize: 98, NumNodes: 27, NProcs: 2, Dimension: 1,
		FileName: "h98", EdgeSizes: []int64{60, 50}, NodeSizes: []int64{15, 14}, Digest: "abc123"}
	clock := sim.NewClock()
	if err := c.RegisterIndexHistory(clock, h); err != nil {
		t.Fatal(err)
	}
	got, err := c.LookupIndexHistory(clock, 98, 2)
	if err != nil || got == nil || got.Digest != h.Digest {
		t.Fatalf("lookup = %+v, %v; want digest %q", got, err, h.Digest)
	}
	if clock.Now() != sim.Time(2*AccessCost) {
		t.Fatalf("register and lookup charged %v, want two calls", clock.Now())
	}
	if err := c.DeleteIndexHistory(nil, "h98"); err != nil {
		t.Fatal(err)
	}
	h.Digest = ""
	if err := c.RegisterIndexHistory(nil, h); err != nil {
		t.Fatal(err)
	}
	if got, err := c.LookupIndexHistory(nil, 98, 2); err != nil || got == nil || got.Digest != "" {
		t.Fatalf("lookup after re-registering without a digest = %+v, %v", got, err)
	}
}

// TestIndexHistoryBlockTable: a history's block lengths and content
// digest ride in its digest's annotation row, in the same one charged
// register and lookup calls. A row holding a digest alone — written
// before block tables — or a block table that does not parse reads back
// with no block table.
func TestIndexHistoryBlockTable(t *testing.T) {
	c := newCat(t)
	h := IndexHistory{ProblemSize: 98, NumNodes: 27, NProcs: 2, Dimension: 1,
		FileName: "h98", EdgeSizes: []int64{60, 50}, NodeSizes: []int64{15, 14}, Digest: "abc123",
		BlockSizes: []int64{216, 0}, Content: "c0ffee"}
	clock := sim.NewClock()
	if err := c.RegisterIndexHistory(clock, h); err != nil {
		t.Fatal(err)
	}
	got, err := c.LookupIndexHistory(clock, 98, 2)
	if err != nil || got == nil || got.Digest != h.Digest || got.Content != h.Content ||
		!reflect.DeepEqual(got.BlockSizes, h.BlockSizes) {
		t.Fatalf("lookup = %+v, %v; want %+v", got, err, h)
	}
	if clock.Now() != sim.Time(2*AccessCost) {
		t.Fatalf("register and lookup charged %v, want two calls", clock.Now())
	}
	for _, note := range []string{"abc123", "abc123\nc0ffee\n216 x", "abc123\nc0ffee"} {
		if err := c.PutAnnotation(nil, 0, historyScope, "h98", []byte(note)); err != nil {
			t.Fatal(err)
		}
		got, err := c.LookupIndexHistory(nil, 98, 2)
		if err != nil || got == nil || got.Digest != "abc123" || got.BlockSizes != nil || got.Content != "" {
			t.Fatalf("note %q: lookup = %+v, %v; want the digest and no block table", note, got, err)
		}
	}
}

func TestIndexHistoryKeyedByProcsAndSize(t *testing.T) {
	c := newCat(t)
	mk := func(size, procs int64) IndexHistory {
		return IndexHistory{
			ProblemSize: size, NumNodes: size / 3, NProcs: procs, Dimension: 1,
			FileName:  "hist",
			EdgeSizes: make([]int64, procs),
			NodeSizes: make([]int64, procs),
		}
	}
	h := mk(4000, 4)
	h.FileName = "h44"
	if err := c.RegisterIndexHistory(nil, h); err != nil {
		t.Fatal(err)
	}
	// Same size, different proc count: no match (the paper's stated
	// limitation on history reuse).
	if got, _ := c.LookupIndexHistory(nil, 4000, 8); got != nil {
		t.Fatal("history matched wrong process count")
	}
	// Different size, same procs: no match.
	if got, _ := c.LookupIndexHistory(nil, 5000, 4); got != nil {
		t.Fatal("history matched wrong problem size")
	}
	// Registering more histories for other proc counts (the paper's
	// suggested usage) coexists.
	h8 := mk(4000, 8)
	h8.FileName = "h48"
	if err := c.RegisterIndexHistory(nil, h8); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.LookupIndexHistory(nil, 4000, 8); got == nil || got.FileName != "h48" {
		t.Fatalf("got %+v", got)
	}
	if got, _ := c.LookupIndexHistory(nil, 4000, 4); got == nil || got.FileName != "h44" {
		t.Fatalf("got %+v", got)
	}
	all, _ := c.Histories(nil)
	if len(all) != 2 {
		t.Fatalf("histories = %+v", all)
	}
}

func TestIndexHistoryValidation(t *testing.T) {
	c := newCat(t)
	bad := IndexHistory{ProblemSize: 10, NProcs: 4, FileName: "x",
		EdgeSizes: []int64{1, 2}, NodeSizes: []int64{1, 2, 3, 4}}
	if err := c.RegisterIndexHistory(nil, bad); err == nil {
		t.Fatal("mismatched sizes accepted")
	}
}

func TestDeleteIndexHistory(t *testing.T) {
	c := newCat(t)
	h := IndexHistory{ProblemSize: 100, NumNodes: 40, NProcs: 2, Dimension: 1,
		FileName: "dead", EdgeSizes: []int64{60, 55}, NodeSizes: []int64{22, 20}}
	if err := c.RegisterIndexHistory(nil, h); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteIndexHistory(nil, "dead"); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.LookupIndexHistory(nil, 100, 2); got != nil {
		t.Fatal("deleted history still found")
	}
}

func TestAccessCostCharged(t *testing.T) {
	c := newCat(t)
	clock := sim.NewClock()
	_, _ = c.RegisterRun(clock, "app", 1, 10, 1, time.Now())
	if clock.Now() == 0 {
		t.Fatal("no DB access cost charged")
	}
	before := clock.Now()
	c.SetAccessCost(0)
	_, _ = c.FindRun(clock, 1)
	if clock.Now() != before {
		t.Fatal("zero access cost still charged time")
	}
}

func TestHistoryConsistencyAcrossReload(t *testing.T) {
	// The catalog must survive a metadb snapshot round trip, the
	// mechanism by which SDM metadata persists between application runs.
	c := newCat(t)
	h := IndexHistory{ProblemSize: 777, NumNodes: 260, NProcs: 2, Dimension: 1,
		FileName: "hist777", EdgeSizes: []int64{400, 390}, NodeSizes: []int64{140, 130}}
	if err := c.RegisterIndexHistory(nil, h); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := c.DB().Save(&nopWriter{&buf}); err != nil {
		t.Fatal(err)
	}
	db2 := metadb.New()
	if err := db2.Load(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	c2 := New(db2)
	got, err := c2.LookupIndexHistory(nil, 777, 2)
	if err != nil || got == nil || got.EdgeSizes[1] != 390 {
		t.Fatalf("after reload: %+v, %v", got, err)
	}
}

// nopWriter adapts a strings.Builder to io.Writer for binary data.
type nopWriter struct{ b *strings.Builder }

func (w *nopWriter) Write(p []byte) (int, error) { return w.b.Write(p) }

func TestAnnotations(t *testing.T) {
	c := newCat(t)
	if err := c.PutAnnotation(nil, 1, "scope-a", "key1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutAnnotation(nil, 1, "scope-a", "key2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetAnnotation(nil, 1, "scope-a", "key1")
	if err != nil || string(got) != "v1" {
		t.Fatalf("get = %q, %v", got, err)
	}
	// Replacement semantics.
	if err := c.PutAnnotation(nil, 1, "scope-a", "key1", []byte("v1b")); err != nil {
		t.Fatal(err)
	}
	got, _ = c.GetAnnotation(nil, 1, "scope-a", "key1")
	if string(got) != "v1b" {
		t.Fatalf("after replace: %q", got)
	}
	all, err := c.Annotations(nil, 1, "scope-a")
	if err != nil || len(all) != 2 || string(all["key2"]) != "v2" {
		t.Fatalf("list = %v, %v", all, err)
	}
	// Missing key and different scope/run are isolated.
	if v, err := c.GetAnnotation(nil, 1, "scope-a", "ghost"); err != nil || v != nil {
		t.Fatalf("missing annotation: %v, %v", v, err)
	}
	if v, _ := c.GetAnnotation(nil, 2, "scope-a", "key1"); v != nil {
		t.Fatal("annotation leaked across runs")
	}
	if v, _ := c.GetAnnotation(nil, 1, "scope-b", "key1"); v != nil {
		t.Fatal("annotation leaked across scopes")
	}
}

// TestSlabNamesWhatIsMissing: the one (run, dataset, timestep) resolver
// finds a recorded slab, and says which of the three things is absent
// when it cannot — each a NotFound, each a different sentence.
func TestSlabNamesWhatIsMissing(t *testing.T) {
	c := newCat(t)
	run, err := c.RegisterRun(nil, "app", 3, 0, 0, time.Date(2001, 2, 20, 12, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDataset(nil, DatasetInfo{RunID: run, Dataset: "edges", DataType: "INTEGER", GlobalSize: 98}); err != nil {
		t.Fatal(err)
	}
	if err := c.RecordWrites(nil, []WriteRecord{{RunID: run, Dataset: "edges", Timestep: 2, FileOffset: 784, FileName: "f.dat"}}); err != nil {
		t.Fatal(err)
	}
	info, rec, err := c.Slab(nil, run, "edges", 2)
	if err != nil || info.Bytes() != 392 || rec.FileName != "f.dat" || rec.FileOffset != 784 {
		t.Fatalf("Slab = %+v, %+v, %v", info, rec, err)
	}
	seen := map[string]bool{}
	for _, miss := range []struct {
		run      int64
		dataset  string
		timestep int64
	}{{run + 1, "edges", 2}, {run, "nodes", 2}, {run, "edges", 3}} {
		_, _, err := c.Slab(nil, miss.run, miss.dataset, miss.timestep)
		var nf NotFound
		if !errors.As(err, &nf) || seen[err.Error()] {
			t.Errorf("Slab(%d, %q, %d): %v", miss.run, miss.dataset, miss.timestep, err)
		}
		seen[err.Error()] = true
	}
	if _, err := c.FindRun(nil, run); err != nil {
		t.Errorf("FindRun(%d): %v", run, err)
	}
}
