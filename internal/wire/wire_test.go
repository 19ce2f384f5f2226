package wire_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sdm/internal/wire"
)

// testdata/wire1 holds what sdmd sent before the row types were declared
// here (see the root package's TestWireGoldens). Every body must decode
// into its type with no key left over and encode back to the same bytes:
// the structs are the protocol.
func TestGoldensRoundTrip(t *testing.T) {
	for name, v := range map[string]any{
		"runs.json":             &[]wire.Run{},
		"run1-datasets.json":    &[]wire.Dataset{},
		"run1-writes.json":      &[]wire.WriteRecord{},
		"run1-imports.json":     &[]wire.ImportEntry{},
		"run2-imports.json":     &[]wire.ImportEntry{},
		"histories.json":        &[]wire.IndexHistory{},
		"lookup.req.json":       &wire.LookupRequest{},
		"lookup.json":           &wire.LookupResponse{},
		"lookup-empty.req.json": &wire.LookupRequest{},
		"lookup-empty.json":     &wire.LookupResponse{},
	} {
		raw, err := os.ReadFile(filepath.Join("../../testdata/wire1", name))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := bytes.TrimSpace(raw); !bytes.Equal(got, want) {
			t.Errorf("%s re-encodes as\n%s\nwant\n%s", name, got, want)
		}
	}
}

// The catalog fills an IndexHistory's per-rank sizes and a Run's stamp
// as a time; neither may change what the wire carries.
func TestCatalogOnlyFieldsStayOffTheWire(t *testing.T) {
	h := wire.IndexHistory{ProblemSize: 98, NumNodes: 27, NProcs: 2, Dimension: 1,
		FileName: "h.idx", EdgeSizes: []int64{50, 48}, NodeSizes: []int64{14, 13}}
	got, _ := json.Marshal(h)
	want := `{"problem_size":98,"num_nodes":27,"nprocs":2,"dimension":1,"registered_file_name":"h.idx"}`
	if string(got) != want {
		t.Errorf("history on the wire: %s, want %s", got, want)
	}
	r := wire.Run{RunID: 1, Stamp: time.Date(2001, 2, 20, 12, 0, 0, 0, time.UTC)}
	got, _ = json.Marshal(r)
	if !bytes.Contains(got, []byte(`"stamp":"2001-02-20T12:00:00Z"`)) {
		t.Errorf("run on the wire: %s", got)
	}
}

func TestDataTypeSize(t *testing.T) {
	for name, want := range map[string]int64{"DOUBLE": 8, "INTEGER": 4, "LONG": 8, "": 8, "COMPLEX": 8} {
		if got := wire.DataTypeSize(name); got != want {
			t.Errorf("DataTypeSize(%q) = %d, want %d", name, got, want)
		}
	}
	if d := (wire.Dataset{DataType: "INTEGER", GlobalSize: 98}); d.Bytes() != 392 {
		t.Errorf("slab of 98 INTEGERs = %d bytes", d.Bytes())
	}
}
