package sdm_test

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdm"
	"sdm/internal/catalog"
	"sdm/internal/server"
	"sdm/meshgen"
	"sdm/partitioner"
)

// testdata/wire1 was written by the commit before the six catalog row
// types moved into internal/wire (PR 22's parent): a dir-backed bundle
// holding an examples/restart-shaped run and a history-registering run,
// the exact body sdmd answered each request below with, and the text
// sdmcat and sdmls printed over the same bundle (cmd/sdmcat and
// cmd/sdmls hold those tests). TestWireGoldens serves the checked-in
// bundle from this build and requires the same bytes. Regenerate only on
// a deliberate protocol change, on the commit whose answers are the
// reference:
//
//	go test -run TestWireGoldens -update-wire1 .
var updateWire1 = flag.Bool("update-wire1", false, "rewrite testdata/wire1 from this build")

const wire1 = "testdata/wire1"

// wireRequests names every golden body and the request it answers; a
// POST's body is the checked-in file beside it.
var wireRequests = []struct{ file, method, path, body string }{
	{"runs.json", "GET", "/v1/runs", ""},
	{"run1-datasets.json", "GET", "/v1/runs/1/datasets", ""},
	{"run1-writes.json", "GET", "/v1/runs/1/writes", ""},
	{"run1-imports.json", "GET", "/v1/runs/1/imports", ""},
	{"run2-imports.json", "GET", "/v1/runs/2/imports", ""},
	{"histories.json", "GET", "/v1/histories", ""},
	{"lookup.json", "POST", "/v1/runs/1/lookup", "lookup.req.json"},
	{"lookup-empty.json", "POST", "/v1/runs/1/lookup", "lookup-empty.req.json"},
}

// writeWireBundle runs the two applications the goldens describe and
// saves them as a dir-backed bundle: run 1 is examples/restart at a
// checked-in size, run 2 imports a mesh's edges and registers the index
// history. Finalize releases a run's import list, so run 2's rows are
// put back the way a bundle saved mid-run would hold them.
func writeWireBundle(t *testing.T, dir string) {
	t.Helper()
	const (
		procs   = 4
		globalN = 256
		steps   = 3
	)
	cl := sdm.NewCluster(sdm.ClusterConfig{Procs: procs})
	names := []string{"pressure", "velocity"}
	err := cl.Run(func(p *sdm.Proc) {
		s, err := p.Initialize("restartdemo", sdm.Options{Organization: sdm.Level3})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		attrs := sdm.MakeDatalist(names...)
		for i := range attrs {
			attrs[i].GlobalSize = globalN
		}
		g, err := s.SetAttributes(attrs)
		if err != nil {
			t.Error(err)
			return
		}
		var mapArr []int32
		for gi := p.Rank(); gi < globalN; gi += p.Size() {
			mapArr = append(mapArr, int32(gi))
		}
		if _, err := g.DataView(names, mapArr); err != nil {
			t.Error(err)
			return
		}
		vals := make([]float64, len(mapArr))
		for ts := int64(0); ts < steps; ts++ {
			for _, ds := range names {
				h, err := sdm.DatasetOf[float64](g, ds)
				if err != nil {
					t.Error(err)
					return
				}
				for i, gi := range mapArr {
					vals[i] = float64(gi) + float64(ts)*0.001
					if ds == "velocity" {
						vals[i] = -float64(gi) - float64(ts)
					}
				}
				if err := h.PutAt(ts, vals); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	m, err := meshgen.GenerateTet(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	msh, layout, err := meshgen.EncodeMsh(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := partitioner.FromEdges(m.NumNodes(), m.Edge1, m.Edge2)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := partitioner.Multilevel(graph, procs, partitioner.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.StageFile("uns3d.msh", bytes.NewReader(msh)); err != nil {
		t.Fatal(err)
	}
	specs := []sdm.ImportSpec{
		{Name: "edge1", Type: sdm.Integer, FileOffset: layout.Edge1Offset(), Length: layout.NumEdges, Content: "INDEX"},
		{Name: "edge2", Type: sdm.Integer, FileOffset: layout.Edge2Offset(), Length: layout.NumEdges, Content: "INDEX"},
	}
	err = cl.Run(func(p *sdm.Proc) {
		s, err := p.Initialize("historydemo", sdm.Options{Organization: sdm.Level1})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		imp, err := s.MakeImportlist("uns3d.msh", specs)
		if err != nil {
			t.Error(err)
			return
		}
		ip, err := s.PartitionIndex(imp, "edge1", "edge2", vec)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.IndexRegistry(ip, layout.NumEdges, vec); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var held []catalog.ImportEntry
	for _, sp := range specs {
		held = append(held, catalog.ImportEntry{
			RunID: 2, ImportedName: sp.Name, FileName: "uns3d.msh", DataType: "INTEGER",
			StorageOrder: "ROW_MAJOR", Partition: "DISTRIBUTED", FileContent: sp.Content,
			FileOffset: sp.FileOffset, Length: sp.Length,
		})
	}
	if err := cl.Catalog.RegisterImports(nil, held); err != nil {
		t.Fatal(err)
	}
	if err := cl.SaveBundleOpts(dir, sdm.BundleOptions{Backend: "dir"}); err != nil {
		t.Fatal(err)
	}
}

func TestWireGoldens(t *testing.T) {
	if *updateWire1 {
		if err := os.RemoveAll(filepath.Join(wire1, "bundle")); err != nil {
			t.Fatal(err)
		}
		writeWireBundle(t, filepath.Join(wire1, "bundle"))
	}
	// Serve a copy: opening a bundle may run recovery in its directory.
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join(wire1, "bundle"))); err != nil {
		t.Fatal(err)
	}
	cl, err := sdm.OpenBundle(dir, sdm.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.Mount("bundle", server.Source{Catalog: cl.Catalog, FS: cl.FS}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	for _, rq := range wireRequests {
		var body io.Reader
		if rq.body != "" {
			raw, err := os.ReadFile(filepath.Join(wire1, rq.body))
			if err != nil {
				t.Fatal(err)
			}
			body = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(rq.method, hs.URL+rq.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, err %v", rq.method, rq.path, resp.StatusCode, err)
		}
		golden := filepath.Join(wire1, rq.file)
		if *updateWire1 {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s %s answered\n%s\nthe parent commit answered\n%s", rq.method, rq.path, got, want)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s %s: Content-Type %q", rq.method, rq.path, ct)
		}
	}
}
