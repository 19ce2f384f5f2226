package sdm

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"sdm/internal/pfs"
	"sdm/internal/server"
	"sdm/sdmclient"
)

// TestServeBundleOverHTTP is the end-to-end network path: one cluster
// writes a run and saves a bundle; a fresh cluster opens the bundle
// and serves it through the sdmd core; a client reads every slab over
// HTTP and must get bytes identical to the local catalog-resolved read
// — the same identity sdmcat -remote is held to in CI against a real
// second OS process.
func TestServeBundleOverHTTP(t *testing.T) {
	const (
		procs   = 4
		globalN = 1 << 12
		steps   = 3
	)
	dir := filepath.Join(t.TempDir(), "bundle")
	writer := NewCluster(ClusterConfig{Procs: procs})
	writeDemoRun(t, writer, globalN, steps)
	if err := writer.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}

	cl, err := OpenBundle(dir, ClusterConfig{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{BlockSize: 64 << 10})
	if err := srv.Mount("bundle", server.Source{Catalog: cl.Catalog, FS: cl.FS}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	c := sdmclient.New(hs.URL)
	runs, err := c.Runs()
	if err != nil || len(runs) == 0 {
		t.Fatalf("runs = %v, %v", runs, err)
	}
	run := runs[len(runs)-1].RunID
	if dss, err := c.Datasets(run); err != nil || len(dss) != 2 {
		t.Fatalf("run %d lists datasets %v (%v), want 2", run, dss, err)
	}

	cl.Catalog.SetAccessCost(0)
	for ts := int64(0); ts < steps; ts++ {
		for _, ds := range []string{"pressure", "velocity"} {
			// Local read, exactly as sdmcat computes it.
			info, rec, err := cl.Catalog.Slab(nil, run, ds, ts)
			if err != nil {
				t.Fatalf("Slab(%s@%d): %v", ds, ts, err)
			}
			want := make([]byte, info.GlobalSize*8)
			h, err := cl.FS.Open(rec.FileName, pfs.ReadOnly, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.ReadAtVec(want, []pfs.Extent{{Off: rec.FileOffset, Len: int64(len(want))}}); err != nil {
				t.Fatal(err)
			}

			got, err := c.ReadDataset(run, ds, ts)
			if err != nil {
				t.Fatalf("remote read %s@%d: %v", ds, ts, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("remote read %s@%d: bytes differ from local bundle read", ds, ts)
			}
		}
	}

	// The slabs were each read once remotely after block-cache warmup
	// within the read; a second full pass must be all hits.
	before := srv.CacheStats()
	for ts := int64(0); ts < steps; ts++ {
		for _, ds := range []string{"pressure", "velocity"} {
			if _, err := c.ReadDataset(run, ds, ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := srv.CacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("warm pass added no cache hits: before %+v after %+v", before, after)
	}
}
