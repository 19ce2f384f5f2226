package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sdm/internal/catalog"
	"sdm/internal/metadb"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/server"
	"sdm/internal/store"
	"sdm/internal/wire"
	"sdm/sdmclient"
)

// fixture is a handcrafted bundle source: a catalog over an in-memory
// metadb and a pfs over an in-memory store, with deterministic slabs.
type fixture struct {
	src    server.Source
	fs     *pfs.System
	run    int64
	slabs  map[string][]byte // "dataset@ts" -> bytes
	global int64             // elements per dataset
}

// slabBytes builds the deterministic payload for (dataset, timestep).
func slabBytes(dataset string, ts, global int64) []byte {
	buf := make([]byte, global*8)
	for g := int64(0); g < global; g++ {
		v := float64(ts)*1e6 + float64(g) + float64(len(dataset))
		binary.LittleEndian.PutUint64(buf[g*8:], math.Float64bits(v))
	}
	return buf
}

func newFixture(t *testing.T, datasets []string, steps, global int64) *fixture {
	t.Helper()
	return newFixtureOn(t, store.NewMem(), datasets, steps, global)
}

// newFixtureOn builds the fixture's files on the given store backend.
func newFixtureOn(t *testing.T, be store.Backend, datasets []string, steps, global int64) *fixture {
	t.Helper()
	db := metadb.New()
	cat := catalog.New(db)
	if err := cat.EnsureSchema(); err != nil {
		t.Fatal(err)
	}
	cat.SetAccessCost(0)
	fs := pfs.NewSystemOn(pfs.DefaultConfig(), be)

	runID, err := cat.RegisterRun(nil, "fixture", 3, global, steps, time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{
		src:    server.Source{Catalog: cat, FS: fs},
		fs:     fs,
		run:    runID,
		slabs:  make(map[string][]byte),
		global: global,
	}
	// One file per timestep holding every dataset's slab back to back,
	// the shape SDM_write produces.
	for ts := int64(0); ts < steps; ts++ {
		name := fmt.Sprintf("run%d.ts%d.data", runID, ts)
		var file []byte
		for _, ds := range datasets {
			slab := slabBytes(ds, ts, global)
			if err := cat.RecordWrites(nil, []catalog.WriteRecord{{
				RunID: runID, Dataset: ds, Timestep: ts,
				FileOffset: int64(len(file)), FileName: name,
			}}); err != nil {
				t.Fatal(err)
			}
			fx.slabs[fmt.Sprintf("%s@%d", ds, ts)] = slab
			file = append(file, slab...)
		}
		if err := fs.WriteFile(name, bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ds := range datasets {
		if err := cat.RegisterDataset(nil, catalog.DatasetInfo{
			RunID: runID, Dataset: ds, AccessPattern: "IRREGULAR",
			DataType: "DOUBLE", StorageOrder: "ROW_MAJOR", GlobalSize: global,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

// newServer mounts the fixture and serves it from an httptest server.
func newServer(t *testing.T, cfg server.Config, fx *fixture) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(cfg)
	if err := srv.Mount("test", server.Source{Catalog: fx.src.Catalog, FS: fx.fs}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

func TestServerMetadataEndpoints(t *testing.T) {
	fx := newFixture(t, []string{"pressure", "velocity"}, 3, 64)
	_, hs := newServer(t, server.Config{}, fx)
	c := sdmclient.New(hs.URL)

	ping, err := c.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if !ping.OK || len(ping.Bundles) != 1 || ping.Bundles[0] != "test" {
		t.Fatalf("ping = %+v", ping)
	}
	runs, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].RunID != fx.run || runs[0].Application != "fixture" {
		t.Fatalf("runs = %+v", runs)
	}
	dss, err := c.Datasets(fx.run)
	if err != nil {
		t.Fatal(err)
	}
	if len(dss) != 2 || dss[0].GlobalSize != 64 || dss[0].DataType != "DOUBLE" {
		t.Fatalf("datasets = %+v", dss)
	}
	writes, err := c.Writes(fx.run)
	if err != nil {
		t.Fatal(err)
	}
	if len(writes) != 6 { // 2 datasets x 3 steps
		t.Fatalf("got %d writes, want 6", len(writes))
	}

	// Batched lookup: present and missing keys resolve in key order.
	recs, err := c.Lookup(fx.run, []wire.WriteKey{
		{Dataset: "pressure", Timestep: 2},
		{Dataset: "no-such", Timestep: 0},
		{Dataset: "velocity", Timestep: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0] == nil || recs[1] != nil || recs[2] == nil {
		t.Fatalf("lookup records = %+v", recs)
	}
	if recs[0].Timestep != 2 || recs[0].Dataset != "pressure" {
		t.Fatalf("lookup[0] = %+v", recs[0])
	}
}

// TestStatusMapping pins the HTTP status → error contract the CLI
// tools rely on to tell "daemon down" from "no such thing".
func TestStatusMapping(t *testing.T) {
	fx := newFixture(t, []string{"pressure"}, 1, 16)
	_, hs := newServer(t, server.Config{}, fx)
	c := sdmclient.New(hs.URL)

	if _, err := c.Datasets(999); !errors.Is(err, sdmclient.ErrNotFound) {
		t.Fatalf("unknown run: got %v, want ErrNotFound", err)
	}
	if _, err := c.ReadDataset(fx.run, "no-such", 0); !errors.Is(err, sdmclient.ErrNotFound) {
		t.Fatalf("unknown dataset: got %v, want ErrNotFound", err)
	}
	if _, err := c.ReadDataset(fx.run, "pressure", 42); !errors.Is(err, sdmclient.ErrNotFound) {
		t.Fatalf("unknown timestep: got %v, want ErrNotFound", err)
	}
	if _, err := c.ReadRange(fx.run, "pressure", 0, 0, 16*8+1); !errors.Is(err, sdmclient.ErrRange) {
		t.Fatalf("oversized range: got %v, want ErrRange", err)
	}
	if _, err := sdmclient.New(hs.URL, sdmclient.WithBundle("nope")).Runs(); !errors.Is(err, sdmclient.ErrNotFound) {
		t.Fatalf("unknown bundle: got %v, want ErrNotFound", err)
	}
	// A dead listener is a different error class entirely.
	dead := sdmclient.New("http://127.0.0.1:1")
	if _, err := dead.Ping(); !errors.Is(err, sdmclient.ErrUnreachable) {
		t.Fatalf("dead daemon: got %v, want ErrUnreachable", err)
	}

	// The JSON envelope carries the machine-readable code.
	resp, err := http.Get(hs.URL + "/v1/runs/999/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var we wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || we.Code != wire.CodeNotFound {
		t.Fatalf("status=%d code=%q", resp.StatusCode, we.Code)
	}
}

// TestReadBytesIdentical pins the tentpole promise in-process: every
// slab served over HTTP is byte-identical to the catalog-resolved
// local read, cold cache and warm.
func TestReadBytesIdentical(t *testing.T) {
	fx := newFixture(t, []string{"pressure", "velocity"}, 3, 128)
	srv, hs := newServer(t, server.Config{BlockSize: 1 << 10}, fx)
	c := sdmclient.New(hs.URL)

	for pass := 0; pass < 2; pass++ { // cold, then fully cached
		for key, want := range fx.slabs {
			ds, tsStr, ok := strings.Cut(key, "@")
			if !ok {
				t.Fatalf("unparseable key %q", key)
			}
			ts, err := strconv.ParseInt(tsStr, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.ReadDataset(fx.run, ds, ts)
			if err != nil {
				t.Fatalf("pass %d %s: %v", pass, key, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pass %d %s: remote bytes differ from local slab", pass, key)
			}
		}
	}
	st := srv.CacheStats()
	if st.Hits == 0 || st.HitRatio <= 0 {
		t.Fatalf("second pass produced no cache hits: %+v", st)
	}

	// Ranged reads splice correctly across block boundaries.
	want := fx.slabs["pressure@1"]
	got, err := c.ReadRange(fx.run, "pressure", 1, 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[100:600]) {
		t.Fatal("ranged read differs from slab slice")
	}
	// n = 0 is an empty range, not "to the end"; n < 0 is.
	if got, err := c.ReadRange(fx.run, "pressure", 1, 100, 0); err != nil || len(got) != 0 {
		t.Fatalf("zero-length range: %d bytes, err %v", len(got), err)
	}
	if got, err := c.ReadRange(fx.run, "pressure", 1, 100, -1); err != nil || !bytes.Equal(got, want[100:]) {
		t.Fatalf("range to the end: %d bytes, err %v", len(got), err)
	}
}

// TestReadRangeOverflowRejected drives the crafted ?off=&len= queries
// whose sum wraps negative: each must come back 416, not panic the
// read path.
func TestReadRangeOverflowRejected(t *testing.T) {
	fx := newFixture(t, []string{"pressure"}, 1, 16)
	_, hs := newServer(t, server.Config{}, fx)
	big := strconv.FormatInt(1<<62, 10)
	for _, q := range []string{
		"off=" + big + "&len=" + big,
		"off=" + big,
		"len=" + big,
		"off=9223372036854775807&len=1",
	} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/read/%d/pressure/0?%s", hs.URL, fx.run, q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("?%s: status %d, want 416", q, resp.StatusCode)
		}
	}
}

// TestDatasetNameEscaping reads a dataset whose name holds URL-hostile
// characters; the client escapes the path segment so the request still
// routes and the bytes still match.
func TestDatasetNameEscaping(t *testing.T) {
	const name = "p 100%"
	fx := newFixture(t, []string{name}, 1, 16)
	_, hs := newServer(t, server.Config{}, fx)
	c := sdmclient.New(hs.URL)
	got, err := c.ReadDataset(fx.run, name, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fx.slabs[name+"@0"]) {
		t.Fatal("escaped dataset name read wrong bytes")
	}
}

// TestSessionPathsAreNoEndpoint: sdmd keeps no per-client state. The
// /v1/sessions paths get the catch-all's not_found envelope, and a read
// carrying an X-Sdm-Session header is served the bytes of one without.
func TestSessionPathsAreNoEndpoint(t *testing.T) {
	fx := newFixture(t, []string{"pressure"}, 2, 32)
	_, hs := newServer(t, server.Config{}, fx)
	for _, rq := range []struct{ method, path string }{
		{http.MethodPost, "/v1/sessions"},
		{http.MethodGet, "/v1/sessions/x"},
		{http.MethodDelete, "/v1/sessions/x"},
	} {
		req, _ := http.NewRequest(rq.method, hs.URL+rq.path, strings.NewReader(`{"run":1}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var we wire.Error
		err = json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusNotFound || we.Code != wire.CodeNotFound || we.Message == "" {
			t.Errorf("%s %s: status %d, body %+v (%v)", rq.method, rq.path, resp.StatusCode, we, err)
		}
	}

	read := func(session string) []byte {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/read/%d/pressure/1", hs.URL, fx.run), nil)
		if session != "" {
			req.Header.Set("X-Sdm-Session", session)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("read with session %q: status %d, err %v", session, resp.StatusCode, err)
		}
		return body
	}
	plain := read("")
	if !bytes.Equal(plain, fx.slabs["pressure@1"]) {
		t.Fatal("read differs from the slab")
	}
	for _, id := range []string{"0123456789abcdef01234567", "nosuch", " "} {
		if !bytes.Equal(read(id), plain) {
			t.Errorf("read with session %q differs from one without", id)
		}
	}
}

// TestHostileFileOffsetIsARangeError: a catalog row is outside input. A
// write record whose file_offset is negative or so near 2^63 that the
// slab's end wraps, or whose dataset has a negative size, is a range
// refusal on the local read path and a 416 over HTTP — never a panic in
// the cas object beneath.
func TestHostileFileOffsetIsARangeError(t *testing.T) {
	cas, err := store.OpenCAS(t.TempDir(), store.CASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fx := newFixtureOn(t, cas, []string{"pressure"}, 1, 16)
	cat := fx.src.Catalog
	file := fmt.Sprintf("run%d.ts0.data", fx.run)
	hostile := []struct {
		dataset    string
		global     int64
		fileOffset int64
	}{
		{"negative", 16, -64},
		{"wrapping", 16, math.MaxInt64 - 64},
		{"unsized", -2, 0},
	}
	for _, h := range hostile {
		if err := cat.RegisterDataset(nil, catalog.DatasetInfo{RunID: fx.run, Dataset: h.dataset,
			AccessPattern: "IRREGULAR", DataType: "DOUBLE", StorageOrder: "ROW_MAJOR", GlobalSize: h.global}); err != nil {
			t.Fatal(err)
		}
		if err := cat.RecordWrites(nil, []catalog.WriteRecord{{RunID: fx.run, Dataset: h.dataset,
			Timestep: 0, FileOffset: h.fileOffset, FileName: file}}); err != nil {
			t.Fatal(err)
		}
	}
	_, hs := newServer(t, server.Config{}, fx)
	c := sdmclient.New(hs.URL)
	for _, h := range hostile {
		if _, err := fx.src.ReadDataset(fx.run, h.dataset, 0); err == nil || server.WireCode(err) != wire.CodeRange {
			t.Errorf("local read of %s: %v, want a range refusal", h.dataset, err)
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/read/%d/%s/0", hs.URL, fx.run, h.dataset))
		if err != nil {
			t.Fatal(err)
		}
		var we wire.Error
		err = json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusRequestedRangeNotSatisfiable || we.Code != wire.CodeRange {
			t.Errorf("HTTP read of %s: status %d, body %+v (%v)", h.dataset, resp.StatusCode, we, err)
		}
		if _, err := c.ReadDataset(fx.run, h.dataset, 0); !errors.Is(err, sdmclient.ErrRange) {
			t.Errorf("client read of %s: %v, want ErrRange", h.dataset, err)
		}
	}
	// The well-placed slab beside them still reads.
	if got, err := fx.src.ReadDataset(fx.run, "pressure", 0); err != nil || !bytes.Equal(got, fx.slabs["pressure@0"]) {
		t.Fatalf("local read of pressure: %v", err)
	}
}

// TestConcurrentClients is the acceptance-bar race test: >= 8
// concurrent clients mixing list, lookup, and reads against one daemon. Run under -race it pins "catalog and cache are
// safe for concurrent readers".
func TestConcurrentClients(t *testing.T) {
	fx := newFixture(t, []string{"pressure", "velocity"}, 4, 256)
	reg := obs.NewRegistry()
	srv, hs := newServer(t, server.Config{BlockSize: 1 << 10, Metrics: reg}, fx)

	const clients = 10
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			c := sdmclient.New(hs.URL)
			for op := 0; op < 40; op++ {
				switch rng.Intn(4) {
				case 0:
					if _, err := c.Runs(); err != nil {
						t.Errorf("runs: %v", err)
						return
					}
				case 1:
					if _, err := c.Lookup(fx.run, []wire.WriteKey{
						{Dataset: "pressure", Timestep: rng.Int63n(4)},
						{Dataset: "velocity", Timestep: rng.Int63n(4)},
					}); err != nil {
						t.Errorf("lookup: %v", err)
						return
					}
				case 2:
					ds := []string{"pressure", "velocity"}[rng.Intn(2)]
					ts := rng.Int63n(4)
					got, err := c.ReadDataset(fx.run, ds, ts)
					if err != nil {
						t.Errorf("read %s@%d: %v", ds, ts, err)
						return
					}
					if want := fx.slabs[fmt.Sprintf("%s@%d", ds, ts)]; !bytes.Equal(got, want) {
						t.Errorf("read %s@%d: wrong bytes under concurrency", ds, ts)
						return
					}
				case 3:
					if _, err := c.Datasets(fx.run); err != nil {
						t.Errorf("datasets: %v", err)
						return
					}
				}
			}
		}(int64(1000 + i))
	}
	wg.Wait()

	snap := reg.Snapshot()
	if snap["server.requests"] == 0 || snap["server.bytes-served"] == 0 {
		t.Fatalf("metrics unwired: %v", snap)
	}
	if st := srv.CacheStats(); st.Hits == 0 {
		t.Fatalf("hot slabs produced no cache hits: %+v", st)
	}
}

// TestRequestSpans checks the per-request tracing hook emits one span
// per request on the sdmd track.
func TestRequestSpans(t *testing.T) {
	fx := newFixture(t, []string{"pressure"}, 1, 16)
	tr := obs.NewTracer()
	_, hs := newServer(t, server.Config{Tracer: tr}, fx)
	c := sdmclient.New(hs.URL)
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadDataset(fx.run, "pressure", 0); err != nil {
		t.Fatal(err)
	}
	var got int
	for _, sp := range tr.Spans() {
		if sp.Pid == obs.PidSDMD {
			got++
		}
	}
	if got != 2 {
		t.Fatalf("recorded %d sdmd spans, want 2", got)
	}
}
