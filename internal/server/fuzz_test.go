package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"sdm/internal/catalog"
	"sdm/internal/metadb"
	"sdm/internal/pfs"
	"sdm/internal/server"
	"sdm/internal/store"
	"sdm/internal/wire"
)

// FuzzServeHTTP throws arbitrary request targets and bodies at the
// daemon core over a small in-memory bundle (run 1: "pressure" and
// "velocity", 3 timesteps of 32 doubles in one file, the shape of the
// testdata/wire1 bundle the seeds were recorded against). Whatever
// arrives, sdmd must not panic or hang, and every refusal must be the
// protocol's: a wire.Error JSON body whose code is the one its status
// maps to. The one reply that is not sdmd's own is net/http's 301 to the
// cleaned form of a path with "//" or ".." in it.
func FuzzServeHTTP(f *testing.F) {
	cat := catalog.New(metadb.New())
	if err := cat.EnsureSchema(); err != nil {
		f.Fatal(err)
	}
	fs := pfs.NewSystemOn(pfs.DefaultConfig(), store.NewMem())
	run, err := cat.RegisterRun(nil, "fuzz", 3, 0, 0, time.Date(2001, 2, 20, 12, 0, 0, 0, time.UTC))
	if err != nil {
		f.Fatal(err)
	}
	const slab = 32 * 8
	var recs []catalog.WriteRecord
	for i, ds := range []string{"pressure", "velocity"} {
		err := cat.RegisterDataset(nil, catalog.DatasetInfo{RunID: run, Dataset: ds, AccessPattern: "IRREGULAR",
			DataType: "DOUBLE", StorageOrder: "ROW_MAJOR", GlobalSize: 32})
		if err != nil {
			f.Fatal(err)
		}
		for ts := int64(0); ts < 3; ts++ {
			recs = append(recs, catalog.WriteRecord{RunID: run, Dataset: ds, Timestep: ts,
				FileOffset: (2*ts + int64(i)) * slab, FileName: "fuzz_r1_g0.dat"})
		}
	}
	if err := cat.RecordWrites(nil, recs); err != nil {
		f.Fatal(err)
	}
	if err := fs.WriteFile("fuzz_r1_g0.dat", bytes.NewReader(bytes.Repeat([]byte{0xA5}, 6*slab))); err != nil {
		f.Fatal(err)
	}
	srv := server.New(server.Config{BlockSize: 64, CacheBytes: 4 << 10})
	if err := srv.Mount("bundle", server.Source{Catalog: cat, FS: fs}); err != nil {
		f.Fatal(err)
	}

	seedBody := func(name string) []byte {
		raw, err := os.ReadFile("../../testdata/wire1/" + name)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	for _, target := range []string{
		"/v1/ping", "/v1/runs", "/v1/runs?bundle=bundle", "/v1/runs?bundle=nope", "/v1/histories",
		"/v1/runs/1/datasets", "/v1/runs/1/writes", "/v1/runs/1/imports", "/v1/runs/2/imports", "/v1/runs/x/writes",
		"/v1/read/1/pressure/1", "/v1/read/1/pressure/1?off=8&len=16&bundle=bundle", "/v1/read/1/velocity/2?off=999999999",
		"/v1/read/1/pressure/1?off=4611686018427387904&len=4611686018427387904", "/v1/read/1/pressure/1?len=-1",
		"/v1/read/9/pressure/1", "/v1/read/1/nosuch/1", "/v1/read/1/pressure/99", "/v1/read/1/a%2Fb/0",
		"/v1/sessions/nosuch", "/v1/cache", "/v1/metrics", "/v1//runs", "/v2/runs", "/",
	} {
		f.Add(uint8(0), target, []byte(nil))
		f.Add(uint8(2), target, []byte(nil))
	}
	// /v1/sessions names no endpoint; its seeds hold a POST with a body
	// to the catch-all's refusal.
	for _, body := range [][]byte{seedBody("lookup.req.json"), seedBody("lookup-empty.req.json"), []byte(`{"run":1}`)} {
		f.Add(uint8(1), "/v1/runs/1/lookup", body)
		f.Add(uint8(1), "/v1/sessions", body)
	}
	f.Add(uint8(1), "/v1/sessions?bundle=bundle", []byte(`{"bundle":"nope","run":-3}`))
	f.Add(uint8(1), "/v1/runs/1/lookup", []byte(`{"keys":[{"dataset":7}]}`))

	codes := map[int]string{
		http.StatusNotFound:                     wire.CodeNotFound,
		http.StatusBadRequest:                   wire.CodeBadRequest,
		http.StatusRequestedRangeNotSatisfiable: wire.CodeRange,
		http.StatusInternalServerError:          wire.CodeInternal,
	}
	f.Fuzz(func(t *testing.T, method uint8, target string, body []byte) {
		verb := []string{http.MethodGet, http.MethodPost, http.MethodDelete}[method%3]
		req, err := http.NewRequest(verb, "http://sdmd"+target, bytes.NewReader(body))
		if err != nil {
			t.Skip() // not a request any HTTP server would be handed
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		status := rec.Code
		switch {
		case status >= 200 && status < 300:
			if cl := rec.Header().Get("Content-Length"); cl != "" && cl != strconv.Itoa(rec.Body.Len()) {
				t.Fatalf("%s %q: Content-Length %s, body of %d bytes", verb, target, cl, rec.Body.Len())
			}
		case status == http.StatusMovedPermanently && rec.Header().Get("Location") != "":
		default:
			var we wire.Error
			if err := json.Unmarshal(rec.Body.Bytes(), &we); err != nil {
				t.Fatalf("%s %q: status %d with a body that is not a wire.Error: %q", verb, target, status, rec.Body.Bytes())
			}
			if want, ok := codes[status]; !ok || we.Code != want || we.Message == "" {
				t.Fatalf("%s %q: status %d carries %+v", verb, target, status, we)
			}
		}
	})
}

// A catalog row the JSON encoder refuses — a stamp past year 9999 — is
// answered with the error envelope, not with a 200 and no body.
func TestUnencodableRowIsAnError(t *testing.T) {
	cat := catalog.New(metadb.New())
	if err := cat.EnsureSchema(); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.RegisterRun(nil, "far-future", 3, 0, 0, time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.Mount("bundle", server.Source{Catalog: cat, FS: pfs.NewSystemOn(pfs.DefaultConfig(), store.NewMem())}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs", nil))
	var we wire.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &we); err != nil || rec.Code != http.StatusInternalServerError || we.Code != wire.CodeInternal {
		t.Fatalf("status %d, body %q (%v)", rec.Code, rec.Body.Bytes(), err)
	}
}
