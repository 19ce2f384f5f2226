package sdmclient_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sdm/internal/wire"
	"sdm/sdmclient"
)

// The bodies a real sdmd answered with (testdata/wire1, written by the
// commit before the row types moved into internal/wire; the root
// package's TestWireGoldens pins that this build's daemon still sends
// them).
const wire1 = "../testdata/wire1"

func golden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(wire1, name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// replay serves each golden body at the request it answered. A POST must
// carry the body the golden was recorded against, as JSON.
func replay(t *testing.T) *httptest.Server {
	t.Helper()
	routes := map[string]struct{ reply, want string }{
		"GET /v1/runs":            {reply: "runs.json"},
		"GET /v1/runs/1/datasets": {reply: "run1-datasets.json"},
		"GET /v1/runs/1/writes":   {reply: "run1-writes.json"},
		"GET /v1/runs/1/imports":  {reply: "run1-imports.json"},
		"GET /v1/runs/2/imports":  {reply: "run2-imports.json"},
		"GET /v1/histories":       {reply: "histories.json"},
		"POST /v1/runs/1/lookup":  {reply: "lookup.json", want: "lookup.req.json"},
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt, ok := routes[r.Method+" "+r.URL.Path]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(wire.Error{Code: wire.CodeNotFound, Message: "no golden for " + r.URL.Path})
			return
		}
		if rt.want != "" {
			got, _ := io.ReadAll(r.Body)
			if want := bytes.TrimSpace(golden(t, rt.want)); !bytes.Equal(got, want) {
				t.Errorf("%s %s sent %s, the recorded request is %s", r.Method, r.URL.Path, got, want)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(golden(t, rt.reply))
	}))
	t.Cleanup(hs.Close)
	return hs
}

// reencodes requires that what a typed call decoded marshals back to the
// body it was decoded from: no key the SDK's type drops or renames.
func reencodes(t *testing.T, name string, decoded any, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.TrimSpace(golden(t, name)); !bytes.Equal(got, want) {
		t.Errorf("%s decoded and re-encoded is\n%s\nwant\n%s", name, got, want)
	}
}

func TestTypedCallsDecodeGoldens(t *testing.T) {
	c := sdmclient.New(replay(t).URL)

	runs, err := c.Runs()
	reencodes(t, "runs.json", runs, err)
	stamp := time.Date(2001, 2, 20, 12, 0, 0, 0, time.UTC)
	if len(runs) != 2 || runs[1].Application != "historydemo" || !runs[0].Stamp.Equal(stamp) {
		t.Errorf("runs = %+v", runs)
	}
	datasets, err := c.Datasets(1)
	reencodes(t, "run1-datasets.json", datasets, err)
	if len(datasets) != 2 || datasets[0].Dataset != "pressure" || datasets[0].Bytes() != 2048 {
		t.Errorf("datasets = %+v", datasets)
	}
	writes, err := c.Writes(1)
	reencodes(t, "run1-writes.json", writes, err)
	if len(writes) != 6 || writes[4] != (wire.WriteRecord{RunID: 1, Dataset: "velocity", Timestep: 1,
		FileOffset: 6144, FileName: "restartdemo_r1_g0.dat"}) {
		t.Errorf("writes = %+v", writes)
	}
	none, err := c.Imports(1)
	reencodes(t, "run1-imports.json", none, err)
	imports, err := c.Imports(2)
	reencodes(t, "run2-imports.json", imports, err)
	if len(none) != 0 || len(imports) != 2 || imports[1].ImportedName != "edge2" || imports[1].FileOffset != 392 {
		t.Errorf("imports = %+v, %+v", none, imports)
	}
	hists, err := c.Histories()
	reencodes(t, "histories.json", hists, err)
	if len(hists) != 1 || hists[0].NProcs != 4 || hists[0].EdgeSizes != nil {
		t.Errorf("histories = %+v", hists)
	}

	recs, err := c.Lookup(1, []wire.WriteKey{{Dataset: "pressure", Timestep: 1}, {Dataset: "pressure", Timestep: 99}})
	reencodes(t, "lookup.json", wire.LookupResponse{Records: recs}, err)
	if len(recs) != 2 || recs[0] == nil || recs[0].FileOffset != 4096 || recs[1] != nil {
		t.Errorf("lookup = %+v", recs)
	}
}

// The two operator problems must not read alike: a healthy daemon that
// lacks the thing is ErrNotFound with the daemon's message, a daemon
// that is not there is ErrUnreachable.
func TestNotFoundIsNotUnreachable(t *testing.T) {
	hs := replay(t)
	_, err := sdmclient.New(hs.URL).Datasets(7)
	if !errors.Is(err, sdmclient.ErrNotFound) || errors.Is(err, sdmclient.ErrUnreachable) {
		t.Errorf("unknown run: %v", err)
	}
	hs.Close()
	_, err = sdmclient.New(hs.URL).Runs()
	if !errors.Is(err, sdmclient.ErrUnreachable) || errors.Is(err, sdmclient.ErrNotFound) {
		t.Errorf("closed daemon: %v", err)
	}
}
