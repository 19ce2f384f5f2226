package main

import (
	"bytes"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"sdm"
	"sdm/internal/server"
)

// testdata/wire1 holds a bundle and the text the parent commit's sdmcat
// printed over it (see the root package's TestWireGoldens).
const wire1 = "../../testdata/wire1"

// TestGoldenText: the same arguments print the same bytes as before the
// tool moved onto wire.Reader, and the same bytes whether the bundle is
// a local directory or behind a daemon.
func TestGoldenText(t *testing.T) {
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

	for golden, args := range map[string][]string{
		"sdmcat-list.txt":               {"-list"},
		"sdmcat-pressure-ts1-head5.txt": {"-run", "1", "-dataset", "pressure", "-timestep", "1", "-head", "5"},
	} {
		want, err := os.ReadFile(filepath.Join(wire1, golden))
		if err != nil {
			t.Fatal(err)
		}
		for where, argv := range map[string][]string{
			"local":  append(append([]string{}, args...), dir),
			"remote": append([]string{"-remote", hs.URL}, args...),
		} {
			var got bytes.Buffer
			if err := run(argv, &got); err != nil {
				t.Fatalf("%s %v: %v", where, argv, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s sdmcat %v printed\n%s\nwant\n%s", where, args, got.Bytes(), want)
			}
		}
	}
}

// TestNegativeHeadRefused: -head below zero is a usage error, not a
// request for every value.
func TestNegativeHeadRefused(t *testing.T) {
	err := run([]string{"-dataset", "pressure", "-head", "-3", "bundle"}, io.Discard)
	if !errors.As(err, new(usage)) {
		t.Fatalf("run(-head -3) = %v, want a usage error", err)
	}
}
