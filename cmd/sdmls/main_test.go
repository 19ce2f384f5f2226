package main

import (
	"bytes"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdm"
	"sdm/internal/server"
)

// testdata/wire1 holds a bundle and the text the parent commit's sdmls
// printed over its catalog.db (see the root package's TestWireGoldens).
const wire1 = "../../testdata/wire1"

// TestGoldenText: all five tables print the same bytes as before the
// tool moved onto wire.Reader, and the same bytes whether they come from
// a local catalog.db or from a daemon serving the bundle.
func TestGoldenText(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(wire1, "sdmls.txt"))
	if err != nil {
		t.Fatal(err)
	}
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

	for where, argv := range map[string][]string{
		"local":  {filepath.Join(dir, "catalog.db")},
		"remote": {"-remote", hs.URL},
	} {
		var got bytes.Buffer
		if err := run(argv, &got); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s sdmls printed\n%s\nwant\n%s", where, got.Bytes(), want)
		}
	}
}

// TestUnknownTableRefused: a -table that names no table is a usage
// error naming the valid ones, not an empty listing.
func TestUnknownTableRefused(t *testing.T) {
	err := run([]string{"-table", "bogus", "catalog.db"}, io.Discard)
	if !errors.As(err, new(usage)) || !strings.Contains(err.Error(), "runs, datasets, writes, imports, histories") {
		t.Fatalf("run(-table bogus) = %v, want a usage error naming the tables", err)
	}
}
