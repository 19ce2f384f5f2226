package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// goldenField is a float64 run shaped like a checkpoint field: a
// smooth, slowly drifting wave sampled at binary fractions, so each
// value's low mantissa bytes are zero and its high bytes repeat.
// shift moves the wave's phase.
func goldenField(n, shift int) []byte {
	b := make([]byte, 0, 8*n)
	for i := range n {
		t := (i + shift) % 128
		if t > 64 {
			t = 128 - t
		}
		v := 300 + float64(t)/16 + float64(i)/1024
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// goldenVarints is an n-byte run shaped like the compact index history:
// three zigzag delta varints per edge (id, first endpoint, second
// endpoint from the first), mostly one byte, in records that are not
// 8 bytes long.
func goldenVarints(n int) []byte {
	rng := rand.New(rand.NewSource(3))
	var b []byte
	var g, u, e1 int64
	for len(b) < n {
		e := g + 1
		if rng.Intn(8) == 0 {
			e += int64(rng.Intn(40))
		}
		if rng.Intn(3) == 0 {
			e1++
		}
		e2 := e1 + []int64{1, 40, 1600}[rng.Intn(3)]
		b = binary.AppendVarint(b, e-g)
		b = binary.AppendVarint(b, e1-u)
		b = binary.AppendVarint(b, e2-e1)
		g, u = e, e1
	}
	return b[:n]
}

// goldenObjects is what testdata/cas1 holds: a cas root written with
// 1 KiB chunks and Compress on by the last build that stored every
// chunk plain flate (manifest format 1).
var goldenObjects = map[string][]byte{
	"field.f64":      goldenField(384, 0),
	"history.varint": goldenVarints(1500),
}

// readAll reads object name of b whole.
func readAll(t *testing.T, b Backend, name string) []byte {
	t.Helper()
	o, err := b.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, o.Size())
	if n, err := o.ReadAt(got, 0); n != len(got) || err != nil && err != io.EOF {
		t.Fatalf("reading %q: (%d, %v)", name, n, err)
	}
	return got
}

// readManifest decodes root's objects.json.
func readManifest(t *testing.T, root string) casManifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, casManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m casManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCASFormat1Golden: a cas root written before chunks could be
// byte-shuffled reads back byte for byte, is clean to CheckRefs and the
// orphan sweep, and keeps its plain-flate chunk files as they are when
// a later write shares their content; the next Sync writes format 2.
func TestCASFormat1Golden(t *testing.T) {
	const golden = "testdata/cas1"
	root := t.TempDir()
	if err := os.CopyFS(root, os.DirFS(golden)); err != nil {
		t.Fatal(err)
	}
	old := readManifest(t, golden)
	if old.Format != 1 {
		t.Fatalf("golden manifest is format %d, want 1", old.Format)
	}
	c, err := OpenCAS(root, CASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range goldenObjects {
		if got := readAll(t, c, name); !bytes.Equal(got, want) {
			t.Errorf("%s reads other bytes than were written", name)
		}
	}
	if err := c.CheckRefs(); err != nil {
		t.Error(err)
	}
	if n, err := c.RemoveOrphanChunkFiles(); n != 0 || err != nil {
		t.Errorf("orphan sweep removed %d files (%v), want 0", n, err)
	}

	more := append(bytes.Clone(goldenObjects["field.f64"]), goldenField(256, 40)...)
	o, err := c.Create("more.f64")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt(more, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, root)
	if m.Format != casFormat {
		t.Errorf("Sync wrote format %d, want %d", m.Format, casFormat)
	}
	for key, pe := range old.Pool {
		if m.Pool[key] != pe {
			t.Errorf("chunk %s is now %+v, want it kept as %+v", key, m.Pool[key], pe)
		}
		path := filepath.Join(key[:2], key)
		was, err := os.ReadFile(filepath.Join(golden, "chunks", path))
		if err != nil {
			t.Fatal(err)
		}
		if is, err := os.ReadFile(filepath.Join(root, "chunks", path)); err != nil || !bytes.Equal(is, was) {
			t.Errorf("chunk file %s changed (%v)", key, err)
		}
	}
	if st := c.Stats(); st.ShuffledChunks != 2 || st.UniqueChunks != len(old.Pool)+2 {
		t.Errorf("after the new write: %+v, want its 2 new chunks shuffled", st)
	}

	again, err := OpenCAS(root, CASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all := maps.Clone(goldenObjects)
	all["more.f64"] = more
	for name, want := range all {
		if got := readAll(t, again, name); !bytes.Equal(got, want) {
			t.Errorf("reopened: %s reads other bytes than were written", name)
		}
	}
	if err := again.CheckRefs(); err != nil {
		t.Error(err)
	}
}
