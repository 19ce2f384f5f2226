package store

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// openCAS opens a content-addressed backend rooted in a fresh temp
// directory.
func openCAS(t *testing.T, opts CASOptions) *CAS {
	t.Helper()
	c, err := OpenCAS(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOpenCASNeedsRoot: a CAS is always rooted on a directory.
func TestOpenCASNeedsRoot(t *testing.T) {
	if c, err := OpenCAS("", CASOptions{}); err == nil || c != nil {
		t.Fatalf("OpenCAS(\"\") = %v, %v; want a refusal", c, err)
	}
}

// TestCASSyncFailsOnFailedFileSync: Sync fsyncs every chunk file it
// writes, and a failing fsync is Sync's error, not a silently
// undurable save.
func TestCASSyncFailsOnFailedFileSync(t *testing.T) {
	c := openCAS(t, CASOptions{ChunkSize: 64})
	o, err := c.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt(bytes.Repeat([]byte{7}, 200), 0); err != nil {
		t.Fatal(err)
	}
	errSync := errors.New("fsync failed")
	real := Fsync
	defer func() { Fsync = real }()
	var files, dirs int
	Fsync = func(path string) error {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		if fi.IsDir() {
			dirs++
			return real(path)
		}
		files++
		return errSync
	}
	if err := c.Sync(); !errors.Is(err, errSync) {
		t.Fatalf("Sync with failing file fsyncs = %v, want %v", err, errSync)
	}
	if files != 1 {
		t.Errorf("Sync went on after a failed file fsync: %d file fsyncs", files)
	}

	// With fsync working, the new chunk files, their directories and
	// chunks/, the manifest and the root are all synced.
	Fsync = func(path string) error {
		if fi, err := os.Stat(path); err == nil && fi.IsDir() {
			dirs++
		} else {
			files++
		}
		return real(path)
	}
	files, dirs = 0, 0
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	// 200 bytes of one value in 64-byte chunks: a full chunk (three
	// slots) and an 8-byte tail, two distinct chunks.
	if files != 2+1 || dirs < 1+1+1 {
		t.Errorf("Sync fsynced %d files and %d directories, want 3 files and at least 3 directories", files, dirs)
	}
}

// TestCASDedupRatio writes many objects sharing identical content and
// asserts the pool stores each distinct chunk once: stored bytes must
// be a small fraction of logical bytes.
func TestCASDedupRatio(t *testing.T) {
	c := openCAS(t, CASOptions{})
	payload := make([]byte, 8*DefaultChunkSize)
	rand.New(rand.NewSource(1)).Read(payload)
	const copies = 10
	for i := 0; i < copies; i++ {
		o, err := c.Create(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.LogicalBytes != int64(copies*len(payload)) {
		t.Fatalf("logical bytes = %d, want %d", st.LogicalBytes, copies*len(payload))
	}
	// Ten identical copies of incompressible data: the pool should hold
	// ~one copy. Allow a little slack, demand at least 9x dedup.
	if ratio := float64(st.LogicalBytes) / float64(st.StoredBytes); ratio < 9 {
		t.Fatalf("dedup ratio = %.2fx (logical %d, stored %d), want >= 9x",
			ratio, st.LogicalBytes, st.StoredBytes)
	}
	if st.UniqueChunks != 8 {
		t.Fatalf("unique chunks = %d, want 8", st.UniqueChunks)
	}
	if st.ChunkRefs != int64(copies*8) {
		t.Fatalf("chunk refs = %d, want %d", st.ChunkRefs, copies*8)
	}
}

// TestCASCompressionRatio writes compressible data (the shape of
// smooth simulation fields) and asserts flate pulls stored bytes well
// below logical bytes even without any duplication.
func TestCASCompressionRatio(t *testing.T) {
	c := openCAS(t, CASOptions{Compress: true})
	payload := make([]byte, 16*DefaultChunkSize)
	for i := range payload {
		payload[i] = byte(i / 1024) // long runs: highly compressible
	}
	o, err := c.Create("field")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.CompressedChunks == 0 {
		t.Fatal("no chunks were stored compressed")
	}
	if ratio := float64(st.LogicalBytes) / float64(st.StoredBytes); ratio < 4 {
		t.Fatalf("compression ratio = %.2fx (logical %d, stored %d), want >= 4x",
			ratio, st.LogicalBytes, st.StoredBytes)
	}
	// Compressed storage must still read back exactly.
	got := make([]byte, len(payload))
	if _, err := o.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("compressed round trip diverged")
	}
}

// TestCASPersistRoundTrip syncs a disk-rooted cas, reopens it as a new
// instance (a second OS process in miniature), and reads everything
// back, including after a mutate-and-resync cycle.
func TestCASPersistRoundTrip(t *testing.T) {
	root := t.TempDir()
	payload := make([]byte, 3*1024)
	rand.New(rand.NewSource(2)).Read(payload)

	c1, err := OpenCAS(root, CASOptions{ChunkSize: 1024, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	o, err := c1.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt(payload, 100); err != nil {
		t.Fatal(err)
	}
	if err := c1.Sync(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCAS(root, CASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.opts.ChunkSize; got != 1024 {
		t.Fatalf("reopened chunk size = %d, want 1024 from manifest", got)
	}
	o2, err := c2.Open("data")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100+len(payload))
	if _, err := o2.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:100], make([]byte, 100)) || !bytes.Equal(got[100:], payload) {
		t.Fatal("reopened contents diverged")
	}

	// Mutate through the reopened instance and round-trip once more.
	if _, err := o2.WriteAt([]byte("patch"), 50); err != nil {
		t.Fatal(err)
	}
	if err := c2.Sync(); err != nil {
		t.Fatal(err)
	}
	c3, err := OpenCAS(root, CASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o3, err := c3.Open("data")
	if err != nil {
		t.Fatal(err)
	}
	patch := make([]byte, 5)
	if _, err := o3.ReadAt(patch, 50); err != nil {
		t.Fatal(err)
	}
	if string(patch) != "patch" {
		t.Fatalf("patched read = %q", patch)
	}
}

// TestCASRemoveReclaims checks reference counting: removing one of two
// identical objects keeps the shared chunks; removing both empties the
// pool.
func TestCASRemoveReclaims(t *testing.T) {
	c := openCAS(t, CASOptions{ChunkSize: 256})
	payload := bytes.Repeat([]byte("chunky"), 200)
	for _, name := range []string{"a", "b"} {
		o, err := c.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	if err := c.Remove("a"); err != nil {
		t.Fatal(err)
	}
	mid := c.Stats()
	if mid.UniqueChunks != before.UniqueChunks || mid.StoredBytes != before.StoredBytes {
		t.Fatalf("shared chunks reclaimed too early: %+v -> %+v", before, mid)
	}
	if err := c.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats(); after.UniqueChunks != 0 || after.StoredBytes != 0 {
		t.Fatalf("pool not reclaimed: %+v", after)
	}
}

// TestCASChunkFilesGoOnlyAtSync: replacing a synced object frees its
// chunks, but their files stay until the next Sync has replaced the
// manifest that names them, so a process that never syncs leaves the
// synced state readable; that Sync then deletes them.
func TestCASChunkFilesGoOnlyAtSync(t *testing.T) {
	root := t.TempDir()
	c, err := OpenCAS(root, CASOptions{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		t.Helper()
		o, err := c.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
	chunkFiles := func() int {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(root, "chunks", "*", "*"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}
	old := bytes.Repeat([]byte("o"), 128)
	write("a", old)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	write("b", []byte("new"))
	if err := c.Rename("b", "a"); err != nil {
		t.Fatal(err)
	}
	if n := chunkFiles(); n != 1 {
		t.Fatalf("before Sync the root holds %d chunk files, want the synced 1", n)
	}
	reader, err := OpenCAS(root, CASOptions{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	o, err := reader.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(old))
	if _, err := o.ReadAt(got, 0); err != nil && err != io.EOF || !bytes.Equal(got, old) {
		t.Fatalf("the synced object reads %q (%v) before Sync, want %q", got, err, old)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := chunkFiles(); n != 1 {
		t.Fatalf("after Sync the root holds %d chunk files, want the new object's 1", n)
	}
	if n, err := c.OrphanChunkFiles(); err != nil || n != 0 {
		t.Fatalf("after Sync %d orphan chunk files (%v), want 0", n, err)
	}
}

// plainDeflateLen is the size of data's plain flate stream, at the
// level the cas uses.
func plainDeflateLen(t *testing.T, data []byte) int {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data)
	w.Close()
	return buf.Len()
}

// TestCASChunkCodec: each chunk is stored in the form that holds it in
// the fewest bytes, byte-shuffled flate, plain flate or raw, and reads
// back exactly. A float64 field shuffles, and that stores it in at most
// three quarters of its plain flate stream; delta varints, whose
// records are not 8 bytes long, stay plain; random bytes stay raw; and
// a chunk size that is not a multiple of 8 keeps its tail in place.
func TestCASChunkCodec(t *testing.T) {
	random := make([]byte, DefaultChunkSize)
	rand.New(rand.NewSource(5)).Read(random)
	for _, tc := range []struct {
		name                       string
		chunk                      int64
		data                       []byte
		compressed, shuffled, kept int // chunks in each form, of len(data)/chunk
	}{
		{"float64-field", DefaultChunkSize, goldenField(DefaultChunkSize/8, 0), 1, 1, 1},
		{"delta-varints", DefaultChunkSize, goldenVarints(DefaultChunkSize), 1, 0, 1},
		{"random", DefaultChunkSize, random, 0, 0, 1},
		{"chunk-4099", 4099, goldenField(4*4099/8+1, 0)[:4*4099], 4, 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := openCAS(t, CASOptions{ChunkSize: tc.chunk, Compress: true})
			o, err := c.Create("x")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.WriteAt(tc.data, 0); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, c, "x"); !bytes.Equal(got, tc.data) {
				t.Fatal("round trip diverged")
			}
			st := c.Stats()
			if st.UniqueChunks != tc.kept || st.CompressedChunks != tc.compressed || st.ShuffledChunks != tc.shuffled {
				t.Errorf("stats %+v, want %d chunks, %d compressed, %d shuffled", st, tc.kept, tc.compressed, tc.shuffled)
			}
			plain := plainDeflateLen(t, tc.data)
			t.Logf("%d bytes stored in %d; plain flate %d", len(tc.data), st.StoredBytes, plain)
			if tc.shuffled > 0 && st.StoredBytes > int64(plain)*3/4 {
				t.Errorf("shuffled chunks hold %d bytes, want at most 3/4 of plain flate's %d", st.StoredBytes, plain)
			}
			if tc.compressed > tc.shuffled && st.StoredBytes != int64(plain) {
				t.Errorf("plain chunks hold %d bytes, want plain flate's %d", st.StoredBytes, plain)
			}

			// The stored forms survive a Sync and a reopen.
			if err := c.Sync(); err != nil {
				t.Fatal(err)
			}
			again, err := OpenCAS(c.root, CASOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, again, "x"); !bytes.Equal(got, tc.data) {
				t.Fatal("reopened round trip diverged")
			}
			if st2 := again.Stats(); st2 != st {
				t.Errorf("reopened stats %+v, want %+v", st2, st)
			}
		})
	}
}

// TestShuffle8: shuffling groups byte b of every 8-byte element,
// leaves a tail shorter than 8 in place, and unshuffling undoes it.
func TestShuffle8(t *testing.T) {
	src := []byte("ABCDEFGHabcdefgh123")
	dst := shuffle8(make([]byte, len(src)), src)
	if want := "AaBbCcDdEeFfGgHh123"; string(dst) != want {
		t.Fatalf("shuffle8(%q) = %q, want %q", src, dst, want)
	}
	for n := range 40 {
		src := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(src)
		back := make([]byte, n)
		unshuffle8(back, shuffle8(make([]byte, n), src))
		if !bytes.Equal(back, src) {
			t.Fatalf("%d bytes: unshuffle8(shuffle8(x)) = %x, want %x", n, back, src)
		}
	}
}

// TestCASManifestFormatGuard: a manifest from a newer format, or one
// naming a chunk shuffled but not compressed, is refused as corrupt
// rather than read as scrambled bytes.
func TestCASManifestFormatGuard(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*casManifest)
	}{
		{"newer-format", func(m *casManifest) { m.Format = casFormat + 1 }},
		{"shuffled-uncompressed", func(m *casManifest) {
			for k, pe := range m.Pool {
				pe.Compressed = false
				m.Pool[k] = pe
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := openCAS(t, CASOptions{ChunkSize: 1024, Compress: true})
			o, err := c.Create("x")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.WriteAt(goldenField(128, 0), 0); err != nil {
				t.Fatal(err)
			}
			if err := c.Sync(); err != nil {
				t.Fatal(err)
			}
			m := readManifest(t, c.root)
			if m.Format != casFormat || len(m.Pool) != 1 {
				t.Fatalf("synced manifest: format %d, %d chunks", m.Format, len(m.Pool))
			}
			for _, pe := range m.Pool {
				if !pe.Shuffled {
					t.Fatal("the field chunk was not stored shuffled")
				}
			}
			tc.edit(&m)
			data, err := json.Marshal(&m)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(c.root, casManifestName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenCAS(c.root, CASOptions{}); err == nil || !strings.Contains(err.Error(), "corrupt cas manifest") {
				t.Fatalf("OpenCAS = %v, want a corrupt-manifest error", err)
			}
		})
	}
}

// FuzzCASChunk replaces one chunk file of a synced cas, one stored
// byte-shuffled, plain flate or raw, with the fuzzed bytes. Reading the
// object back returns either every original byte or an error: never a
// panic, other bytes, or a short read without an error.
func FuzzCASChunk(f *testing.F) {
	random := make([]byte, 1024)
	rand.New(rand.NewSource(9)).Read(random)
	want := slices.Concat(goldenField(128, 0), goldenVarints(1024), random)
	seedRoot := f.TempDir()
	c, err := OpenCAS(seedRoot, CASOptions{ChunkSize: 1024, Compress: true})
	if err != nil {
		f.Fatal(err)
	}
	o, err := c.Create("x")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := o.WriteAt(want, 0); err != nil {
		f.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		f.Fatal(err)
	}
	if st := c.Stats(); st.UniqueChunks != 3 || st.CompressedChunks != 2 || st.ShuffledChunks != 1 {
		f.Fatalf("seed cas %+v, want one chunk in each form", st)
	}
	files := make([][]byte, 3) // chunk files in object order
	for i, ch := range c.objs["x"].chunks {
		if files[i], err = os.ReadFile(c.chunkPath(ch.key)); err != nil {
			f.Fatal(err)
		}
	}
	manifest, err := os.ReadFile(filepath.Join(seedRoot, casManifestName))
	if err != nil {
		f.Fatal(err)
	}
	keys := c.objs["x"].chunks
	for i, file := range files {
		f.Add(uint8(i), file)
		f.Add(uint8(i), file[:len(file)/2])
		f.Add(uint8(i), file[:len(file)-1])
		flipped := bytes.Clone(file)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(uint8(i), flipped)
		f.Add(uint8(i), []byte{})
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, casManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		victim := int(which) % len(files)
		for i, ch := range keys {
			path := filepath.Join(root, "chunks", ch.key.hex()[:2], ch.key.hex())
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			file := files[i]
			if i == victim {
				file = data
			}
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := OpenCAS(root, CASOptions{})
		if err != nil {
			t.Fatal(err)
		}
		o, err := c.Open("x")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		n, err := o.ReadAt(got, 0)
		if err != nil {
			if bytes.Equal(data, files[victim]) {
				t.Fatalf("the intact chunk files read as an error: %v", err)
			}
			return
		}
		if n != len(want) || !bytes.Equal(got, want) {
			t.Fatalf("ReadAt = %d bytes without an error, and they differ from what was written", n)
		}
	})
}
