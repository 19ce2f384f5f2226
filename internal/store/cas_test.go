package store

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
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
