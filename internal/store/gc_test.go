package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func fillObject(t *testing.T, b Backend, name string, data []byte) {
	t.Helper()
	o, err := b.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
}

// chunkFileCount counts the chunk files under a cas root.
func chunkFileCount(t *testing.T, root string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, "chunks", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// readBack opens name in b and checks it holds want.
func readBack(t *testing.T, b Backend, name string, want []byte) {
	t.Helper()
	o, err := b.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := o.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%q corrupted", name)
	}
}

// TestCASGCReclaimsDeadObjects: removing an object and syncing
// reclaims its now-unreferenced chunks, pool entries and files alike,
// while shared chunks and live objects survive intact, with refcounts
// consistent throughout and no orphan file left.
func TestCASGCReclaimsDeadObjects(t *testing.T) {
	root := t.TempDir()
	c, err := OpenCAS(root, CASOptions{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(seed byte) []byte { // 4 distinct 64-byte chunks
		out := make([]byte, 256)
		for i := range out {
			out[i] = seed + byte(i/64)
		}
		return out
	}
	shared := pattern(7) // chunks shared by both objects
	uniq := pattern(100)
	fillObject(t, c, "keep", shared)
	fillObject(t, c, "drop", append(append([]byte{}, shared...), uniq...))
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	before, filesBefore := c.Stats(), chunkFileCount(t, root)
	if err := c.Remove("drop"); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	// "drop" held the shared chunks (refcounted, they survive) plus 4
	// unique 64-byte chunks.
	after := c.Stats()
	if after.UniqueChunks != before.UniqueChunks-4 || after.StoredBytes != before.StoredBytes-256 || after.Objects != 1 {
		t.Fatalf("pool after remove: %+v (before %+v)", after, before)
	}
	if n := chunkFileCount(t, root); n != filesBefore-4 {
		t.Fatalf("%d chunk files after the Sync, want %d", n, filesBefore-4)
	}
	if n, err := c.OrphanChunkFiles(); err != nil || n != 0 {
		t.Fatalf("%d orphan chunk files (%v), want 0", n, err)
	}
	if err := c.CheckRefs(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCAS(root, CASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	readBack(t, c2, "keep", shared)
	if _, err := c2.Open("drop"); err == nil {
		t.Fatal("dead object still openable")
	}
}

// TestCASGCSweepsOrphanChunkFiles: chunk files on disk that no pool
// entry references (a crashed save) are counted and then deleted;
// referenced ones stay.
func TestCASGCSweepsOrphanChunkFiles(t *testing.T) {
	root := t.TempDir()
	c, err := OpenCAS(root, CASOptions{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{3}, 200)
	fillObject(t, c, "obj", data)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	orphanPath := plantOrphanChunk(t, root)
	if n, err := c.OrphanChunkFiles(); err != nil || n != 1 {
		t.Fatalf("counted %d orphan chunk files (%v), want the planted 1", n, err)
	}
	if _, err := os.Stat(orphanPath); err != nil {
		t.Fatalf("counting removed the orphan: %v", err)
	}
	if n, err := c.RemoveOrphanChunkFiles(); err != nil || n != 1 {
		t.Fatalf("removed %d orphan chunk files (%v), want the planted 1", n, err)
	}
	if _, err := os.Stat(orphanPath); !os.IsNotExist(err) {
		t.Fatal("orphan chunk file survived")
	}
	// The live object's chunks are still on disk and readable after a
	// fresh reopen.
	c2, err := OpenCAS(root, CASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	readBack(t, c2, "obj", data)
	if err := c2.CheckRefs(); err != nil {
		t.Fatal(err)
	}
}

// plantOrphanChunk writes a valid-looking chunk file the manifest (and
// pool) never heard of, as a crashed save leaves, and returns its path.
func plantOrphanChunk(t *testing.T, root string) string {
	t.Helper()
	key := sha256.Sum256([]byte("orphan"))
	h := hex.EncodeToString(key[:])
	path := filepath.Join(root, "chunks", h[:2], h)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCASOrphanScanSkipsFreedChunks: a chunk freed since the last Sync
// has no pool entry, but the manifest on disk still names it, so its
// file is not an orphan: removing orphans before the Sync must leave the
// synced state whole for a process that reopens the root.
func TestCASOrphanScanSkipsFreedChunks(t *testing.T) {
	root := t.TempDir()
	c, err := OpenCAS(root, CASOptions{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, b := bytes.Repeat([]byte("a"), 64), bytes.Repeat([]byte("b"), 64)
	fillObject(t, c, "a", a)
	fillObject(t, c, "b", b)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.OrphanChunkFiles(); err != nil || n != 0 {
		t.Fatalf("counted %d orphan chunk files (%v) before the Sync, want 0", n, err)
	}
	if n, err := c.RemoveOrphanChunkFiles(); err != nil || n != 0 {
		t.Fatalf("removed %d orphan chunk files (%v) before the Sync, want 0", n, err)
	}
	reopened, err := OpenCAS(root, CASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.CheckRefs(); err != nil {
		t.Fatalf("the synced state lost a chunk file: %v", err)
	}
	readBack(t, reopened, "a", a)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := chunkFileCount(t, root); n != 1 {
		t.Fatalf("after the Sync the root holds %d chunk files, want b's 1", n)
	}
}

// TestCheckRefsDetectsCorruption: a manually corrupted refcount is
// reported, not silently accepted.
func TestCheckRefsDetectsCorruption(t *testing.T) {
	c := openCAS(t, CASOptions{ChunkSize: 64})
	fillObject(t, c, "a", bytes.Repeat([]byte{1}, 64))
	c.mu.Lock()
	for _, ch := range c.pool {
		ch.refs++ // corrupt
	}
	c.mu.Unlock()
	if err := c.CheckRefs(); err == nil {
		t.Fatal("corrupted refcount not detected")
	}
	// An orphan is judged by the pool, so an unsound pool removes none.
	orphan := plantOrphanChunk(t, c.root)
	if n, err := c.RemoveOrphanChunkFiles(); err == nil || n != 0 {
		t.Fatalf("orphan removal on a corrupted pool: %d removed (%v), want a refusal", n, err)
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("orphan removed from a corrupted pool: %v", err)
	}
}

// TestCASGCRandomizedConsistency: random create/write/remove traffic,
// then removing a random half of the survivors and syncing, keeps
// refcounts consistent, leaves no orphan chunk file and every survivor
// byte-identical to a model map, also after a reopen.
func TestCASGCRandomizedConsistency(t *testing.T) {
	root := t.TempDir()
	c, err := OpenCAS(root, CASOptions{ChunkSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string][]byte)
	rng := uint64(12345)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for i := 0; i < 200; i++ {
		name := string(rune('a' + next(12)))
		switch next(3) {
		case 0:
			if _, ok := model[name]; !ok {
				data := bytes.Repeat([]byte{byte(next(5))}, 16+next(150))
				fillObject(t, c, name, data)
				model[name] = data
			}
		case 1:
			if _, ok := model[name]; ok {
				if err := c.Remove(name); err != nil {
					t.Fatal(err)
				}
				delete(model, name)
			}
		case 2:
			if err := c.CheckRefs(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	names, _ := c.List()
	for _, n := range names {
		if next(2) == 0 {
			if err := c.Remove(n); err != nil {
				t.Fatal(err)
			}
			delete(model, n)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckRefs(); err != nil {
		t.Fatal(err)
	}
	if n, err := c.OrphanChunkFiles(); err != nil || n != 0 {
		t.Fatalf("%d orphan chunk files (%v), want 0", n, err)
	}
	reopened, err := OpenCAS(root, CASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{c, reopened} {
		names, _ := b.List()
		if len(names) != len(model) {
			t.Fatalf("%d survivors, model has %d", len(names), len(model))
		}
		for _, n := range names {
			readBack(t, b, n, model[n])
		}
	}
}
