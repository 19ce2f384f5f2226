package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// TestCASGCReclaimsDeadObjects: a GC driven by a live set removes dead
// objects and their now-unreferenced chunks while shared chunks and
// live objects survive intact, with refcounts consistent throughout.
func TestCASGCReclaimsDeadObjects(t *testing.T) {
	c := openCAS(t, CASOptions{ChunkSize: 64})
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
	if err := c.CheckRefs(); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	st, err := c.GC(func(name string) bool { return name == "keep" })
	if err != nil {
		t.Fatal(err)
	}
	if st.ObjectsRemoved != 1 {
		t.Fatalf("removed %d objects, want 1", st.ObjectsRemoved)
	}
	// "drop" held the shared chunk (refcounted, survives) plus 4 unique
	// 64-byte chunks of nines.
	if st.ChunksReclaimed != 4 || st.BytesReclaimed != 256 {
		t.Fatalf("reclaimed %d chunks/%d bytes, want 4/256", st.ChunksReclaimed, st.BytesReclaimed)
	}
	after := c.Stats()
	if after.UniqueChunks != before.UniqueChunks-4 || after.Objects != 1 {
		t.Fatalf("pool after gc: %+v (before %+v)", after, before)
	}
	if err := c.CheckRefs(); err != nil {
		t.Fatal(err)
	}
	o, err := c.Open("keep")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(shared))
	if _, err := o.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shared) {
		t.Fatal("live object corrupted by gc")
	}
	if _, err := c.Open("drop"); err == nil {
		t.Fatal("dead object still openable")
	}
}

// TestCASGCSweepsOrphanChunkFiles: chunk files on disk that no pool
// entry references (a crashed save) are deleted; referenced ones stay.
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
	// Plant an orphan: a valid-looking chunk file the manifest (and
	// pool) never heard of.
	orphanKey := sha256.Sum256([]byte("orphan"))
	h := hex.EncodeToString(orphanKey[:])
	orphanPath := filepath.Join(root, "chunks", h[:2], h)
	if err := os.MkdirAll(filepath.Dir(orphanPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphanPath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := c.GC(func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.OrphansRemoved != 1 || st.ObjectsRemoved != 0 {
		t.Fatalf("gc stats %+v, want 1 orphan and no objects removed", st)
	}
	if _, err := os.Stat(orphanPath); !os.IsNotExist(err) {
		t.Fatal("orphan chunk file survived gc")
	}
	// The live object's chunks are still on disk and readable after a
	// fresh reopen.
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCAS(root, CASOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := c2.Open("obj")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := o.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("live data lost after gc")
	}
	if err := c2.CheckRefs(); err != nil {
		t.Fatal(err)
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
}

// TestCASGCRandomizedConsistency: random create/write/remove traffic
// followed by a partial-live GC keeps refcounts consistent and every
// survivor byte-identical to a model map.
func TestCASGCRandomizedConsistency(t *testing.T) {
	c := openCAS(t, CASOptions{ChunkSize: 32})
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
	live := func(name string) bool { return next(2) == 0 }
	if _, err := c.GC(live); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckRefs(); err != nil {
		t.Fatal(err)
	}
	names, _ := c.List()
	for _, n := range names {
		o, err := c.Open(n)
		if err != nil {
			t.Fatal(err)
		}
		want := model[n]
		got := make([]byte, len(want))
		if _, err := o.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("survivor %q corrupted", n)
		}
	}
}
