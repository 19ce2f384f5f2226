package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// backingFile is a deterministic pseudo-file the fetchers read from,
// with a counter so tests can assert exactly how many backend reads
// the cache issued.
type backingFile struct {
	data    []byte
	fetches atomic.Int64
}

func newBackingFile(seed int64, size int) *backingFile {
	f := &backingFile{data: make([]byte, size)}
	rng := rand.New(rand.NewSource(seed))
	rng.Read(f.data)
	return f
}

func (f *backingFile) fetch(off, n int64) ([]byte, error) {
	f.fetches.Add(1)
	if off < 0 || off+n > int64(len(f.data)) {
		return nil, fmt.Errorf("fetch [%d,%d) outside %d-byte file", off, off+n, len(f.data))
	}
	return append([]byte(nil), f.data[off:off+n]...), nil
}

// readAt fills p with [off, off+len(p)) of the named file through
// WriteRange, the one entry point the handlers serve through.
func readAt(c *BlockCache, p []byte, file string, size, off int64, fetch Fetcher) error {
	var buf bytes.Buffer
	_, err := c.WriteRange(&buf, file, size, off, int64(len(p)), fetch)
	copy(p, buf.Bytes())
	return err
}

// TestCacheByteIdentity pins the core promise: bytes read through the
// cache — at every offset/length alignment, hot or cold — are the
// backing file's bytes.
func TestCacheByteIdentity(t *testing.T) {
	f := newBackingFile(1, 10_000)
	c := NewBlockCache(256, 4<<10) // small blocks force multi-block reads
	size := int64(len(f.data))

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		off := rng.Int63n(size)
		n := rng.Int63n(size - off + 1)
		got := make([]byte, n)
		if err := readAt(c, got, "f", size, off, f.fetch); err != nil {
			t.Fatalf("ReadAt(off=%d, n=%d): %v", off, n, err)
		}
		if !bytes.Equal(got, f.data[off:off+n]) {
			t.Fatalf("ReadAt(off=%d, n=%d): bytes differ from backing file", off, n)
		}
	}
	// The whole file via WriteRange, cold cache vs warm cache.
	var cold, warm bytes.Buffer
	c2 := NewBlockCache(512, 64<<10)
	if _, err := c2.WriteRange(&cold, "f", size, 0, size, f.fetch); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.WriteRange(&warm, "f", size, 0, size, f.fetch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), f.data) || !bytes.Equal(warm.Bytes(), f.data) {
		t.Fatal("full-file WriteRange differs from backing file")
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatal("cold and warm reads differ")
	}
}

// TestCacheBoundedMemory hammers a cache with randomized access to a
// file far larger than its capacity and checks the resident set never
// exceeds the bound (the acceptance bar for "bounded memory under
// randomized access patterns").
func TestCacheBoundedMemory(t *testing.T) {
	const (
		blockSize = 1 << 10
		capacity  = 16 << 10 // 16 blocks
		fileSize  = 1 << 20  // 1024 blocks
	)
	f := newBackingFile(3, fileSize)
	c := NewBlockCache(blockSize, capacity)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 3*blockSize)
			for i := 0; i < 300; i++ {
				off := rng.Int63n(fileSize - int64(len(buf)))
				if err := readAt(c, buf, "f", fileSize, off, f.fetch); err != nil {
					t.Errorf("ReadAt: %v", err)
					return
				}
				st := c.Stats()
				if st.Bytes > st.Capacity {
					t.Errorf("cache holds %d bytes, capacity %d", st.Bytes, st.Capacity)
					return
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()

	st := c.Stats()
	if st.Bytes > st.Capacity {
		t.Fatalf("final cache bytes %d exceed capacity %d", st.Bytes, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("randomized access over a 64x-capacity file evicted nothing — bound not exercised")
	}
	if st.Blocks*blockSize != st.Bytes {
		t.Fatalf("accounting skew: %d blocks x %d != %d bytes", st.Blocks, blockSize, st.Bytes)
	}
}

// TestCacheSingleflight pins the miss-coalescing guarantee: N
// concurrent readers of one cold block cost exactly one backend read,
// and everyone gets the bytes.
func TestCacheSingleflight(t *testing.T) {
	const blockSize = 4 << 10
	f := newBackingFile(4, 4*blockSize)
	// A fetch that parks until all readers have piled in, to make the
	// coalescing window deterministic rather than racy-lucky.
	arrived := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	slowFetch := func(off, n int64) ([]byte, error) {
		once.Do(func() { close(arrived) })
		<-release
		return f.fetch(off, n)
	}

	c := NewBlockCache(blockSize, 64<<10)
	const readers = 16
	var wg sync.WaitGroup
	results := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, blockSize)
			if err := readAt(c, buf, "f", int64(len(f.data)), 0, slowFetch); err != nil {
				t.Errorf("reader %d: %v", i, err)
				return
			}
			results[i] = buf
		}(i)
	}
	<-arrived // at least the leader is in the fetch
	close(release)
	wg.Wait()

	if got := f.fetches.Load(); got != 1 {
		t.Fatalf("%d concurrent readers of one cold block issued %d backend reads, want exactly 1", readers, got)
	}
	for i, r := range results {
		if !bytes.Equal(r, f.data[:blockSize]) {
			t.Fatalf("reader %d got wrong bytes", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (the leader)", st.Misses)
	}
	if st.Hits+st.Waits != readers-1 {
		t.Fatalf("hits+waits = %d, want %d (everyone but the leader)", st.Hits+st.Waits, readers-1)
	}
}

// TestCacheHitRatio pins the counter arithmetic with a deterministic
// sequential access pattern: first pass all misses, second pass all
// hits, ratio exactly 1/2.
func TestCacheHitRatio(t *testing.T) {
	const blockSize = 1 << 10
	const blocks = 8
	f := newBackingFile(5, blocks*blockSize)
	c := NewBlockCache(blockSize, blocks*blockSize)
	size := int64(len(f.data))

	buf := make([]byte, blockSize)
	for pass := 0; pass < 2; pass++ {
		for b := int64(0); b < blocks; b++ {
			if err := readAt(c, buf, "f", size, b*blockSize, f.fetch); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.Misses != blocks || st.Hits != blocks || st.Waits != 0 {
		t.Fatalf("hits=%d misses=%d waits=%d, want %d/%d/0", st.Hits, st.Misses, st.Waits, blocks, blocks)
	}
	if st.HitRatio != 0.5 {
		t.Fatalf("hit ratio = %v, want exactly 0.5", st.HitRatio)
	}
	if got := f.fetches.Load(); got != blocks {
		t.Fatalf("backend reads = %d, want %d (second pass fully cached)", got, blocks)
	}
}

// TestCacheOversizedBlockServed checks a block larger than the whole
// capacity is served (bytes flow) but never cached (bound holds).
func TestCacheOversizedBlockServed(t *testing.T) {
	const blockSize = 8 << 10
	f := newBackingFile(6, blockSize)
	c := NewBlockCache(blockSize, blockSize/2) // capacity below one block
	buf := make([]byte, blockSize)
	if err := readAt(c, buf, "f", blockSize, 0, f.fetch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, f.data) {
		t.Fatal("oversized block served wrong bytes")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Blocks != 0 {
		t.Fatalf("oversized block was cached: %d bytes resident", st.Bytes)
	}
}

// TestCacheFetcherPanicReleasesWaiters pins the panic-safety contract:
// a Fetcher that panics (net/http recovers it per-request) must not
// wedge the cache — coalesced waiters get an error instead of hanging
// on done forever, and the next read of the block retries cleanly.
func TestCacheFetcherPanicReleasesWaiters(t *testing.T) {
	const blockSize = 1 << 10
	f := newBackingFile(9, 4*blockSize)
	c := NewBlockCache(blockSize, 64<<10)
	size := int64(len(f.data))

	arrived := make(chan struct{})
	release := make(chan struct{})
	panicFetch := func(off, n int64) ([]byte, error) {
		close(arrived)
		<-release
		panic("fetcher blew up")
	}

	go func() {
		defer func() { _ = recover() }() // play net/http: swallow it
		buf := make([]byte, blockSize)
		_ = readAt(c, buf, "f", size, 0, panicFetch)
	}()
	<-arrived // leader is parked inside the fetch, inflight registered

	waiterErr := make(chan error, 1)
	go func() {
		buf := make([]byte, blockSize)
		waiterErr <- readAt(c, buf, "f", size, 0, f.fetch)
	}()
	for c.Stats().Waits == 0 { // waiter has coalesced onto the leader
		time.Sleep(time.Millisecond)
	}
	close(release)

	select {
	case err := <-waiterErr:
		if err == nil {
			t.Fatal("waiter behind a panicked fetch reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung behind a panicked fetch")
	}

	// The inflight entry is gone: a fresh read retries and succeeds.
	buf := make([]byte, blockSize)
	if err := readAt(c, buf, "f", size, 0, f.fetch); err != nil {
		t.Fatalf("read after panicked fetch: %v", err)
	}
	if !bytes.Equal(buf, f.data[:blockSize]) {
		t.Fatal("read after panicked fetch returned wrong bytes")
	}
}

// TestCacheRangeOverflowRejected pins the overflow-safe bounds check:
// off and n chosen so off+n wraps negative are rejected up front, never
// reaching the backend.
func TestCacheRangeOverflowRejected(t *testing.T) {
	f := newBackingFile(10, 1024)
	c := NewBlockCache(256, 4<<10)
	big := int64(1) << 62
	for _, r := range []struct{ off, n int64 }{
		{big, big},     // off+n wraps negative
		{big, 100},     // off alone past the end
		{0, big},       // n alone past the end
		{1<<63 - 1, 1}, // off+n wraps at the int64 edge
	} {
		var sink bytes.Buffer
		if _, err := c.WriteRange(&sink, "f", 1024, r.off, r.n, f.fetch); err == nil {
			t.Fatalf("range off=%d len=%d accepted", r.off, r.n)
		}
	}
	if got := f.fetches.Load(); got != 0 {
		t.Fatalf("overflowing ranges reached the backend: %d fetches", got)
	}
}

// TestCacheDistinctFilesDontAlias checks the same block index of two
// files (as two mounted bundles would produce) stays distinct.
func TestCacheDistinctFilesDontAlias(t *testing.T) {
	a := newBackingFile(7, 4096)
	b := newBackingFile(8, 4096)
	c := NewBlockCache(1024, 64<<10)
	bufA := make([]byte, 4096)
	bufB := make([]byte, 4096)
	if err := readAt(c, bufA, "bundleA\x00f", 4096, 0, a.fetch); err != nil {
		t.Fatal(err)
	}
	if err := readAt(c, bufB, "bundleB\x00f", 4096, 0, b.fetch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, a.data) || !bytes.Equal(bufB, b.data) {
		t.Fatal("cache aliased blocks across files")
	}
}
