package server

import (
	"container/list"
	"fmt"
	"io"
	"sync"

	"sdm/internal/obs"
	"sdm/internal/wire"
)

// BlockCache is the server's read-through cache: fixed-size blocks of
// served files, bounded by a byte capacity with LRU eviction, with
// singleflight on miss so N concurrent readers of a cold block cost
// one backend read. Cached blocks are treated as immutable — sdmd
// serves quiescent bundles, so a file's bytes never change while
// mounted — and handed out by reference; callers must not mutate them.
type BlockCache struct {
	blockSize int64
	capacity  int64

	mu       sync.Mutex
	entries  map[blockKey]*list.Element
	lru      *list.List // front = most recently used
	bytes    int64
	inflight map[blockKey]*inflightFetch

	hits, misses, waits, evictions int64

	// Metrics mirrors (nil-safe no-ops when unwired).
	hitCtr, missCtr, waitCtr, evictCtr *obs.Counter
	bytesGauge, blocksGauge            *obs.Gauge
}

// blockKey identifies one block of one served file. The file component
// is bundle-qualified by the caller, so identically named files in two
// mounted bundles never alias.
type blockKey struct {
	file string
	idx  int64
}

// cacheEntry is one resident block.
type cacheEntry struct {
	key  blockKey
	data []byte
}

// inflightFetch coalesces concurrent misses of one block: the first
// requester fetches, later ones wait on done and share the result.
type inflightFetch struct {
	done chan struct{}
	data []byte
	err  error
}

// DefaultBlockSize is the cache granularity when Config leaves it zero.
const DefaultBlockSize = 256 << 10 // 256 KiB

// DefaultCacheBytes is the cache capacity when Config leaves it zero.
const DefaultCacheBytes = 64 << 20 // 64 MiB

// NewBlockCache builds a cache with the given block granularity and
// byte capacity (zeros select the defaults).
func NewBlockCache(blockSize, capacity int64) *BlockCache {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if capacity <= 0 {
		capacity = DefaultCacheBytes
	}
	return &BlockCache{
		blockSize: blockSize,
		capacity:  capacity,
		entries:   make(map[blockKey]*list.Element),
		lru:       list.New(),
		inflight:  make(map[blockKey]*inflightFetch),
	}
}

// RegisterMetrics wires the cache's counters and gauges into a
// registry under "server.cache.*".
func (c *BlockCache) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	c.hitCtr = r.Counter("server.cache.hits")
	c.missCtr = r.Counter("server.cache.misses")
	c.waitCtr = r.Counter("server.cache.waits")
	c.evictCtr = r.Counter("server.cache.evictions")
	c.bytesGauge = r.Gauge("server.cache.bytes")
	c.blocksGauge = r.Gauge("server.cache.blocks")
}

// Stats snapshots the cache's counters.
func (c *BlockCache) Stats() wire.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := wire.CacheStats{
		BlockSize: c.blockSize,
		Capacity:  c.capacity,
		Bytes:     c.bytes,
		Blocks:    int64(c.lru.Len()),
		Hits:      c.hits,
		Misses:    c.misses,
		Waits:     c.waits,
		Evictions: c.evictions,
	}
	if total := st.Hits + st.Misses + st.Waits; total > 0 {
		st.HitRatio = float64(st.Hits) / float64(total)
	}
	return st
}

// Fetcher reads exactly n bytes of the underlying file at off. The
// cache guarantees [off, off+n) lies within the size the caller passed
// to WriteRange.
type Fetcher func(off, n int64) ([]byte, error)

// block returns the cached block idx of file (whose total size is
// known), fetching it through fetch on a miss. Exactly one fetch runs
// per missed block, however many readers are waiting.
func (c *BlockCache) block(file string, size, idx int64, fetch Fetcher) ([]byte, error) {
	key := blockKey{file, idx}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		c.hitCtr.Add(1)
		data := el.Value.(*cacheEntry).data
		c.mu.Unlock()
		return data, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.waits++
		c.waitCtr.Add(1)
		c.mu.Unlock()
		<-f.done
		return f.data, f.err
	}
	f := &inflightFetch{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.missCtr.Add(1)
	c.mu.Unlock()

	// Cleanup is deferred so it runs even when the Fetcher panics
	// (net/http recovers the panic per-request): the inflight entry
	// must come out and done must close, or every later reader of this
	// block waits forever. A panic leaves fetched false, which waiters
	// see as an error rather than a nil block.
	fetched := false
	defer func() {
		if !fetched && f.err == nil {
			f.err = fmt.Errorf("server: block fetch of %q panicked", file)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.insertLocked(key, f.data)
		}
		c.mu.Unlock()
		close(f.done)
	}()

	off := idx * c.blockSize
	n := c.blockSize
	if off+n > size {
		n = size - off
	}
	f.data, f.err = fetch(off, n)
	if f.err == nil && int64(len(f.data)) != n {
		f.err = fmt.Errorf("server: block fetch of %q returned %d bytes, want %d", file, len(f.data), n)
	}
	fetched = true
	return f.data, f.err
}

// insertLocked adds a freshly fetched block and evicts from the LRU
// tail until the cache fits its capacity again. A block larger than
// the whole capacity is served but never cached.
func (c *BlockCache) insertLocked(key blockKey, data []byte) {
	if int64(len(data)) > c.capacity {
		return
	}
	if _, ok := c.entries[key]; ok {
		return // a racing reader already inserted it
	}
	el := c.lru.PushFront(&cacheEntry{key: key, data: data})
	c.entries[key] = el
	c.bytes += int64(len(data))
	for c.bytes > c.capacity {
		tail := c.lru.Back()
		if tail == nil || tail == el {
			break
		}
		e := tail.Value.(*cacheEntry)
		c.lru.Remove(tail)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.data))
		c.evictions++
		c.evictCtr.Add(1)
	}
	c.bytesGauge.Set(c.bytes)
	c.blocksGauge.Set(int64(c.lru.Len()))
}

// WriteRange streams [off, off+n) of the named file (of the given
// total size) into w, block by block through the cache. It reports the
// bytes written; a short count comes with the causing error.
func (c *BlockCache) WriteRange(w io.Writer, file string, size, off, n int64, fetch Fetcher) (int64, error) {
	if off < 0 || n < 0 || off > size || n > size-off {
		return 0, fmt.Errorf("server: range off=%d len=%d outside file %q of %d bytes", off, n, file, size)
	}
	var written int64
	for n > 0 {
		idx := off / c.blockSize
		blk, err := c.block(file, size, idx, fetch)
		if err != nil {
			return written, err
		}
		lo := off - idx*c.blockSize
		hi := lo + n
		if hi > int64(len(blk)) {
			hi = int64(len(blk))
		}
		m, err := w.Write(blk[lo:hi])
		written += int64(m)
		if err != nil {
			return written, err
		}
		off += hi - lo
		n -= hi - lo
	}
	return written, nil
}
