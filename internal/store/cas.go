package store

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// DefaultChunkSize is the CAS chunking granularity: small enough that
// checkpoint slabs rewritten between timesteps share unchanged chunks,
// large enough that the per-chunk hash is amortized.
const DefaultChunkSize = 64 * 1024

// CASOptions tunes a content-addressed backend.
type CASOptions struct {
	// ChunkSize is the fixed chunk granularity (default 64 KiB).
	ChunkSize int64
	// Compress stores each chunk byte-shuffled or plain flate,
	// whichever is smaller, or raw if neither shrinks it: CPU for stored
	// bytes (scientific checkpoints are often highly redundant).
	Compress bool
}

func (o *CASOptions) fill() {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
}

// CASStats summarizes pool occupancy, for dedup/compression reporting.
type CASStats struct {
	Objects          int   // named objects
	LogicalBytes     int64 // sum of object sizes
	StoredBytes      int64 // bytes held in unique (possibly compressed) chunks
	UniqueChunks     int   // distinct chunks in the pool
	ChunkRefs        int64 // total references from objects to chunks
	CompressedChunks int   // chunks stored flate-compressed
	ShuffledChunks   int   // of those, chunks byte-shuffled before deflating
}

// chunkKey is a SHA-256 digest used as the pool map key.
type chunkKey [sha256.Size]byte

func (k chunkKey) hex() string { return hex.EncodeToString(k[:]) }

// chunk is one deduplicated pool entry. data holds the stored form
// (raw, or deflated, byte-shuffled first if shuffled is set); nil with
// onDisk set means it loads lazily.
type chunk struct {
	key        chunkKey
	refs       int64
	data       []byte
	stored     int64 // len of the stored form (known even when lazy)
	compressed bool
	shuffled   bool
	onDisk     bool
}

// CAS is the content-addressed backend: every object is a sequence of
// fixed-size chunks keyed by SHA-256 of their raw bytes, shared across
// objects with reference counting — the datamon-cafs storage model
// scaled down to the simulator. The pool and the object manifest
// persist under a root directory (chunks under root/chunks, manifest
// at root/objects.json, written by Sync), so run bundles can be
// reopened by a later OS process.
//
// All object I/O serializes on the shared pool lock (chunks are
// interned across objects). That trades the mem/dir backends'
// uncontended per-file concurrency for dedup; cas backs bundles, not
// the benchmark hot path, and virtual-time metrics are unaffected
// either way.
type CAS struct {
	mu   sync.Mutex
	root string
	opts CASOptions
	pool map[chunkKey]*chunk
	objs map[string]*casObject
	// The codec, reused for every chunk: a deflater writing into zbuf,
	// an inflater reading inflIn, and a chunk-long scratch for the
	// shuffled form.
	zw     *flate.Writer
	zbuf   bytes.Buffer
	zr     io.ReadCloser
	inflIn bytes.Reader
	shuf   []byte
	// freed holds the chunks whose last reference went while their file
	// was on disk. The manifest on disk may still name them, so their
	// files go only once Sync has replaced it.
	freed []chunkKey
}

// OpenCAS opens (creating if needed) a content-addressed backend
// rooted at root; an existing manifest restores the namespace, with
// chunk payloads loaded lazily on first read.
func OpenCAS(root string, opts CASOptions) (*CAS, error) {
	if root == "" {
		return nil, errors.New("store: a cas needs a root directory")
	}
	opts.fill()
	c := &CAS{
		root: root,
		opts: opts,
		pool: make(map[chunkKey]*chunk),
		objs: make(map[string]*casObject),
	}
	if err := os.MkdirAll(filepath.Join(root, "chunks"), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating cas root: %w", err)
	}
	if err := c.loadManifest(); err != nil {
		return nil, err
	}
	return c, nil
}

// Stats snapshots pool occupancy.
func (c *CAS) Stats() CASStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CASStats{Objects: len(c.objs), UniqueChunks: len(c.pool)}
	for _, o := range c.objs {
		st.LogicalBytes += o.size
	}
	for _, ch := range c.pool {
		st.StoredBytes += ch.stored
		st.ChunkRefs += ch.refs
		if ch.compressed {
			st.CompressedChunks++
		}
		if ch.shuffled {
			st.ShuffledChunks++
		}
	}
	return st
}

// Create makes an empty object.
func (c *CAS) Create(name string) (Object, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.objs[name]; ok {
		return nil, fmt.Errorf("create %q: %w", name, ErrExist)
	}
	o := &casObject{cas: c, name: name}
	c.objs[name] = o
	return o, nil
}

// Open returns an existing object.
func (c *CAS) Open(name string) (Object, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.objs[name]
	if !ok {
		return nil, fmt.Errorf("open %q: %w", name, ErrNotExist)
	}
	return o, nil
}

// Stat reports an object's size.
func (c *CAS) Stat(name string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.objs[name]
	if !ok {
		return 0, fmt.Errorf("stat %q: %w", name, ErrNotExist)
	}
	return o.size, nil
}

// Remove deletes an object, releasing its chunk references. Unlike
// Mem, open handles do not outlive removal: their chunks may be
// reclaimed.
func (c *CAS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.objs[name]
	if !ok {
		return fmt.Errorf("remove %q: %w", name, ErrNotExist)
	}
	for _, ch := range o.chunks {
		c.deref(ch)
	}
	o.chunks, o.size = nil, 0
	delete(c.objs, name)
	return nil
}

// Rename moves an object to a new name, replacing any existing
// destination (whose chunk references are released, as Remove would).
func (c *CAS) Rename(oldName, newName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.objs[oldName]
	if !ok {
		return fmt.Errorf("rename %q: %w", oldName, ErrNotExist)
	}
	if oldName == newName {
		return nil
	}
	if old, ok := c.objs[newName]; ok {
		for _, ch := range old.chunks {
			c.deref(ch)
		}
		old.chunks, old.size = nil, 0
	}
	delete(c.objs, oldName)
	o.name = newName
	c.objs[newName] = o
	return nil
}

// List returns all object names in lexical order.
func (c *CAS) List() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.objs))
	for n := range c.objs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// ---------------------------------------------------------------------------
// Chunk pool
// ---------------------------------------------------------------------------

// put interns a raw chunk (always exactly chunkSize bytes, zero-padded
// tails), returning the pool entry with its reference count bumped.
// Callers hold c.mu.
func (c *CAS) put(raw []byte) *chunk {
	key := chunkKey(sha256.Sum256(raw))
	if ch, ok := c.pool[key]; ok {
		ch.refs++
		return ch
	}
	ch := &chunk{key: key, refs: 1}
	if c.opts.Compress {
		ch.data, ch.shuffled = c.deflate(raw)
		ch.compressed = ch.data != nil
	}
	if ch.data == nil {
		ch.data = append([]byte(nil), raw...)
	}
	ch.stored = int64(len(ch.data))
	c.pool[key] = ch
	return ch
}

// deref drops one reference, reclaiming the chunk when the last
// reference goes (its disk file at the next Sync). Callers hold c.mu.
func (c *CAS) deref(ch *chunk) {
	if ch == nil {
		return
	}
	ch.refs--
	if ch.refs > 0 {
		return
	}
	delete(c.pool, ch.key)
	if ch.onDisk {
		c.freed = append(c.freed, ch.key)
	}
}

// deflate returns raw's smaller deflated form, plain or byte-shuffled
// (and which), or nil if neither is shorter than raw. Both forms are
// deflated into zbuf one after the other, and the winner is copied
// out. Callers hold c.mu.
func (c *CAS) deflate(raw []byte) (z []byte, shuffled bool) {
	c.zbuf.Reset()
	if c.zw == nil {
		c.zw, _ = flate.NewWriter(&c.zbuf, flate.BestSpeed) // fails only for a bad level
	}
	c.deflateInto(raw)
	plain := c.zbuf.Len()
	c.deflateInto(shuffle8(c.scratch(len(raw)), raw))
	out := c.zbuf.Bytes()
	if shuffled = len(out)-plain < plain; shuffled {
		out = out[plain:]
	} else {
		out = out[:plain]
	}
	if len(out) >= len(raw) {
		return nil, false
	}
	return bytes.Clone(out), shuffled
}

// deflateInto appends raw's flate stream to zbuf. Writes to a
// bytes.Buffer cannot fail. Callers hold c.mu.
func (c *CAS) deflateInto(raw []byte) {
	c.zw.Reset(&c.zbuf)
	c.zw.Write(raw)
	c.zw.Close()
}

// scratch returns the reusable n-byte shuffle buffer. Callers hold c.mu.
func (c *CAS) scratch(n int) []byte {
	if cap(c.shuf) < n {
		c.shuf = make([]byte, n)
	}
	return c.shuf[:n]
}

// shuffle8 writes src into dst (of equal length) with byte b of every
// 8-byte element grouped together, b = 0..7; a tail shorter than 8
// bytes stays in place. It returns dst.
func shuffle8(dst, src []byte) []byte {
	m := len(src) / 8
	for b := range 8 {
		col := dst[b*m : (b+1)*m]
		for i := range col {
			col[i] = src[i*8+b]
		}
	}
	copy(dst[m*8:], src[m*8:])
	return dst
}

// unshuffle8 undoes shuffle8.
func unshuffle8(dst, src []byte) {
	m := len(src) / 8
	for b := range 8 {
		for i, v := range src[b*m : (b+1)*m] {
			dst[i*8+b] = v
		}
	}
	copy(dst[m*8:], src[m*8:])
}

// decodeInto materializes a chunk's raw bytes into dst (len chunkSize):
// zeros for holes, lazy-loading and decoding stored forms. A chunk
// loaded from its file must hash to its address, so a damaged file is
// an error, never other bytes. Callers hold c.mu.
func (c *CAS) decodeInto(dst []byte, ch *chunk) error {
	if ch == nil {
		clear(dst)
		return nil
	}
	if ch.data != nil {
		return c.decode(dst, ch.data, ch)
	}
	if !ch.onDisk {
		return fmt.Errorf("store: cas chunk %s lost", ch.key.hex())
	}
	data, err := os.ReadFile(c.chunkPath(ch.key))
	if err != nil {
		return fmt.Errorf("store: loading cas chunk: %w", err)
	}
	if err := c.decode(dst, data, ch); err != nil {
		return err
	}
	if sha256.Sum256(dst) != ch.key {
		return fmt.Errorf("store: cas chunk %s does not hash to its address", ch.key.hex())
	}
	ch.data = data
	return nil
}

// decode writes the raw bytes of data, ch's stored form, into dst.
// Callers hold c.mu.
func (c *CAS) decode(dst, data []byte, ch *chunk) error {
	if !ch.compressed {
		if len(data) != len(dst) {
			return fmt.Errorf("store: cas chunk %s holds %d bytes, want %d", ch.key.hex(), len(data), len(dst))
		}
		copy(dst, data)
		return nil
	}
	c.inflIn.Reset(data)
	if c.zr == nil {
		c.zr = flate.NewReader(&c.inflIn)
	} else if err := c.zr.(flate.Resetter).Reset(&c.inflIn, nil); err != nil {
		return err
	}
	out := dst
	if ch.shuffled {
		out = c.scratch(len(dst))
	}
	if _, err := io.ReadFull(c.zr, out); err != nil {
		return fmt.Errorf("store: inflating cas chunk %s: %w", ch.key.hex(), err)
	}
	if ch.shuffled {
		unshuffle8(dst, out)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Objects
// ---------------------------------------------------------------------------

// casObject is one named chunk sequence. A nil slot is a hole.
type casObject struct {
	cas     *CAS
	name    string
	size    int64
	chunks  []*chunk
	scratch []byte // reusable chunk-decode buffer
}

func (o *casObject) Size() int64 {
	o.cas.mu.Lock()
	defer o.cas.mu.Unlock()
	return o.size
}

// chunkBuf returns the reusable chunkSize-long scratch buffer.
func (o *casObject) chunkBuf() []byte {
	cs := o.cas.opts.ChunkSize
	if int64(cap(o.scratch)) < cs {
		o.scratch = make([]byte, cs)
	}
	return o.scratch[:cs]
}

// grow extends the slot table (with holes) to cover size n.
func (o *casObject) grow(n int64) {
	o.size = n
	cs := o.cas.opts.ChunkSize
	slots := int((n + cs - 1) / cs)
	for len(o.chunks) < slots {
		o.chunks = append(o.chunks, nil)
	}
}

func (o *casObject) WriteAt(p []byte, off int64) (int, error) {
	n := len(p)
	if n == 0 {
		return 0, nil
	}
	if err := checkWrite(off, n); err != nil {
		return 0, err
	}
	c := o.cas
	c.mu.Lock()
	defer c.mu.Unlock()
	if end := off + int64(n); end > o.size {
		o.grow(end)
	}
	cs := c.opts.ChunkSize
	for len(p) > 0 {
		ci := off / cs
		po := off % cs
		k := int64(len(p))
		if k > cs-po {
			k = cs - po
		}
		var raw []byte
		if po == 0 && k == cs {
			raw = p[:k]
		} else {
			raw = o.chunkBuf()
			if err := c.decodeInto(raw, o.chunks[ci]); err != nil {
				return n - len(p), err
			}
			copy(raw[po:po+k], p[:k])
		}
		nc := c.put(raw)
		c.deref(o.chunks[ci])
		o.chunks[ci] = nc
		p = p[k:]
		off += k
	}
	return n, nil
}

func (o *casObject) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if off < 0 {
		return 0, fmt.Errorf("store: read at negative offset %d", off)
	}
	c := o.cas
	c.mu.Lock()
	defer c.mu.Unlock()
	if off >= o.size {
		return 0, io.EOF
	}
	want := int64(len(p))
	avail := o.size - off
	short := false
	if want > avail {
		want = avail
		short = true
	}
	cs := c.opts.ChunkSize
	read := int64(0)
	for read < want {
		ci := (off + read) / cs
		po := (off + read) % cs
		n := want - read
		if n > cs-po {
			n = cs - po
		}
		buf := o.chunkBuf()
		if err := c.decodeInto(buf, o.chunks[ci]); err != nil {
			return int(read), err
		}
		copy(p[read:read+n], buf[po:po+n])
		read += n
	}
	if short {
		return int(read), io.EOF
	}
	return int(read), nil
}

// ---------------------------------------------------------------------------
// Audit
// ---------------------------------------------------------------------------

// CheckRefs verifies refcount consistency: every pool entry's reference
// count must equal the number of object slots naming it, every
// referenced chunk must be in the pool, and no entry may linger at zero
// references. It is the invariant every Remove preserves.
// It also names the objects that reference a chunk whose file should be
// on disk and is gone: their bytes can no longer be read.
func (c *CAS) CheckRefs() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkRefs(true)
}

// checkRefs is CheckRefs, checking chunk files only if files is set:
// orphan removal needs sound refcounts, not every file. Callers hold c.mu.
func (c *CAS) checkRefs(files bool) error {
	want := make(map[chunkKey]int64, len(c.pool))
	var lost []string
	for name, o := range c.objs {
		gone := false
		for i, ch := range o.chunks {
			if ch == nil {
				continue
			}
			if c.pool[ch.key] != ch {
				return fmt.Errorf("store: object %q slot %d references chunk %s missing from the pool", name, i, ch.key.hex())
			}
			want[ch.key]++
			if files && ch.onDisk && !gone {
				_, err := os.Stat(c.chunkPath(ch.key))
				gone = err != nil
			}
		}
		if gone {
			lost = append(lost, name)
		}
	}
	for key, ch := range c.pool {
		if ch.refs != want[key] {
			return fmt.Errorf("store: chunk %s has refcount %d, %d references exist", key.hex(), ch.refs, want[key])
		}
		if ch.refs <= 0 {
			return fmt.Errorf("store: chunk %s lingers at refcount %d", key.hex(), ch.refs)
		}
	}
	if lost != nil {
		slices.Sort(lost)
		return fmt.Errorf("store: chunk files gone for objects %q", lost)
	}
	return nil
}

// OrphanChunkFiles counts on-disk chunk files no pool entry references
// (left by an interrupted save) without removing them.
func (c *CAS) OrphanChunkFiles() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	orphans, err := c.orphanFiles()
	return len(orphans), err
}

// RemoveOrphanChunkFiles deletes the files OrphanChunkFiles counts and
// returns how many went. It deletes nothing while the refcounts are
// inconsistent: a file is judged by the pool, so the pool must be sound.
func (c *CAS) RemoveOrphanChunkFiles() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkRefs(false); err != nil {
		return 0, fmt.Errorf("store: keeping orphan chunk files: %w", err)
	}
	orphans, err := c.orphanFiles()
	if err != nil {
		return 0, err
	}
	for i, path := range orphans {
		if err := os.Remove(path); err != nil {
			return i, fmt.Errorf("store: removing orphan chunk file: %w", err)
		}
	}
	return len(orphans), nil
}

// orphanFiles lists the chunk files under the root that no pool entry
// references. A chunk freed since the last Sync is not one: the manifest
// on disk may still name it, and Sync deletes its file. Callers hold c.mu.
func (c *CAS) orphanFiles() ([]string, error) {
	dirs, err := os.ReadDir(filepath.Join(c.root, "chunks"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: scanning chunk dir: %w", err)
	}
	freed := make(map[chunkKey]bool, len(c.freed))
	for _, key := range c.freed {
		freed[key] = true
	}
	var orphans []string
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		sub := filepath.Join(c.root, "chunks", d.Name())
		files, err := os.ReadDir(sub)
		if err != nil {
			return nil, fmt.Errorf("store: scanning %s: %w", sub, err)
		}
		for _, f := range files {
			kb, err := hex.DecodeString(f.Name())
			if err == nil && len(kb) == sha256.Size {
				if _, ok := c.pool[chunkKey(kb)]; ok || freed[chunkKey(kb)] {
					continue
				}
			}
			orphans = append(orphans, filepath.Join(sub, f.Name()))
		}
	}
	return orphans, nil
}

const casManifestName = "objects.json"

// casFormat is the manifest format Sync writes and the newest that
// loadManifest reads. Format 2 added byte-shuffled chunks; a format-1
// manifest names none and loads unchanged.
const casFormat = 2

// casManifest is the persisted namespace: every object's chunk-key
// sequence plus a pool table recording each chunk's stored form.
type casManifest struct {
	Format    int                     `json:"format"`
	ChunkSize int64                   `json:"chunk_size"`
	Compress  bool                    `json:"compress"`
	Pool      map[string]casPoolEntry `json:"pool"`
	Objects   []casManifestObject     `json:"objects"`
}

type casPoolEntry struct {
	Stored     int64 `json:"stored"`
	Compressed bool  `json:"compressed,omitempty"`
	Shuffled   bool  `json:"shuffled,omitempty"` // deflated byte-shuffled
}

type casManifestObject struct {
	Name   string   `json:"name"`
	Size   int64    `json:"size"`
	Chunks []string `json:"chunks"` // hex keys; "" marks a hole
}

func (c *CAS) chunkPath(key chunkKey) string {
	h := key.hex()
	return filepath.Join(c.root, "chunks", h[:2], h)
}

// Sync writes unpersisted chunks and the object manifest to the root,
// atomically replacing the previous manifest, and fsyncs every file it
// wrote and every directory that gained an entry, so a manifest that
// reaches the disk names only chunks that did too. Only then does it
// delete the files of chunks freed since the last Sync, so until a Sync
// the files on disk are the last synced state, whole.
func (c *CAS) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	grown := map[string]bool{}
	for _, ch := range c.pool {
		if ch.onDisk {
			continue
		}
		if ch.data == nil {
			return fmt.Errorf("store: cas chunk %s has no data to persist", ch.key.hex())
		}
		path := c.chunkPath(ch.key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := writeFileSync(path, ch.data); err != nil {
			return err
		}
		ch.onDisk = true
		grown[filepath.Dir(path)] = true
	}
	if len(grown) > 0 {
		grown[filepath.Join(c.root, "chunks")] = true
	}
	for dir := range grown {
		if err := Fsync(dir); err != nil {
			return err
		}
	}
	m := casManifest{
		Format:    casFormat,
		ChunkSize: c.opts.ChunkSize,
		Compress:  c.opts.Compress,
		Pool:      make(map[string]casPoolEntry, len(c.pool)),
		Objects:   make([]casManifestObject, 0, len(c.objs)),
	}
	for key, ch := range c.pool {
		m.Pool[key.hex()] = casPoolEntry{Stored: ch.stored, Compressed: ch.compressed, Shuffled: ch.shuffled}
	}
	names := make([]string, 0, len(c.objs))
	for n := range c.objs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o := c.objs[n]
		mo := casManifestObject{Name: n, Size: o.size, Chunks: make([]string, len(o.chunks))}
		for i, ch := range o.chunks {
			if ch != nil {
				mo.Chunks[i] = ch.key.hex()
			}
		}
		m.Objects = append(m.Objects, mo)
	}
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(c.root, casManifestName+".tmp")
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(c.root, casManifestName)); err != nil {
		return err
	}
	if err := Fsync(c.root); err != nil {
		return err
	}
	// No durable manifest names a freed chunk now; one a later write
	// interned again is back in the pool, its file rewritten above.
	for _, key := range c.freed {
		if _, live := c.pool[key]; !live {
			if err := os.Remove(c.chunkPath(key)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	c.freed = nil
	return nil
}

// loadManifest restores the namespace from a previous Sync, if any.
func (c *CAS) loadManifest() error {
	data, err := os.ReadFile(filepath.Join(c.root, casManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var m casManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("store: corrupt cas manifest: %w", err)
	}
	if m.Format > casFormat {
		return fmt.Errorf("store: corrupt cas manifest: format %d, this build reads up to %d", m.Format, casFormat)
	}
	if m.ChunkSize > 0 {
		c.opts.ChunkSize = m.ChunkSize
	}
	c.opts.Compress = m.Compress
	for hexKey, pe := range m.Pool {
		kb, err := hex.DecodeString(hexKey)
		if err != nil || len(kb) != sha256.Size {
			return fmt.Errorf("store: cas manifest has bad chunk key %q", hexKey)
		}
		if pe.Shuffled && !pe.Compressed {
			return fmt.Errorf("store: corrupt cas manifest: chunk %s is shuffled but not compressed", hexKey)
		}
		key := chunkKey(kb)
		c.pool[key] = &chunk{key: key, stored: pe.Stored, compressed: pe.Compressed, shuffled: pe.Shuffled, onDisk: true}
	}
	for _, mo := range m.Objects {
		o := &casObject{cas: c, name: mo.Name, size: mo.Size}
		o.chunks = make([]*chunk, len(mo.Chunks))
		for i, hexKey := range mo.Chunks {
			if hexKey == "" {
				continue
			}
			kb, err := hex.DecodeString(hexKey)
			if err != nil || len(kb) != sha256.Size {
				return fmt.Errorf("store: cas manifest has bad chunk key %q", hexKey)
			}
			ch, ok := c.pool[chunkKey(kb)]
			if !ok {
				return fmt.Errorf("store: cas object %q references missing chunk %s", mo.Name, hexKey)
			}
			ch.refs++
			o.chunks[i] = ch
		}
		c.objs[mo.Name] = o
	}
	return nil
}
