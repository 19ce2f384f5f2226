package objstore

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"sdm/internal/store"
)

// Options configures a Backend over a Service.
type Options struct {
	// PartSize is both the multipart threshold and the part size: a
	// flush larger than PartSize uploads in PartSize pieces through a
	// multipart session, anything smaller is a single PUT. Default
	// 8 MiB.
	PartSize int64
	// PageSize bounds List pagination per request (default 1000).
	PageSize int
}

func (o *Options) fill() {
	if o.PartSize <= 0 {
		o.PartSize = 8 << 20
	}
	if o.PageSize <= 0 {
		o.PageSize = 1000
	}
}

// Attempts is how many times a Backend issues one remote request before
// it gives up on transient failures. The remote is simulated and its
// faults are seeded per-request coin flips, so there is nothing to wait
// for between attempts: a retry is re-issued at once.
const Attempts = 8

// ExhaustedError reports a remote request that failed transiently on
// every one of its Attempts. Unwrap yields the last failure, so a caller
// can still tell a transient remote (store.ErrUnavailable) from a dead
// one (store.ErrCrashed).
type ExhaustedError struct {
	Op  store.Op
	Err error // the last attempt's error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("objstore: %s retry exhausted after %d attempts: %v", e.Op, Attempts, e.Err)
}

// Unwrap exposes the last underlying error to errors.Is/As.
func (e *ExhaustedError) Unwrap() error { return e.Err }

// retry runs one remote request, re-issuing it while it fails with a
// transient error (store.IsTransient), up to Attempts in all. Any other
// error surfaces at once. Every request it is given is idempotent: Head,
// Get, List and Copy are pure or rewrite the same bytes, a part upload
// replaces the same part number, and a fault on any other request fires
// before the request executes.
func retry(op store.Op, fn func() error) error {
	var err error
	for range Attempts {
		if err = fn(); !store.IsTransient(err) {
			return err
		}
	}
	return &ExhaustedError{Op: op, Err: err}
}

// Backend adapts a Service to the random-access store.Backend contract
// with write-back staging: every open object is tracked in a handle
// table; dirty objects hold their full contents in a local buffer
// (host memory — no remote requests and no remote time) and flush on
// Sync as one conditional PUT or a multipart upload with per-part
// retry. Clean objects read straight through as ranged GETs. A handle
// remembers the remote generation it is based on, so a flush that
// races a concurrent overwrite fails the precondition instead of
// silently clobbering.
//
// Losing a Backend (process crash) loses only staged dirty bytes; the
// Service — reachable again via Dial — survives, which is exactly the
// durability split the bundle WAL protocol assumes.
type Backend struct {
	svc  *Service
	opts Options

	mu      sync.Mutex
	handles map[string]*object
}

// New returns a Backend over svc.
func New(svc *Service, opts Options) *Backend {
	opts.fill()
	return &Backend{svc: svc, opts: opts, handles: make(map[string]*object)}
}

// The one-shot request primitives below run under retry, like every
// request of flush and List.

func (b *Backend) svcHead(name string) (size, gen int64, err error) {
	err = retry(store.OpStat, func() (e error) {
		size, gen, e = b.svc.Head(name)
		return
	})
	return
}

func (b *Backend) svcGet(name string, off int64, p []byte) (n int, err error) {
	err = retry(store.OpRead, func() (e error) {
		n, e = b.svc.Get(name, off, p)
		return
	})
	return
}

func (b *Backend) svcDelete(name string) error {
	return retry(store.OpRemove, func() error {
		return b.svc.Delete(name)
	})
}

func (b *Backend) svcCopy(src, dst string) (gen int64, err error) {
	err = retry(store.OpRename, func() (e error) {
		gen, e = b.svc.Copy(src, dst)
		return
	})
	return
}

// object implements store.Object. Exactly one of two states holds:
// dirty (buf is authoritative, nothing staged remotely) or clean (the
// remote blob at generation gen is authoritative; buf is nil).
type object struct {
	b    *Backend
	name string

	mu    sync.RWMutex
	dirty bool
	buf   []byte
	size  int64 // remote size when clean
	// gen is the remote generation a flush must replace: 0 while the
	// key is not expected to exist remotely (conditional create),
	// otherwise the generation this handle last observed or wrote.
	gen int64
}

// Create makes a new empty dirty object. The key must exist neither
// locally staged nor remotely; the remote check is one HEAD.
func (b *Backend) Create(name string) (store.Object, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.handles[name]; ok {
		return nil, fmt.Errorf("objstore: create %q: %w", name, store.ErrExist)
	}
	if _, _, err := b.svcHead(name); err == nil {
		return nil, fmt.Errorf("objstore: create %q: %w", name, store.ErrExist)
	} else if !errors.Is(err, store.ErrNotExist) {
		return nil, err
	}
	o := &object{b: b, name: name, dirty: true}
	b.handles[name] = o
	return o, nil
}

// Open returns a handle on an existing object: the staged handle if
// one is live, otherwise a clean handle bound to the remote blob's
// current generation.
func (b *Backend) Open(name string) (store.Object, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if o, ok := b.handles[name]; ok {
		return o, nil
	}
	size, gen, err := b.svcHead(name)
	if err != nil {
		return nil, err
	}
	o := &object{b: b, name: name, size: size, gen: gen}
	b.handles[name] = o
	return o, nil
}

// Stat reports an object's current size, staged or remote.
func (b *Backend) Stat(name string) (int64, error) {
	b.mu.Lock()
	o, ok := b.handles[name]
	b.mu.Unlock()
	if ok {
		o.mu.RLock()
		defer o.mu.RUnlock()
		if o.dirty {
			return int64(len(o.buf)), nil
		}
		return o.size, nil
	}
	size, _, err := b.svcHead(name)
	return size, err
}

// Remove deletes an object. A staged-only object (never flushed) dies
// locally without a remote request; otherwise the remote blob is
// deleted too.
func (b *Backend) Remove(name string) error {
	b.mu.Lock()
	o, ok := b.handles[name]
	delete(b.handles, name)
	b.mu.Unlock()
	if ok {
		o.mu.Lock()
		localOnly := o.gen == 0
		o.dirty, o.buf = false, nil
		o.mu.Unlock()
		if localOnly {
			return nil
		}
		return b.svcDelete(name)
	}
	return b.svcDelete(name)
}

// Rename moves an object, replacing any existing destination. Object
// stores have no rename primitive, so a remote source maps to
// server-side Copy + Delete; a staged-only source just re-keys its
// handle, and its eventual flush targets whatever generation the
// destination holds now (replace semantics).
func (b *Backend) Rename(oldName, newName string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	o, ok := b.handles[oldName]
	if oldName == newName {
		// Copy + Delete would delete the object: moving it onto itself
		// only asks that it exist.
		if ok {
			return nil
		}
		_, _, err := b.svcHead(oldName)
		return err
	}
	if !ok {
		// Purely remote rename.
		if _, err := b.svcCopy(oldName, newName); err != nil {
			return err
		}
		delete(b.handles, newName)
		return b.svcDelete(oldName)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.gen > 0 {
		gen, err := b.svcCopy(oldName, newName)
		if err != nil {
			return err
		}
		if err := b.svcDelete(oldName); err != nil {
			return err
		}
		o.gen = gen
	} else {
		// Staged-only source: adopt the destination's generation so the
		// flush replaces it (or conditionally creates if absent).
		if _, gen, err := b.svcHead(newName); err == nil {
			o.gen = gen
		} else if !errors.Is(err, store.ErrNotExist) {
			return err
		}
	}
	o.name = newName
	delete(b.handles, oldName)
	delete(b.handles, newName)
	b.handles[newName] = o
	return nil
}

// List unions the remote keyspace (paginated by PageSize) with staged
// handles that have not flushed yet, sorted.
func (b *Backend) List() ([]string, error) {
	seen := make(map[string]bool)
	after := ""
	for {
		var (
			keys []string
			more bool
		)
		err := retry(store.OpList, func() (e error) {
			keys, more, e = b.svc.List("", after, b.opts.PageSize)
			return
		})
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			seen[k] = true
		}
		if !more {
			break
		}
		after = keys[len(keys)-1]
	}
	b.mu.Lock()
	for name, o := range b.handles {
		o.mu.RLock()
		if o.gen == 0 {
			seen[name] = true
		}
		o.mu.RUnlock()
	}
	b.mu.Unlock()
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	return names, nil
}

// Sync flushes every dirty object, in name order for deterministic
// request traces.
func (b *Backend) Sync() error {
	b.mu.Lock()
	objs := make([]*object, 0, len(b.handles))
	for _, o := range b.handles {
		objs = append(objs, o)
	}
	b.mu.Unlock()
	sort.Slice(objs, func(i, j int) bool { return objs[i].name < objs[j].name })
	for _, o := range objs {
		if err := o.flush(); err != nil {
			return err
		}
	}
	return nil
}

// flush uploads a dirty object: one conditional PUT up to PartSize,
// multipart beyond it. Parts retry individually — safe because
// UploadPart is idempotent per part number — and a failed upload aborts
// its session so the remote holds no half-staged state. On success the
// handle turns clean at the new generation and drops its buffer.
func (o *object) flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.dirty {
		return nil
	}
	b, data := o.b, o.buf
	var (
		gen int64
		err error
	)
	if int64(len(data)) <= b.opts.PartSize {
		err = retry(store.OpSync, func() (e error) {
			gen, e = b.svc.Put(o.name, data, o.gen)
			return
		})
	} else {
		gen, err = o.flushMultipart(data)
	}
	if err != nil {
		return fmt.Errorf("objstore: flush %q: %w", o.name, err)
	}
	o.dirty, o.buf, o.size, o.gen = false, nil, int64(len(data)), gen
	return nil
}

// flushMultipart runs the begin / part... / complete protocol with
// per-request retry. If the upload cannot complete, the session is
// aborted (itself retried); if even the abort gives up, the returned
// error keeps the upload failure as its chain and reports the abort
// failure alongside — both causes stay visible.
func (o *object) flushMultipart(data []byte) (int64, error) {
	b := o.b
	var id string
	err := retry(store.OpSync, func() (e error) {
		id, e = b.svc.BeginUpload(o.name)
		return
	})
	if err != nil {
		return 0, err
	}
	upload := func() error {
		for i, off := 0, int64(0); off < int64(len(data)); i, off = i+1, off+b.opts.PartSize {
			end := off + b.opts.PartSize
			if end > int64(len(data)) {
				end = int64(len(data))
			}
			part, num := data[off:end], i+1
			if err := retry(store.OpWrite, func() error {
				return b.svc.UploadPart(id, num, part)
			}); err != nil {
				return err
			}
		}
		return nil
	}
	if uerr := upload(); uerr != nil {
		return 0, o.abort(id, uerr)
	}
	var gen int64
	if cerr := retry(store.OpSync, func() (e error) {
		gen, e = b.svc.CompleteUpload(id, o.gen)
		return
	}); cerr != nil {
		return 0, o.abort(id, cerr)
	}
	return gen, nil
}

// abort tears down a failed upload session and composes the final
// error: the upload failure stays the unwrap chain; an abort that
// itself gives up is reported alongside with its own underlying cause
// (ExhaustedError keeps it visible).
func (o *object) abort(id string, uploadErr error) error {
	aerr := retry(store.OpRemove, func() error {
		return o.b.svc.AbortUpload(id)
	})
	if aerr != nil {
		return fmt.Errorf("multipart upload failed: %w (abort of %s also failed: %v)", uploadErr, id, aerr)
	}
	return uploadErr
}

// Size reports the object's current length.
func (o *object) Size() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.dirty {
		return int64(len(o.buf))
	}
	return o.size
}

// ReadAt serves from the staging buffer when dirty, else as a ranged
// GET. Holes read as zeros; reads past the end return io.EOF with the
// bytes that exist.
func (o *object) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("objstore: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	if !o.dirty {
		return o.b.svcGet(o.name, off, p)
	}
	if off >= int64(len(o.buf)) {
		return 0, io.EOF
	}
	n := copy(p, o.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt stages bytes locally, fetching the remote contents first if
// the object was clean (fetch-modify-flush). Writes past the end
// zero-fill the gap.
func (o *object) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off > math.MaxInt64-int64(len(p)) {
		return 0, fmt.Errorf("objstore: write of %d bytes at offset %d is out of range", len(p), off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.materialize(); err != nil {
		return 0, err
	}
	if end := int(off) + len(p); end > len(o.buf) {
		// Grown geometrically, so an object written front to back in
		// pieces is copied O(1) times per byte. The bytes past len were
		// never written, so a gap still reads as zeros.
		o.buf = slices.Grow(o.buf, end-len(o.buf))[:end]
	}
	copy(o.buf[off:], p)
	return len(p), nil
}

// materialize turns a clean handle dirty by fetching the full remote
// contents into the staging buffer. Callers hold o.mu.
func (o *object) materialize() error {
	if o.dirty {
		return nil
	}
	buf := make([]byte, o.size)
	if o.size > 0 {
		if _, err := o.b.svcGet(o.name, 0, buf); err != nil && err != io.EOF {
			return err
		}
	}
	o.dirty, o.buf = true, buf
	return nil
}
