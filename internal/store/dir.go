package store

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Dir is a host-directory backend: each object is one regular file
// under the root, so a simulated file system's contents survive the
// process and can be inspected with ordinary tools. Object names are
// percent-escaped into file names (simulated names may contain path
// separators); the mapping is reversible, so List round-trips.
//
// Each opened object holds its file descriptor for the object's
// lifetime (the pfs layer caches objects per system, so the fd count
// is bounded by the number of distinct files ever touched — fine at
// simulation scale; a descriptor cache would be needed before
// pointing this at bundles with tens of thousands of files).
//
// With DirOptions.AtomicWrites, newly created objects accumulate in a
// host temp file and are promoted to their real file name by fsync +
// os.Rename when Sync runs, so a crash mid-save leaves either the old
// file or the new one — never a torn hybrid. Bundle saves run in this
// mode; the live pfs path keeps the plain in-place mode (its objects
// are mutated incrementally over a run, not written once).
type Dir struct {
	mu      sync.Mutex
	root    string
	atomic  bool
	pending map[string]*dirObject // created but not yet promoted (atomic mode)
	// dirty records that the namespace changed (Create, Remove, Rename)
	// since the last Sync, whose directory fsync must then run even with
	// nothing left to promote.
	dirty bool
}

// DirOptions tunes a host-directory backend.
type DirOptions struct {
	// AtomicWrites stages every Create in a temp file promoted to its
	// final name by Sync (fsync + rename), making single-shot writers
	// like the bundle save path torn-write safe.
	AtomicWrites bool
}

// NewDir opens (creating if needed) a directory-backed store rooted at
// root. Existing files in the directory become the initial namespace.
func NewDir(root string) (*Dir, error) {
	return NewDirOpts(root, DirOptions{})
}

// NewDirOpts is NewDir with explicit options.
func NewDirOpts(root string, opts DirOptions) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating dir root: %w", err)
	}
	d := &Dir{root: root, atomic: opts.AtomicWrites}
	if d.atomic {
		d.pending = make(map[string]*dirObject)
		// Sweep temp files a crashed predecessor left behind; they were
		// never promoted, so they belong to no object.
		entries, err := os.ReadDir(root)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), dirTempPrefix) {
				_ = os.Remove(filepath.Join(root, e.Name()))
			}
		}
	}
	return d, nil
}

// dirTempPrefix marks unpromoted staging files in atomic mode. It
// contains a character PathEscape always escapes in object names, so
// no escaped object name can collide with a temp file.
const dirTempPrefix = "%tmp%"

// hostPath maps an object name to its file path under the root.
func (d *Dir) hostPath(name string) string {
	return filepath.Join(d.root, url.PathEscape(name))
}

// tempPath maps an object name to its staging file path.
func (d *Dir) tempPath(name string) string {
	return filepath.Join(d.root, dirTempPrefix+url.PathEscape(name))
}

// Create makes an empty object, failing if one exists. In atomic mode
// the bytes land in a temp file until the next Sync promotes them.
func (d *Dir) Create(name string) (Object, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dirty = true
	path := d.hostPath(name)
	if d.atomic {
		if _, ok := d.pending[name]; ok {
			return nil, fmt.Errorf("create %q: %w", name, ErrExist)
		}
		if _, err := os.Stat(path); err == nil {
			return nil, fmt.Errorf("create %q: %w", name, ErrExist)
		}
		f, err := os.OpenFile(d.tempPath(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		o := &dirObject{f: f, final: path}
		d.pending[name] = o
		return o, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("create %q: %w", name, ErrExist)
		}
		return nil, err
	}
	return &dirObject{f: f}, nil
}

// Open returns an existing object.
func (d *Dir) Open(name string) (Object, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if o, ok := d.pending[name]; ok {
		return o, nil
	}
	f, err := os.OpenFile(d.hostPath(name), os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("open %q: %w", name, ErrNotExist)
		}
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &dirObject{f: f, size: info.Size()}, nil
}

// Stat reports an object's size.
func (d *Dir) Stat(name string) (int64, error) {
	d.mu.Lock()
	if o, ok := d.pending[name]; ok {
		d.mu.Unlock()
		return o.size, nil
	}
	d.mu.Unlock()
	info, err := os.Stat(d.hostPath(name))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("stat %q: %w", name, ErrNotExist)
		}
		return 0, err
	}
	return info.Size(), nil
}

// Remove deletes an object's file. Objects already open keep their
// data through the underlying descriptor (on POSIX hosts).
func (d *Dir) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dirty = true
	if _, ok := d.pending[name]; ok {
		delete(d.pending, name)
		return os.Remove(d.tempPath(name))
	}
	if err := os.Remove(d.hostPath(name)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("remove %q: %w", name, ErrNotExist)
		}
		return err
	}
	return nil
}

// Rename atomically moves an object to a new name (os.Rename, which
// replaces any existing destination). A pending object is retargeted:
// its temp file stays put and the next Sync promotes it to the new
// final path.
func (d *Dir) Rename(oldName, newName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dirty = true
	if o, ok := d.pending[oldName]; ok {
		if err := os.Rename(d.tempPath(oldName), d.tempPath(newName)); err != nil {
			return err
		}
		o.final = d.hostPath(newName)
		delete(d.pending, oldName)
		d.pending[newName] = o
		return nil
	}
	if err := os.Rename(d.hostPath(oldName), d.hostPath(newName)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("rename %q: %w", oldName, ErrNotExist)
		}
		return err
	}
	return nil
}

// List returns all object names in lexical order.
func (d *Dir) List() ([]string, error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	names := make([]string, 0, len(entries)+len(d.pending))
	for n := range d.pending {
		names = append(names, n)
	}
	d.mu.Unlock()
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), dirTempPrefix) {
			continue
		}
		name, err := url.PathUnescape(e.Name())
		if err != nil {
			// Foreign file in the root; surface it under its raw name.
			name = e.Name()
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Sync promotes pending objects in atomic mode: each temp file is
// fsynced, renamed onto its final path, and the root directory is
// fsynced, so promoted files survive a crash whole — and so do the
// Renames and Removes of objects promoted earlier, which leave nothing
// pending. In plain mode writes go straight to the host file system
// and Sync is a no-op.
func (d *Dir) Sync() error {
	if !d.atomic {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.dirty {
		return nil
	}
	for name, o := range d.pending {
		if err := o.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing %q: %w", name, err)
		}
		if err := os.Rename(d.tempPath(name), o.final); err != nil {
			return fmt.Errorf("store: promoting %q: %w", name, err)
		}
		delete(d.pending, name)
	}
	if err := Fsync(d.root); err != nil {
		return err
	}
	d.dirty = false
	return nil
}

// dirObject wraps one *os.File. Size is tracked in memory (the pfs
// layer serializes mutation) so the hot path avoids a stat per call.
type dirObject struct {
	f     *os.File
	size  int64
	final string // promotion target while pending (atomic mode)
}

func (o *dirObject) Size() int64 { return o.size }

func (o *dirObject) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n, err := o.f.WriteAt(p, off)
	if end := off + int64(n); end > o.size {
		o.size = end
	}
	return n, err
}

func (o *dirObject) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.f.ReadAt(p, off)
}
