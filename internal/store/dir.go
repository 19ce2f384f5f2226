package store

import (
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"
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
// An object's file changes only at Sync. Written bytes accumulate in a
// host staging file — a created object's from its first byte, an
// existing object's from its first WriteAt, which copies the file
// there — and Sync promotes every staged object to its real file name
// by fsync + os.Rename. A crash mid-save therefore leaves either the
// old file or the new one, never a torn hybrid, and a process that
// never syncs leaves every promoted file as it found it.
type Dir struct {
	mu      sync.Mutex
	root    string
	pending map[string]*dirObject // staged, not yet promoted
	// dirty records that the namespace changed (a staged object, Remove,
	// Rename) since the last Sync, whose directory fsync must then run
	// even with nothing left to promote.
	dirty bool
}

// DirOptions is accepted for compatibility and ignored: every Dir
// stages its writes until Sync.
type DirOptions struct {
	// AtomicWrites is ignored.
	AtomicWrites bool
}

// NewDir opens (creating if needed) a directory-backed store rooted at
// root. Existing files in the directory become the initial namespace;
// staging files a crashed or unsaved predecessor left behind were never
// promoted, so they belong to no object and are removed.
func NewDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating dir root: %w", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), dirTempPrefix) {
			_ = os.Remove(filepath.Join(root, e.Name()))
		}
	}
	return &Dir{root: root, pending: make(map[string]*dirObject)}, nil
}

// NewDirOpts is NewDir; opts is ignored.
func NewDirOpts(root string, opts DirOptions) (*Dir, error) { return NewDir(root) }

// dirTempPrefix marks unpromoted staging files. It contains a character
// PathEscape always escapes in object names, so no escaped object name
// can collide with a staging file.
const dirTempPrefix = "%tmp%"

// hostPath maps an object name to its file path under the root.
func (d *Dir) hostPath(name string) string {
	return filepath.Join(d.root, url.PathEscape(name))
}

// tempPath maps an object name to its staging file path.
func (d *Dir) tempPath(name string) string {
	return filepath.Join(d.root, dirTempPrefix+url.PathEscape(name))
}

// Create makes an empty object, failing if one exists. Its bytes land
// in a staging file until the next Sync promotes them.
func (d *Dir) Create(name string) (Object, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dirty = true
	if _, ok := d.pending[name]; ok {
		return nil, fmt.Errorf("create %q: %w", name, ErrExist)
	}
	if _, err := os.Stat(d.hostPath(name)); err == nil {
		return nil, fmt.Errorf("create %q: %w", name, ErrExist)
	}
	f, err := os.OpenFile(d.tempPath(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	o := &dirObject{d: d, name: name, f: f}
	d.pending[name] = o
	return o, nil
}

// Open returns an existing object: a staged one itself, a promoted one
// over its file opened read-only (its first WriteAt stages it).
func (d *Dir) Open(name string) (Object, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if o, ok := d.pending[name]; ok {
		return o, nil
	}
	f, err := os.Open(d.hostPath(name))
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
	return &dirObject{d: d, name: name, f: f, size: info.Size()}, nil
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

// Remove deletes an object: its staging and its promoted file, when it
// has them. Objects already open keep their data through the underlying
// descriptor (on POSIX hosts).
func (d *Dir) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dirty = true
	_, staged := d.pending[name]
	if staged {
		delete(d.pending, name)
		if err := os.Remove(d.tempPath(name)); err != nil {
			return err
		}
	}
	if err := os.Remove(d.hostPath(name)); err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		if !staged {
			return fmt.Errorf("remove %q: %w", name, ErrNotExist)
		}
	}
	return nil
}

// Rename atomically moves an object to a new name (os.Rename, which
// replaces any existing destination). A staged object is retargeted:
// its staging file moves with it and the next Sync promotes it to the
// new name.
func (d *Dir) Rename(oldName, newName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dirty = true
	o, staged := d.pending[oldName]
	if staged {
		if err := os.Rename(d.tempPath(oldName), d.tempPath(newName)); err != nil {
			return err
		}
		o.name = newName
		delete(d.pending, oldName)
		d.pending[newName] = o
	}
	if err := os.Rename(d.hostPath(oldName), d.hostPath(newName)); err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		if !staged {
			return fmt.Errorf("rename %q: %w", oldName, ErrNotExist)
		}
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
	slices.Sort(names)
	// A staged existing object is listed once, not also by its file.
	return slices.Compact(names), nil
}

// Sync promotes every staged object: each staging file is fsynced,
// renamed onto its object's file, and the root directory is fsynced, so
// promoted files survive a crash whole — and so do the Renames and
// Removes of objects promoted earlier, which leave nothing staged. An
// object written after Sync stages again.
func (d *Dir) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.dirty {
		return nil
	}
	for name, o := range d.pending {
		if err := o.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing %q: %w", name, err)
		}
		if err := os.Rename(d.tempPath(name), d.hostPath(name)); err != nil {
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

// dirObject wraps one *os.File: the object's staging file while it is
// staged, else its promoted file, which WriteAt never touches. Size is
// tracked in memory (the pfs layer serializes mutation) so the hot path
// avoids a stat per call.
type dirObject struct {
	d    *Dir
	name string
	f    *os.File
	size int64
}

func (o *dirObject) Size() int64 { return o.size }

func (o *dirObject) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := o.stage(); err != nil {
		return 0, err
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

// stage makes o staged before a write: a promoted object's bytes are
// copied into its staging file, which o then reads and writes in place
// of the promoted file until Sync promotes it.
func (o *dirObject) stage() error {
	d := o.d
	d.mu.Lock()
	defer d.mu.Unlock()
	switch p := d.pending[o.name]; {
	case p == o:
		return nil
	case p != nil:
		return fmt.Errorf("store: write %q: staged through another handle", o.name)
	}
	tmp, err := os.OpenFile(d.tempPath(o.name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(tmp, io.NewSectionReader(o.f, 0, o.size)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: staging %q: %w", o.name, err)
	}
	o.f.Close()
	o.f = tmp
	d.pending[o.name] = o
	d.dirty = true
	return nil
}
