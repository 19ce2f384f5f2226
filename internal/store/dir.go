package store

import (
	"fmt"
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
// Every change reaches the files at once, and Sync makes it durable. A
// bundle's write-ahead log, not the Dir, makes a save all-or-nothing.
type Dir struct {
	mu      sync.Mutex
	root    string
	written map[*dirObject]bool // objects whose files Sync must fsync
	// dirty records that the namespace changed (Create, Remove, Rename)
	// since the last Sync, whose directory fsync must then run.
	dirty bool
}

// DirOptions is accepted for compatibility and ignored.
type DirOptions struct {
	// AtomicWrites is ignored.
	AtomicWrites bool
}

// NewDir opens (creating if needed) a directory-backed store rooted at
// root. Existing files in the directory become the initial namespace,
// except the staging files an earlier build's Dir left unpromoted,
// which belong to no object and are removed.
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
	return &Dir{root: root, written: make(map[*dirObject]bool)}, nil
}

// NewDirOpts is NewDir; opts is ignored.
func NewDirOpts(root string, opts DirOptions) (*Dir, error) { return NewDir(root) }

// dirTempPrefix marks an earlier build's staging files; PathEscape
// always escapes its '%', so no object's file name starts with it.
const dirTempPrefix = "%tmp%"

// hostPath maps an object name to its file path under the root.
func (d *Dir) hostPath(name string) string {
	return filepath.Join(d.root, url.PathEscape(name))
}

// change runs a namespace change under the lock and marks the root for
// the next Sync's fsync.
func (d *Dir) change(op, name string, fn func() error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := fn(); err != nil {
		return dirErr(op, name, err)
	}
	d.dirty = true
	return nil
}

// dirErr states a host file error in the store's terms.
func dirErr(op, name string, err error) error {
	switch {
	case os.IsNotExist(err):
		return fmt.Errorf("%s %q: %w", op, name, ErrNotExist)
	case os.IsExist(err):
		return fmt.Errorf("%s %q: %w", op, name, ErrExist)
	}
	return err
}

// Create makes an empty object, failing if one exists.
func (d *Dir) Create(name string) (Object, error) {
	var f *os.File
	err := d.change("create", name, func() (err error) {
		f, err = os.OpenFile(d.hostPath(name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &dirObject{d: d, f: f}, nil
}

// Open returns an existing object, read-write, or read-only where the
// file cannot be written.
func (d *Dir) Open(name string) (Object, error) {
	path := d.hostPath(name)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil && !os.IsNotExist(err) {
		f, err = os.Open(path)
	}
	if err != nil {
		return nil, dirErr("open", name, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &dirObject{d: d, f: f, size: info.Size()}, nil
}

// Stat reports an object's size.
func (d *Dir) Stat(name string) (int64, error) {
	info, err := os.Stat(d.hostPath(name))
	if err != nil {
		return 0, dirErr("stat", name, err)
	}
	return info.Size(), nil
}

// Remove deletes an object's file. Objects already open keep their
// data through the underlying descriptor (on POSIX hosts).
func (d *Dir) Remove(name string) error {
	return d.change("remove", name, func() error { return os.Remove(d.hostPath(name)) })
}

// Rename atomically moves an object to a new name (os.Rename, which
// replaces any existing destination).
func (d *Dir) Rename(oldName, newName string) error {
	return d.change("rename", oldName, func() error { return os.Rename(d.hostPath(oldName), d.hostPath(newName)) })
}

// List returns all object names in lexical order.
func (d *Dir) List() ([]string, error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
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
	return names, nil
}

// Sync fsyncs every file written since the last Sync, then — when the
// namespace changed — the root directory, so written files and the
// Creates, Renames and Removes before it survive a crash.
func (d *Dir) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for o := range d.written {
		if err := o.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing %s: %w", o.f.Name(), err)
		}
		delete(d.written, o)
	}
	if !d.dirty {
		return nil
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
	d    *Dir
	f    *os.File
	size int64
}

func (o *dirObject) Size() int64 { return o.size }

func (o *dirObject) WriteAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	o.d.mu.Lock()
	o.d.written[o] = true
	o.d.mu.Unlock()
	n, err := o.f.WriteAt(p, off)
	if n > 0 {
		o.size = max(o.size, off+int64(n))
	}
	return n, err
}

func (o *dirObject) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.f.ReadAt(p, off)
}
