package store

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// memPageSize is the granularity of the sparse in-memory backing
// store (matching the historical pfs page size).
const memPageSize = 64 * 1024

// Mem is the in-memory backend: the original volatile byte store the
// simulated PFS grew up on. Objects survive Remove for as long as a
// handle keeps them alive (POSIX unlink semantics).
//
// Over a base backend (NewMemOver) a Mem is a copy-on-write layer, the
// store an opened bundle runs on: it shows the base's objects and reads
// them in place, copies one into memory at its first WriteAt or at a
// Rename, and hides one at Remove. It never creates, writes, renames,
// removes or syncs anything in the base.
type Mem struct {
	base   Backend // nil for a plain in-memory store
	mu     sync.RWMutex
	objs   map[string]*memObject
	hidden map[string]bool // base names removed or renamed away
}

// NewMem creates an empty in-memory backend.
func NewMem() *Mem { return NewMemOver(nil) }

// NewMemOver creates an in-memory backend over base (nil for none).
func NewMemOver(base Backend) *Mem {
	return &Mem{base: base, objs: make(map[string]*memObject), hidden: make(map[string]bool)}
}

// inBase reports whether name shows from the base. Callers hold m.mu.
func (m *Mem) inBase(name string) (bool, error) {
	if m.base == nil || m.hidden[name] {
		return false, nil
	}
	_, err := m.base.Stat(name)
	if errors.Is(err, ErrNotExist) {
		return false, nil
	}
	return err == nil, err
}

// Create makes an empty object.
func (m *Mem) Create(name string) (Object, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	exists, err := m.inBase(name)
	if _, ok := m.objs[name]; ok || exists {
		return nil, fmt.Errorf("create %q: %w", name, ErrExist)
	} else if err != nil {
		return nil, err
	}
	o := &memObject{}
	m.objs[name] = o
	return o, nil
}

// Open returns an existing object, opening a base one in the base once.
// A missing one is ErrNotExist itself, which names no object: a file
// system asks Open before every create, and the miss allocates nothing.
func (m *Mem) Open(name string) (Object, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.open(name)
}

// open is Open under m.mu.
func (m *Mem) open(name string) (Object, error) {
	if o, ok := m.objs[name]; ok {
		return o, nil
	}
	if m.base == nil || m.hidden[name] {
		return nil, ErrNotExist
	}
	bo, err := m.base.Open(name)
	if err != nil {
		return nil, err
	}
	o := &memObject{base: bo, size: bo.Size()}
	m.objs[name] = o
	return o, nil
}

// Stat reports an object's size.
func (m *Mem) Stat(name string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if o, ok := m.objs[name]; ok {
		return o.Size(), nil
	}
	if m.base == nil || m.hidden[name] {
		return 0, fmt.Errorf("stat %q: %w", name, ErrNotExist)
	}
	return m.base.Stat(name)
}

// Remove unlinks an object from the namespace; a base object is hidden.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objs[name]; !ok {
		if exists, err := m.inBase(name); !exists {
			return cmp.Or(err, fmt.Errorf("remove %q: %w", name, ErrNotExist))
		}
	}
	delete(m.objs, name)
	if m.base != nil {
		m.hidden[name] = true
	}
	return nil
}

// Rename moves an object to a new name, replacing any existing
// destination. Handles on a replaced destination keep their data
// (unlink semantics), like Remove. A base object is copied into memory
// first: the base keeps it under its old name.
func (m *Mem) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	obj, err := m.open(oldName)
	if errors.Is(err, ErrNotExist) {
		return fmt.Errorf("rename %q: %w", oldName, err)
	} else if err != nil {
		return err
	}
	o := obj.(*memObject)
	o.mu.Lock()
	err = o.copyUp()
	o.mu.Unlock()
	if err != nil {
		return err
	}
	delete(m.objs, oldName)
	m.objs[newName] = o
	if m.base != nil {
		m.hidden[oldName] = true
	}
	return nil
}

// List returns all object names in lexical order.
func (m *Mem) List() ([]string, error) {
	var names []string
	if m.base != nil {
		var err error
		if names, err = m.base.List(); err != nil {
			return nil, err
		}
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	names = slices.DeleteFunc(names, func(n string) bool { return m.hidden[n] })
	for n := range m.objs {
		names = append(names, n)
	}
	slices.Sort(names)
	return slices.Compact(names), nil
}

// Sync is a no-op: memory has nothing to flush, and a base is synced
// only by whoever writes it.
func (m *Mem) Sync() error { return nil }

// memObject stores bytes as sparse fixed-size pages or, until its first
// WriteAt, reads its base object; mu guards the swap against readers.
// Page 0 has a field of its own, so a one-page object allocates its
// object and its page; the map is made at the first page past it.
type memObject struct {
	mu    sync.RWMutex
	base  Object
	page0 []byte
	pages map[int64][]byte
	size  int64
}

// page returns page i, nil if it was never written. Callers hold o.mu.
func (o *memObject) page(i int64) []byte {
	if i == 0 {
		return o.page0
	}
	return o.pages[i]
}

// newPage allocates page i. Callers hold o.mu for writing.
func (o *memObject) newPage(i int64) []byte {
	buf := make([]byte, memPageSize)
	switch {
	case i == 0:
		o.page0 = buf
	case o.pages == nil:
		o.pages = map[int64][]byte{i: buf}
	default:
		o.pages[i] = buf
	}
	return buf
}

func (o *memObject) Size() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.size
}

func (o *memObject) WriteAt(p []byte, off int64) (int, error) {
	n := len(p)
	if n == 0 {
		return 0, nil
	}
	if err := checkWrite(off, n); err != nil {
		return 0, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.copyUp(); err != nil {
		return 0, err
	}
	o.size = max(o.size, off+int64(n))
	for len(p) > 0 {
		page, po := off/memPageSize, off%memPageSize
		k := min(int64(len(p)), memPageSize-po)
		buf := o.page(page)
		if buf == nil {
			buf = o.newPage(page)
		}
		copy(buf[po:po+k], p[:k])
		p = p[k:]
		off += k
	}
	return n, nil
}

func (o *memObject) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if off < 0 {
		return 0, fmt.Errorf("store: read at negative offset %d", off)
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.base != nil {
		return o.base.ReadAt(p, off)
	}
	if off >= o.size {
		return 0, io.EOF
	}
	want := min(int64(len(p)), o.size-off)
	for read := int64(0); read < want; {
		page, po := (off+read)/memPageSize, (off+read)%memPageSize
		n := min(want-read, memPageSize-po)
		if buf := o.page(page); buf != nil {
			copy(p[read:read+n], buf[po:po+n])
		} else {
			clear(p[read : read+n])
		}
		read += n
	}
	if want < int64(len(p)) {
		return int(want), io.EOF
	}
	return int(want), nil
}

// copyUp copies a base object into pages, a page per base read, and
// drops it. Callers hold o.mu.
func (o *memObject) copyUp() error {
	if o.base == nil {
		return nil
	}
	cp := &memObject{}
	src := io.NewSectionReader(o.base, 0, o.size)
	if _, err := io.CopyBuffer(io.NewOffsetWriter(cp, 0), src, make([]byte, memPageSize)); err != nil {
		return fmt.Errorf("store: copying base object: %w", err)
	}
	o.base, o.page0, o.pages = nil, cp.page0, cp.pages
	return nil
}
