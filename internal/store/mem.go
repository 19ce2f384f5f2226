package store

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// memPageSize is the granularity of the sparse in-memory backing
// store (matching the historical pfs page size).
const memPageSize = 64 * 1024

// Mem is the in-memory backend: the original volatile byte store the
// simulated PFS grew up on. Objects survive Remove for as long as a
// handle keeps them alive (POSIX unlink semantics).
type Mem struct {
	mu   sync.RWMutex
	objs map[string]*memObject
}

// NewMem creates an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{objs: make(map[string]*memObject)}
}

// Create makes an empty object.
func (m *Mem) Create(name string) (Object, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objs[name]; ok {
		return nil, fmt.Errorf("create %q: %w", name, ErrExist)
	}
	o := &memObject{pages: make(map[int64][]byte)}
	m.objs[name] = o
	return o, nil
}

// Open returns an existing object.
func (m *Mem) Open(name string) (Object, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, ok := m.objs[name]
	if !ok {
		return nil, fmt.Errorf("open %q: %w", name, ErrNotExist)
	}
	return o, nil
}

// Stat reports an object's size.
func (m *Mem) Stat(name string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, ok := m.objs[name]
	if !ok {
		return 0, fmt.Errorf("stat %q: %w", name, ErrNotExist)
	}
	return o.size, nil
}

// Remove unlinks an object from the namespace.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objs[name]; !ok {
		return fmt.Errorf("remove %q: %w", name, ErrNotExist)
	}
	delete(m.objs, name)
	return nil
}

// Rename moves an object to a new name, replacing any existing
// destination. Handles on a replaced destination keep their data
// (unlink semantics), like Remove.
func (m *Mem) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.objs[oldName]
	if !ok {
		return fmt.Errorf("rename %q: %w", oldName, ErrNotExist)
	}
	delete(m.objs, oldName)
	m.objs[newName] = o
	return nil
}

// List returns all object names in lexical order.
func (m *Mem) List() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.objs))
	for n := range m.objs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Sync is a no-op: memory has nothing to flush.
func (m *Mem) Sync() error { return nil }

// memObject stores bytes as sparse fixed-size pages.
type memObject struct {
	pages map[int64][]byte
	size  int64
}

func (o *memObject) Size() int64 { return o.size }

func (o *memObject) WriteAt(p []byte, off int64) (int, error) {
	n := len(p)
	if n == 0 {
		return 0, nil
	}
	if end := off + int64(n); end > o.size {
		o.size = end
	}
	for len(p) > 0 {
		page := off / memPageSize
		po := off % memPageSize
		k := int64(len(p))
		if k > memPageSize-po {
			k = memPageSize - po
		}
		buf := o.pages[page]
		if buf == nil {
			buf = make([]byte, memPageSize)
			o.pages[page] = buf
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
	read := int64(0)
	for read < want {
		page := (off + read) / memPageSize
		po := (off + read) % memPageSize
		n := want - read
		if n > memPageSize-po {
			n = memPageSize - po
		}
		if buf := o.pages[page]; buf != nil {
			copy(p[read:read+n], buf[po:po+n])
		} else {
			clear(p[read : read+n])
		}
		read += n
	}
	if short {
		return int(read), io.EOF
	}
	return int(read), nil
}
