package store

// Call is one operation on its way through a wrapped backend: which
// operation, and the means to perform it on the store beneath.
type Call struct {
	Op Op
	// P and Off are the buffer and offset of an OpRead or OpWrite. A hook
	// may narrow P before Do (a torn write lands a prefix).
	P   []byte
	Off int64

	obj Object       // the OpRead/OpWrite target
	run func() error // every other operation, bound to its arguments
}

// Do performs the operation on the wrapped store and returns what it
// returned (the byte count is 0 for anything but a read or a write). A
// hook may call it more than once (a retry) or not at all (an injected
// failure).
func (c Call) Do() (int, error) {
	switch c.Op {
	case OpRead:
		return c.obj.ReadAt(c.P, c.Off)
	case OpWrite:
		return c.obj.WriteAt(c.P, c.Off)
	}
	return 0, c.run()
}

// Hook decides how one operation runs; what it returns is what the
// caller of the wrapped backend sees. Reads and writes reach a hook
// without a heap allocation, so a hook that only counts costs none.
type Hook func(c Call) (int, error)

// Wrap returns b with every Backend and Object operation routed through
// hook — all but Object.Size, which is metadata already in memory. It is
// the only type that forwards the two method sets: a decorator is a Hook.
func Wrap(b Backend, hook Hook) Backend { return &wrapped{inner: b, hook: hook} }

type wrapped struct {
	inner Backend
	hook  Hook
}

func (w *wrapped) call(op Op, run func() error) error {
	_, err := w.hook(Call{Op: op, run: run})
	return err
}

// object runs Create or Open and wraps the object it returned.
func (w *wrapped) object(op Op, get func(string) (Object, error), name string) (Object, error) {
	var o Object
	if err := w.call(op, func() (e error) { o, e = get(name); return }); err != nil {
		return nil, err
	}
	return &wrappedObject{w: w, inner: o}, nil
}

func (w *wrapped) Create(name string) (Object, error) {
	return w.object(OpCreate, w.inner.Create, name)
}

func (w *wrapped) Open(name string) (Object, error) {
	return w.object(OpOpen, w.inner.Open, name)
}

func (w *wrapped) Stat(name string) (n int64, err error) {
	err = w.call(OpStat, func() (e error) { n, e = w.inner.Stat(name); return })
	return n, err
}

func (w *wrapped) Remove(name string) error {
	return w.call(OpRemove, func() error { return w.inner.Remove(name) })
}

func (w *wrapped) Rename(oldName, newName string) error {
	return w.call(OpRename, func() error { return w.inner.Rename(oldName, newName) })
}

func (w *wrapped) List() (names []string, err error) {
	err = w.call(OpList, func() (e error) { names, e = w.inner.List(); return })
	return names, err
}

func (w *wrapped) Sync() error { return w.call(OpSync, w.inner.Sync) }

type wrappedObject struct {
	w     *wrapped
	inner Object
}

func (o *wrappedObject) Size() int64 { return o.inner.Size() }

func (o *wrappedObject) ReadAt(p []byte, off int64) (int, error) {
	return o.w.hook(Call{Op: OpRead, P: p, Off: off, obj: o.inner})
}

func (o *wrappedObject) WriteAt(p []byte, off int64) (int, error) {
	return o.w.hook(Call{Op: OpWrite, P: p, Off: off, obj: o.inner})
}
