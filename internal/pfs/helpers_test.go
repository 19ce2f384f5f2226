package pfs

// writeAt stores p at off as a one-extent vectored request: the form
// every contiguous access takes.
func writeAt(h *Handle, p []byte, off int64) (int, error) {
	return h.WriteAtVec(p, []Extent{{Off: off, Len: int64(len(p))}})
}

// readAt fills p from off as a one-extent vectored request. A read past
// end of file returns io.EOF with the short count and zero-fills the
// tail.
func readAt(h *Handle, p []byte, off int64) (int, error) {
	return h.ReadAtVec(p, []Extent{{Off: off, Len: int64(len(p))}})
}
