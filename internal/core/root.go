package core

import (
	"fmt"

	"sdm/internal/sim"
)

// rootErr is rank 0's failure text as it travels in onRoot's broadcast.
type rootErr string

// onRoot is how rank 0 answers for the catalog, as the paper's process 0
// does: fn runs on rank 0 only, and one Bcast gives every rank either
// the value fn returned or its error text, so every rank takes the same
// branch and fails with rank 0's cause, prefixed by what. The broadcast
// is charged the bytes fn declares for its value (the root's size, as
// Bcast charges), a failure as an 8-byte status word; the text is not
// priced. A success travels as the value itself, so a zero-size T boxes
// without allocating.
func onRoot[T any](s *SDM, what string, fn func(*sim.Clock) (T, int64, error)) (T, error) {
	c := s.env.Comm
	var out any
	bytes := int64(8)
	if c.Rank() == 0 {
		v, n, err := fn(c.Clock())
		if err != nil {
			out = rootErr(err.Error())
		} else {
			out, bytes = v, n
		}
	}
	res := c.Bcast(0, out, bytes)
	if msg, failed := res.(rootErr); failed {
		var zero T
		return zero, fmt.Errorf("%s: %s", what, msg)
	}
	return res.(T), nil
}

// catalogCall is onRoot for a catalog call that returns only an error,
// an 8-byte status word.
func (s *SDM) catalogCall(fn func() error) error {
	_, err := onRoot(s, "core: metadata operation failed", func(*sim.Clock) (struct{}, int64, error) {
		return struct{}{}, 8, fn()
	})
	return err
}
