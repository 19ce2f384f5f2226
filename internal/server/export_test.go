package server

// WireCode is the wire.Error code a handler answers err with, for tests
// of the local read path, which returns its refusals without a handler.
func WireCode(err error) string { return refusal(err).code }
