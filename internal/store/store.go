// Package store provides the pluggable byte-storage backends beneath
// the simulated parallel file system (internal/pfs).
//
// The PFS simulation separates two concerns: *cost* (virtual time
// charged to rank clocks as byte ranges map onto striped I/O servers)
// and *bytes* (the actual contents, so correctness is testable end to
// end). This package owns the bytes. A Backend is a flat namespace of
// named Objects supporting random-access reads and writes; the pfs
// layer charges virtual time identically no matter which backend holds
// the data, so swapping backends never changes simulated metrics.
//
// Three implementations are provided:
//
//   - Mem: sparse in-memory pages — the original volatile store, and
//     still the default for benchmarks.
//   - Dir: one host file per object under a root directory, making a
//     simulated file system's contents durable across OS processes.
//   - CAS: content-addressed storage in the style of datamon's cafs —
//     objects are sequences of fixed-size chunks keyed by SHA-256, so
//     identical chunks are stored once (dedup) and chunks can be
//     flate-compressed. Rooted on a directory, for durability.
//
// The run-bundle layer (sdm.SaveBundle / sdm.OpenBundle) persists a
// cluster's PFS contents through a Dir or CAS backend (or objstore's
// simulated remote) so a later process can reopen earlier results by
// name through the metadata catalog; a Spec is what it records to find
// the store again. Wrap is the one decorator: fault injection (Faulty),
// retries (Retry) and the bundle layer's metering are hooks over it.
package store

import (
	"errors"
	"os"
)

// Errors returned by backends.
var (
	ErrNotExist = errors.New("store: object does not exist")
	ErrExist    = errors.New("store: object already exists")
	// ErrUnavailable marks a transient backend failure: the operation
	// did not (fully) happen but may succeed if retried. Injected by
	// Faulty, masked by Retry.
	ErrUnavailable = errors.New("store: backend temporarily unavailable")
	// ErrCrashed marks a permanently dead backend (Faulty's
	// crash-at-op-N): no operation will ever succeed again. Retry fails
	// fast on it rather than burning its attempt budget.
	ErrCrashed = errors.New("store: backend crashed")
)

// IsTransient reports whether err is worth retrying: a transient
// backend failure rather than a semantic error (ErrNotExist/ErrExist)
// or a dead backend (ErrCrashed).
func IsTransient(err error) bool { return errors.Is(err, ErrUnavailable) }

// Spec names a bundle's byte store and its geometry. It is recorded twice,
// under the same JSON keys — in the bundle manifest and in the write-ahead
// log's begin record — so open, GC, fsck and crash recovery all rebuild the
// store a save wrote through. Which fields a kind reads is the bundle
// layer's business (its one constructor); this package only carries them.
type Spec struct {
	// Backend is the store kind.
	Backend string `json:"backend"`
	// Compress and ChunkSize are the content-addressed pool's geometry.
	Compress  bool  `json:"compress,omitempty"`
	ChunkSize int64 `json:"chunk_size,omitempty"`
	// Endpoint and PartSize locate a remote object store and fix its
	// multipart geometry. Endpoint is empty exactly when the bytes live
	// under the bundle directory.
	Endpoint string `json:"endpoint,omitempty"`
	PartSize int64  `json:"part_size,omitempty"`
}

// Object is one named byte array inside a Backend. Semantics follow
// the simulated PFS's needs (and os.File where they overlap):
//
//   - WriteAt extends the object as needed; unwritten gaps are holes.
//   - ReadAt zero-fills holes. A read extending past the current size
//     returns the short count with io.EOF; a read at or past the size
//     returns (0, io.EOF). Zero-length reads return (0, nil).
//
// Offsets are non-negative; callers (the pfs layer) validate before
// calling. Objects are not safe for concurrent mutation — ranks take
// turns (internal/mpi), so one writer at a time reaches a file through
// the pfs layer — but concurrent readers are allowed.
type Object interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() int64
}

// Backend is a flat namespace of Objects. Namespace operations are
// safe for concurrent use.
type Backend interface {
	// Create makes an empty object, failing with ErrExist if present.
	Create(name string) (Object, error)
	// Open returns an existing object, or ErrNotExist.
	Open(name string) (Object, error)
	// Stat reports an object's size without opening it, or ErrNotExist.
	Stat(name string) (int64, error)
	// Remove deletes an object from the namespace, or ErrNotExist.
	// Whether already-open Objects survive removal is backend-specific;
	// Mem guarantees POSIX-like unlink semantics.
	Remove(name string) error
	// Rename atomically moves an object to a new name, replacing any
	// object already at the destination (os.Rename semantics). It is
	// the commit primitive of the bundle write-ahead log: staged
	// objects are promoted to their final names by rename, never by
	// rewriting bytes in place. Returns ErrNotExist if oldName is
	// absent.
	Rename(oldName, newName string) error
	// List returns all object names in lexical order.
	List() ([]string, error)
	// Sync makes what was written durable: a Dir fsyncs and promotes
	// its staged files, a CAS writes and fsyncs its new chunk files and
	// its manifest. A no-op for Mem.
	Sync() error
}

// Fsync flushes a file or a directory to stable storage: a file's
// bytes, or a directory's entries (created, renamed and removed). It is
// the one fsync of the store and bundle layers, a variable so a test
// can count or fail the calls.
var Fsync = func(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	return Fsync(path)
}
