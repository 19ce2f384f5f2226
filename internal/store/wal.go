package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// The bundle write-ahead log makes saves crash-consistent. A save
// appends intent records — what the new bundle will contain and where
// its bytes are being staged — fsyncs them ahead of every data
// mutation, stages all data under scratch names, and finally appends a
// sealed commit record carrying the new manifest. Only after the
// commit record is durable are staged objects promoted (renamed) onto
// their final names. Recovery reads the log back:
//
//   - no commit record (including a torn tail): the save never
//     committed — roll back by deleting staged objects; the old bundle
//     is untouched and intact.
//   - sealed commit record: the save committed — roll forward by
//     re-running the promotion, which is idempotent (renames of
//     already-promoted objects are skipped).
//
// So a kill at any byte offset of the save yields the old bundle or
// the new one, never a hybrid.
//
// Record wire format, length-prefixed with a CRC so a torn append is
// detected rather than misparsed:
//
//	| u32 payload len | u8 type | payload | u32 crc32(type+payload) |
//
// Payloads are JSON for inspectability (a bundle's wal.log is small —
// a few records per save).

// WAL record types.
const (
	// WALBegin opens a save: backend parameters and save epoch.
	WALBegin byte = 1
	// WALPut declares one object's staging intent: final name, staged
	// name, size.
	WALPut byte = 2
	// WALCatalog declares the catalog snapshot's staging file.
	WALCatalog byte = 3
	// WALCommit seals the save and carries the new manifest verbatim.
	WALCommit byte = 4
)

// WALBeginRecord is the payload of a WALBegin record: the store the
// save stages into, so recovery can reopen it (for a remote one, the
// same endpoint with the same multipart geometry).
type WALBeginRecord struct {
	Format int `json:"format"`
	Spec
}

// WALPutRecord is the payload of a WALPut record: the intent to
// replace Name with the bytes staged under Stage. Logs written by
// earlier builds also carry a "sha256" key, which nothing read;
// decoding ignores it.
type WALPutRecord struct {
	Name  string `json:"name"`
	Stage string `json:"stage"`
	Size  int64  `json:"size"`
}

// WALCatalogRecord is the payload of a WALCatalog record: the catalog
// snapshot staged in host file Stage (relative to the bundle dir).
type WALCatalogRecord struct {
	Stage string `json:"stage"`
}

// WALCommitRecord is the payload of a WALCommit record. Manifest holds
// the new MANIFEST.json bytes, written to disk only during apply.
type WALCommitRecord struct {
	Manifest json.RawMessage `json:"manifest"`
}

// WALRecord is one parsed log record.
type WALRecord struct {
	Type    byte
	Payload []byte
}

// ErrCorruptWAL marks a record whose checksum holds but whose payload is
// not the JSON its type calls for — a log no save of this program wrote.
var ErrCorruptWAL = errors.New("store: corrupt wal record")

// Decode unmarshals the record's JSON payload into v, or returns an
// error wrapping ErrCorruptWAL.
func (r WALRecord) Decode(v any) error {
	if err := json.Unmarshal(r.Payload, v); err != nil {
		return fmt.Errorf("%w of type %d: %v", ErrCorruptWAL, r.Type, err)
	}
	return nil
}

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WAL is an append-only, fsync-ordered record log backed by one host
// file. Appends buffer in the OS; Sync is the durability barrier. A nil
// *WAL is the null log — Append, Sync and Close do nothing — so a save
// that opted out of logging runs the same protocol without one.
type WAL struct {
	f    *os.File
	path string
}

// CreateWAL creates (truncating any predecessor) a write-ahead log at
// path. Callers recover any existing log before creating a new one.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating wal: %w", err)
	}
	return &WAL{f: f, path: path}, nil
}

// Append writes one record; v is JSON-marshalled into the payload.
func (w *WAL) Append(typ byte, v any) error {
	if w == nil {
		return nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	rec := make([]byte, 0, 9+len(payload)+4)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, typ)
	rec = append(rec, payload...)
	crc := crc32.Checksum(rec[4:], walCRC)
	rec = binary.LittleEndian.AppendUint32(rec, crc)
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("store: appending wal record: %w", err)
	}
	return nil
}

// Sync is the durability barrier: every record appended so far is made
// durable before Sync returns.
func (w *WAL) Sync() error {
	if w == nil {
		return nil
	}
	return w.f.Sync()
}

// Close closes the log file (the log itself stays on disk until the
// save's apply phase removes it).
func (w *WAL) Close() error {
	if w == nil {
		return nil
	}
	return w.f.Close()
}

// ReadWAL parses the log at path. A missing file returns (nil, false,
// nil). A torn tail — truncated record, CRC mismatch, impossible
// length — ends the parse at the last whole record; everything before
// it is returned. sealed reports whether a WALCommit record survived
// whole, i.e. whether the save reached its commit point.
func ReadWAL(path string) (recs []WALRecord, sealed bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: reading wal: %w", err)
	}
	for len(data) >= 9 {
		n := int(binary.LittleEndian.Uint32(data))
		if n < 0 || len(data) < 9+n {
			break // torn tail
		}
		body := data[4 : 5+n]
		crc := binary.LittleEndian.Uint32(data[5+n:])
		if crc32.Checksum(body, walCRC) != crc {
			break // torn or corrupt record: stop trusting the log here
		}
		rec := WALRecord{Type: body[0], Payload: append([]byte(nil), body[1:]...)}
		recs = append(recs, rec)
		if rec.Type == WALCommit {
			sealed = true
		}
		data = data[9+n:]
	}
	return recs, sealed, nil
}
