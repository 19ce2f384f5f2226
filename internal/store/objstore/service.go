// Package objstore simulates a remote object store with S3-like
// semantics — immutable blobs named by key, ranged GETs, multipart
// PUTs, list-by-prefix pagination, conditional overwrite by
// generation — and an explicit priced cost model on the virtual
// clock: every request pays a first-byte latency plus bytes over a
// direction-specific bandwidth, and accrues a per-request charge
// (PUT-class vs GET-class) plus egress per MB read out. All time is
// charged to the Service's own remote timeline, never to the caller's
// rank clocks, so swapping a bundle onto objstore changes no simulated
// application metric — tiering costs host/remote time only.
//
// The Backend type in this package adapts the service to the
// random-access store.Backend/store.Object contract with write-back
// staging: dirty objects live in a local buffer and flush on Sync as
// a single conditional PUT or a multipart upload.
package objstore

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"sdm/internal/sim"
	"sdm/internal/store"
)

// ErrPrecondition reports a conditional Put/Complete whose generation
// check failed: the object was created or replaced since the caller
// last looked. Non-transient — retrying the same condition cannot
// succeed.
var ErrPrecondition = fmt.Errorf("objstore: precondition failed")

// Generation conditions for Put, Complete, and Copy.
const (
	// AnyGeneration writes unconditionally.
	AnyGeneration int64 = -1
	// MustNotExist succeeds only if the key has no object yet.
	MustNotExist int64 = 0
)

// CostModel prices the simulated remote. Time costs accrue on the
// service's remote timeline; money costs accrue in microcents
// (1 cent = 1e6 µ¢), mirroring public-cloud object pricing: a
// per-request charge split into a PUT class (mutations and lists) and
// a cheaper GET class, plus egress per MB leaving the store. Zero
// values take DefaultCost's fields.
type CostModel struct {
	// FirstByteLatency is paid once per request before any bytes move.
	FirstByteLatency sim.Duration
	// ReadBandwidth / WriteBandwidth in bytes per simulated second.
	ReadBandwidth  float64
	WriteBandwidth float64
	// PutCharge is the µ¢ charge for PUT-class requests (Put, Copy,
	// List, multipart begin/part/complete); GetCharge for GET-class
	// (Get, Head). Deletes and aborts are free, as on S3.
	PutCharge int64
	GetCharge int64
	// EgressPerMB is the µ¢ charge per decimal MB of response payload.
	EgressPerMB int64
}

// DefaultCost approximates a same-region S3 standard tier: 30ms first
// byte, 100/60 MB/s read/write streams, $5.00 and $0.40 per million
// PUT-class and GET-class requests, $0.09/GB egress.
var DefaultCost = CostModel{
	FirstByteLatency: 30 * 1e6, // 30ms in ns
	ReadBandwidth:    100e6,
	WriteBandwidth:   60e6,
	PutCharge:        500,
	GetCharge:        40,
	EgressPerMB:      9000,
}

func (c *CostModel) fill() {
	if c.FirstByteLatency <= 0 {
		c.FirstByteLatency = DefaultCost.FirstByteLatency
	}
	if c.ReadBandwidth <= 0 {
		c.ReadBandwidth = DefaultCost.ReadBandwidth
	}
	if c.WriteBandwidth <= 0 {
		c.WriteBandwidth = DefaultCost.WriteBandwidth
	}
	if c.PutCharge <= 0 {
		c.PutCharge = DefaultCost.PutCharge
	}
	if c.GetCharge <= 0 {
		c.GetCharge = DefaultCost.GetCharge
	}
	if c.EgressPerMB <= 0 {
		c.EgressPerMB = DefaultCost.EgressPerMB
	}
}

// Stats snapshots the service's request ledger.
type Stats struct {
	Requests int64 // every request, including crashed/failed ones
	Puts     int64 // single-shot PUTs
	Gets     int64
	Heads    int64
	Lists    int64
	Deletes  int64
	Copies   int64

	Parts               int64 // UploadPart requests accepted
	PartRetries         int64 // re-uploads of an already-present part (reply-lost retries)
	MultipartBegun      int64
	MultipartCompleted  int64
	MultipartAborted    int64
	ConditionFailures   int64
	TransientInjected   int64 // faults injected by SetFaults
	BytesIn             int64 // payload bytes received (PUT bodies, parts)
	BytesOut            int64 // payload bytes sent (GET responses)
	RemoteTime          sim.Duration
	CostMicrocents      int64
	AbandonedUploadsNow int64 // in-flight multipart sessions at snapshot time
}

type blob struct {
	data []byte
	gen  int64
}

type upload struct {
	key   string
	parts map[int][]byte
}

// Service is one simulated remote endpoint: a flat keyspace of
// immutable blobs plus in-flight multipart upload sessions, a remote
// virtual clock that accumulates request time, and optional fault /
// crash injection for tests. All methods are safe for concurrent use.
type Service struct {
	mu      sync.Mutex
	cost    CostModel
	blobs   map[string]*blob
	uploads map[string]*upload
	nextGen int64
	nextUp  int64
	stats   Stats

	// fault injection: each request fails with probability faultP
	// (seeded, deterministic). UploadPart failures may fire after the
	// part landed — a lost reply — which is what makes idempotent part
	// retry observable (the retried part arrives for a number already
	// present and counts as a PartRetry).
	faultRng  *rand.Rand
	faultP    float64
	faultSkip int64

	// crash injection: when armed, request number crashCountdown from
	// now (1-based) and every request after it fail with ErrCrashed
	// before executing, until Revive.
	crashArmed     bool
	crashCountdown int64
}

// NewService returns an unregistered service with the given pricing;
// zero-valued cost fields take DefaultCost.
func NewService(cost CostModel) *Service {
	cost.fill()
	return &Service{
		cost:    cost,
		blobs:   make(map[string]*blob),
		uploads: make(map[string]*upload),
	}
}

var (
	registryMu sync.Mutex
	registry   = make(map[string]*Service)
)

// Dial resolves an endpoint like "sim://archive" to its process-global
// Service, creating it with DefaultCost on first use. Bundles saved to
// an "obj" backend reconnect to the same simulated remote across
// Backend instances — and across simulated process crashes — through
// this registry.
func Dial(endpoint string) *Service {
	registryMu.Lock()
	defer registryMu.Unlock()
	if s, ok := registry[endpoint]; ok {
		return s
	}
	s := NewService(CostModel{})
	registry[endpoint] = s
	return s
}

// Drop removes an endpoint from the registry so tests can rebuild a
// remote from scratch under a reused name.
func Drop(endpoint string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	delete(registry, endpoint)
}

// Stats snapshots the request ledger.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.AbandonedUploadsNow = int64(len(s.uploads))
	return st
}

// SetFaults arms seeded transient-failure injection: each request
// fails with store.ErrUnavailable with probability p. For UploadPart
// a coin decides whether the failure strikes before or after the part
// lands (a lost reply), so retried parts genuinely re-upload.
func (s *Service) SetFaults(p float64, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faultP = p
	if p > 0 {
		s.faultRng = rand.New(rand.NewSource(seed))
	} else {
		s.faultRng = nil
	}
}

// SkipFaults exempts the next n requests from SetFaults injection —
// tests use it to let a multipart session open before the part
// uploads start failing.
func (s *Service) SkipFaults(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faultSkip = n
}

// CrashAfter arms a crash: counting from the next request, request
// number n and everything after it fail with store.ErrCrashed without
// executing, until Revive. Crash-matrix tests sweep n across a save's
// request trace to kill it at every part/complete boundary.
func (s *Service) CrashAfter(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashArmed = true
	s.crashCountdown = n
}

// Revive clears an armed crash; blobs and upload sessions persist,
// modelling a remote that outlives its clients.
func (s *Service) Revive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashArmed = false
	s.crashCountdown = 0
}

// begin accounts one request and applies crash/fault injection.
// Returns (replyLost, err): on replyLost the caller should execute the
// mutation and then return store.ErrUnavailable, modelling a lost
// response. Callers hold s.mu.
func (s *Service) begin(replyLossOK bool) (bool, error) {
	s.stats.Requests++
	if s.crashArmed {
		s.crashCountdown--
		if s.crashCountdown <= 0 {
			return false, fmt.Errorf("objstore: remote request failed: %w", store.ErrCrashed)
		}
	}
	if s.faultSkip > 0 {
		s.faultSkip--
		return false, nil
	}
	if s.faultRng != nil && s.faultRng.Float64() < s.faultP {
		s.stats.TransientInjected++
		if replyLossOK && s.faultRng.Intn(2) == 0 {
			return true, nil
		}
		return false, fmt.Errorf("objstore: remote request failed: %w", store.ErrUnavailable)
	}
	return false, nil
}

// charge prices a completed request: first-byte latency plus transfer
// time, request charge, and egress. Callers hold s.mu.
func (s *Service) charge(putClass bool, bytesIn, bytesOut int64) {
	d := sim.TransferCost(bytesIn, s.cost.FirstByteLatency, s.cost.WriteBandwidth)
	if bytesOut > 0 {
		d = sim.TransferCost(bytesOut, s.cost.FirstByteLatency, s.cost.ReadBandwidth)
	}
	s.stats.RemoteTime += d
	if putClass {
		s.stats.CostMicrocents += s.cost.PutCharge
	} else {
		s.stats.CostMicrocents += s.cost.GetCharge
	}
	s.stats.CostMicrocents += bytesOut * s.cost.EgressPerMB / 1e6
	s.stats.BytesIn += bytesIn
	s.stats.BytesOut += bytesOut
}

// Put stores data under key if the generation condition holds
// (AnyGeneration, MustNotExist, or a specific generation) and returns
// the new generation.
func (s *Service) Put(key string, data []byte, ifGen int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.begin(false); err != nil {
		return 0, err
	}
	s.stats.Puts++
	s.charge(true, int64(len(data)), 0)
	if err := s.checkCond(key, ifGen); err != nil {
		return 0, err
	}
	return s.commit(key, append([]byte(nil), data...)), nil
}

// checkCond validates a generation condition. Callers hold s.mu.
func (s *Service) checkCond(key string, ifGen int64) error {
	if ifGen == AnyGeneration {
		return nil
	}
	cur := int64(0)
	if b, ok := s.blobs[key]; ok {
		cur = b.gen
	}
	if cur != ifGen {
		s.stats.ConditionFailures++
		return fmt.Errorf("objstore: %q at generation %d, want %d: %w", key, cur, ifGen, ErrPrecondition)
	}
	return nil
}

// commit installs data under key at a fresh generation. Callers hold s.mu.
func (s *Service) commit(key string, data []byte) int64 {
	s.nextGen++
	s.blobs[key] = &blob{data: data, gen: s.nextGen}
	return s.nextGen
}

// Get reads len(p) bytes at off into p with store.Object ReadAt
// semantics: short reads at end of object return io.EOF.
func (s *Service) Get(key string, off int64, p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.begin(false); err != nil {
		return 0, err
	}
	s.stats.Gets++
	b, ok := s.blobs[key]
	if !ok {
		s.charge(false, 0, 0)
		return 0, fmt.Errorf("objstore: get %q: %w", key, store.ErrNotExist)
	}
	n := 0
	if off < int64(len(b.data)) {
		n = copy(p, b.data[off:])
	}
	s.charge(false, 0, int64(n))
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Head reports a key's size and generation.
func (s *Service) Head(key string) (size, gen int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.begin(false); err != nil {
		return 0, 0, err
	}
	s.stats.Heads++
	s.charge(false, 0, 0)
	b, ok := s.blobs[key]
	if !ok {
		return 0, 0, fmt.Errorf("objstore: head %q: %w", key, store.ErrNotExist)
	}
	return int64(len(b.data)), b.gen, nil
}

// Delete removes a key; missing keys return store.ErrNotExist.
// Deletes are free of request charge (as on S3) but still pay latency.
func (s *Service) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.begin(false); err != nil {
		return err
	}
	s.stats.Deletes++
	s.stats.RemoteTime += s.cost.FirstByteLatency
	if _, ok := s.blobs[key]; !ok {
		return fmt.Errorf("objstore: delete %q: %w", key, store.ErrNotExist)
	}
	delete(s.blobs, key)
	return nil
}

// Copy duplicates src to dst server-side (no egress) at a fresh
// generation. The store.Backend Rename maps to Copy+Delete since
// object stores have no rename primitive.
func (s *Service) Copy(src, dst string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.begin(false); err != nil {
		return 0, err
	}
	s.stats.Copies++
	b, ok := s.blobs[src]
	if !ok {
		s.charge(true, 0, 0)
		return 0, fmt.Errorf("objstore: copy %q: %w", src, store.ErrNotExist)
	}
	// Server-side copy pays internal transfer at read bandwidth but no
	// egress charge.
	s.stats.RemoteTime += sim.TransferCost(int64(len(b.data)), s.cost.FirstByteLatency, s.cost.ReadBandwidth)
	s.stats.CostMicrocents += s.cost.PutCharge
	return s.commit(dst, append([]byte(nil), b.data...)), nil
}

// List returns up to max keys with the given prefix, strictly after
// startAfter in lexical order, and whether more remain. max <= 0 takes
// a default page of 1000.
func (s *Service) List(prefix, startAfter string, max int) (keys []string, more bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.begin(false); err != nil {
		return nil, false, err
	}
	s.stats.Lists++
	s.charge(true, 0, 0)
	if max <= 0 {
		max = 1000
	}
	all := make([]string, 0, len(s.blobs))
	for k := range s.blobs {
		if strings.HasPrefix(k, prefix) && k > startAfter {
			all = append(all, k)
		}
	}
	sort.Strings(all)
	if len(all) > max {
		return all[:max], true, nil
	}
	return all, false, nil
}

// BeginUpload opens a multipart upload session for key and returns its
// id. The object is invisible until Complete.
func (s *Service) BeginUpload(key string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.begin(false); err != nil {
		return "", err
	}
	s.stats.MultipartBegun++
	s.charge(true, 0, 0)
	s.nextUp++
	id := fmt.Sprintf("up-%d", s.nextUp)
	s.uploads[id] = &upload{key: key, parts: make(map[int][]byte)}
	return id, nil
}

// UploadPart stages part num (1-based) of an open upload. Re-uploading
// a part number is idempotent — the new bytes replace the old and the
// retry is counted — which is what makes blind part retry after a lost
// reply safe.
func (s *Service) UploadPart(id string, num int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	replyLost, err := s.begin(true)
	if err != nil {
		return err
	}
	up, ok := s.uploads[id]
	if !ok {
		s.charge(true, 0, 0)
		return fmt.Errorf("objstore: upload %q: %w", id, store.ErrNotExist)
	}
	if num < 1 {
		return fmt.Errorf("objstore: part numbers are 1-based, got %d", num)
	}
	if _, dup := up.parts[num]; dup {
		s.stats.PartRetries++
	}
	up.parts[num] = append([]byte(nil), data...)
	s.stats.Parts++
	s.charge(true, int64(len(data)), 0)
	if replyLost {
		return fmt.Errorf("objstore: reply lost for part %d of %q: %w", num, id, store.ErrUnavailable)
	}
	return nil
}

// CompleteUpload seals an upload: parts 1..N must be contiguous, the
// generation condition must hold, and the concatenation becomes the
// object at a fresh generation. The session is consumed.
func (s *Service) CompleteUpload(id string, ifGen int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.begin(false); err != nil {
		return 0, err
	}
	s.stats.MultipartCompleted++
	s.charge(true, 0, 0)
	up, ok := s.uploads[id]
	if !ok {
		return 0, fmt.Errorf("objstore: upload %q: %w", id, store.ErrNotExist)
	}
	nums := make([]int, 0, len(up.parts))
	for n := range up.parts {
		nums = append(nums, n)
	}
	sort.Ints(nums)
	var data []byte
	for i, n := range nums {
		if n != i+1 {
			return 0, fmt.Errorf("objstore: upload %q missing part %d", id, i+1)
		}
		data = append(data, up.parts[n]...)
	}
	if err := s.checkCond(up.key, ifGen); err != nil {
		return 0, err
	}
	delete(s.uploads, id)
	return s.commit(up.key, data), nil
}

// AbortUpload discards an upload session. Aborting an unknown id is
// not an error — an abort retried after a lost reply must succeed —
// and aborts are free of request charge.
func (s *Service) AbortUpload(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.begin(false); err != nil {
		return err
	}
	s.stats.RemoteTime += s.cost.FirstByteLatency
	if _, ok := s.uploads[id]; ok {
		s.stats.MultipartAborted++
		delete(s.uploads, id)
	}
	return nil
}

// AbandonedUploads lists in-flight upload session ids with their
// target keys — sessions left behind by crashed clients. Bundle
// recovery and fsck --repair sweep them via AbortAllUploads.
func (s *Service) AbandonedUploads() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.uploads))
	for id, up := range s.uploads {
		out[id] = up.key
	}
	return out
}

// AbortAllUploads discards every in-flight upload session (a lifecycle
// sweep, free of charge and crash/fault injection since it models a
// store-side policy, not a client request) and reports how many were
// dropped.
func (s *Service) AbortAllUploads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.uploads)
	s.stats.MultipartAborted += int64(n)
	s.uploads = make(map[string]*upload)
	return n
}
