package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"sdm/internal/store"
)

func testBackend(svc *Service, partSize int64) *Backend {
	return New(svc, Options{PartSize: partSize})
}

func TestServiceConditionalPut(t *testing.T) {
	s := NewService(CostModel{})
	gen, err := s.Put("k", []byte("v1"), MustNotExist)
	if err != nil || gen == 0 {
		t.Fatalf("initial put: gen=%d err=%v", gen, err)
	}
	if _, err := s.Put("k", []byte("v2"), MustNotExist); !errors.Is(err, ErrPrecondition) {
		t.Fatalf("must-not-exist over existing key: %v", err)
	}
	if _, err := s.Put("k", []byte("v2"), gen+7); !errors.Is(err, ErrPrecondition) {
		t.Fatalf("stale generation: %v", err)
	}
	gen2, err := s.Put("k", []byte("v2"), gen)
	if err != nil || gen2 <= gen {
		t.Fatalf("matched generation: gen=%d err=%v", gen2, err)
	}
	if _, err := s.Put("k", []byte("v3"), AnyGeneration); err != nil {
		t.Fatalf("unconditional: %v", err)
	}
	if st := s.Stats(); st.ConditionFailures != 2 {
		t.Fatalf("ConditionFailures = %d, want 2", st.ConditionFailures)
	}
}

func TestServiceRangedGet(t *testing.T) {
	s := NewService(CostModel{})
	if _, err := s.Put("k", []byte("hello world"), AnyGeneration); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 5)
	if n, err := s.Get("k", 6, p); err != nil || string(p[:n]) != "world" {
		t.Fatalf("ranged get: %q err=%v", p[:n], err)
	}
	if n, err := s.Get("k", 9, p); err != io.EOF || string(p[:n]) != "ld" {
		t.Fatalf("short read: %q err=%v", p[:n], err)
	}
	if n, err := s.Get("k", 100, p); err != io.EOF || n != 0 {
		t.Fatalf("past-end read: n=%d err=%v", n, err)
	}
	if _, err := s.Get("missing", 0, p); !errors.Is(err, store.ErrNotExist) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestServiceListPagination(t *testing.T) {
	s := NewService(CostModel{})
	for _, k := range []string{"a/1", "a/2", "a/3", "b/1", "b/2"} {
		if _, err := s.Put(k, []byte(k), AnyGeneration); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	after := ""
	pages := 0
	for {
		keys, more, err := s.List("a/", after, 2)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		got = append(got, keys...)
		if !more {
			break
		}
		after = keys[len(keys)-1]
	}
	if strings.Join(got, ",") != "a/1,a/2,a/3" || pages != 2 {
		t.Fatalf("paged prefix list = %v in %d pages", got, pages)
	}
}

func TestServiceMultipart(t *testing.T) {
	s := NewService(CostModel{})
	id, err := s.BeginUpload("k")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UploadPart(id, 2, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := s.UploadPart(id, 1, []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	// The object is invisible until complete.
	if _, _, err := s.Head("k"); !errors.Is(err, store.ErrNotExist) {
		t.Fatalf("visible before complete: %v", err)
	}
	if _, err := s.CompleteUpload(id, MustNotExist); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 11)
	if n, err := s.Get("k", 0, p); err != nil || string(p[:n]) != "hello world" {
		t.Fatalf("assembled object: %q err=%v", p[:n], err)
	}
	// Session consumed: a second complete fails, abort is a no-op.
	if _, err := s.CompleteUpload(id, AnyGeneration); !errors.Is(err, store.ErrNotExist) {
		t.Fatalf("double complete: %v", err)
	}
	if err := s.AbortUpload(id); err != nil {
		t.Fatalf("abort after complete must be idempotent: %v", err)
	}
}

func TestServiceMultipartMissingPart(t *testing.T) {
	s := NewService(CostModel{})
	id, _ := s.BeginUpload("k")
	if err := s.UploadPart(id, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.UploadPart(id, 3, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompleteUpload(id, AnyGeneration); err == nil || !strings.Contains(err.Error(), "missing part 2") {
		t.Fatalf("gap detection: %v", err)
	}
}

func TestServicePartRetryIdempotent(t *testing.T) {
	s := NewService(CostModel{})
	id, _ := s.BeginUpload("k")
	if err := s.UploadPart(id, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.UploadPart(id, 1, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompleteUpload(id, AnyGeneration); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 5)
	if n, err := s.Get("k", 0, p); err != nil || string(p[:n]) != "again" {
		t.Fatalf("re-upload must replace: %q err=%v", p[:n], err)
	}
	if st := s.Stats(); st.PartRetries != 1 {
		t.Fatalf("PartRetries = %d, want 1", st.PartRetries)
	}
}

func TestServiceCrashAndRevive(t *testing.T) {
	s := NewService(CostModel{})
	if _, err := s.Put("k", []byte("v"), AnyGeneration); err != nil {
		t.Fatal(err)
	}
	s.CrashAfter(2)
	if _, _, err := s.Head("k"); err != nil {
		t.Fatalf("request before crash point: %v", err)
	}
	if _, _, err := s.Head("k"); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("crash point: %v", err)
	}
	if _, err := s.Put("k", []byte("x"), AnyGeneration); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("stays down: %v", err)
	}
	s.Revive()
	p := make([]byte, 1)
	if _, err := s.Get("k", 0, p); err != nil || p[0] != 'v' {
		t.Fatalf("blobs survive the crash: %q err=%v", p, err)
	}
}

func TestServiceCostAccounting(t *testing.T) {
	s := NewService(CostModel{})
	if _, err := s.Put("k", make([]byte, 1_000_000), AnyGeneration); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BytesIn != 1_000_000 || st.CostMicrocents != DefaultCost.PutCharge {
		t.Fatalf("after put: in=%d cost=%d", st.BytesIn, st.CostMicrocents)
	}
	// 30ms first byte + 1MB over 60MB/s ≈ 16.67ms.
	if st.RemoteTime < 40*time.Millisecond || st.RemoteTime > 50*time.Millisecond {
		t.Fatalf("put remote time = %v", st.RemoteTime)
	}
	p := make([]byte, 1_000_000)
	if _, err := s.Get("k", 0, p); err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	wantCost := DefaultCost.PutCharge + DefaultCost.GetCharge + DefaultCost.EgressPerMB
	if st2.BytesOut != 1_000_000 || st2.CostMicrocents != wantCost {
		t.Fatalf("after get: out=%d cost=%d want %d", st2.BytesOut, st2.CostMicrocents, wantCost)
	}
	// Identical request sequences accrue identical remote time.
	s2 := NewService(CostModel{})
	s2.Put("k", make([]byte, 1_000_000), AnyGeneration)
	s2.Get("k", 0, p)
	if got := s2.Stats().RemoteTime; got != st2.RemoteTime {
		t.Fatalf("remote time not deterministic: %v vs %v", got, st2.RemoteTime)
	}
}

func TestDialRegistry(t *testing.T) {
	defer Drop("sim://dial-test")
	a := Dial("sim://dial-test")
	if _, err := a.Put("k", []byte("v"), AnyGeneration); err != nil {
		t.Fatal(err)
	}
	b := Dial("sim://dial-test")
	if a != b {
		t.Fatal("Dial must return the same service per endpoint")
	}
	Drop("sim://dial-test")
	if c := Dial("sim://dial-test"); c == a {
		t.Fatal("Drop must forget the endpoint")
	}
}

func TestBackendWriteBackStaging(t *testing.T) {
	s := NewService(CostModel{})
	b := testBackend(s, 1<<20)
	o, err := b.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	// Nothing remote until Sync.
	if st := s.Stats(); st.Puts != 0 || st.BytesIn != 0 {
		t.Fatalf("dirty writes must stay local: %+v", st)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Puts != 1 || st.BytesIn != 5 {
		t.Fatalf("flush: %+v", st)
	}
	// Clean reads go remote as ranged GETs.
	p := make([]byte, 3)
	if _, err := o.ReadAt(p, 2); err != nil || string(p) != "llo" {
		t.Fatalf("ranged read: %q err=%v", p, err)
	}
	if st := s.Stats(); st.Gets != 1 || st.BytesOut != 3 {
		t.Fatalf("clean read must be remote: %+v", st)
	}
	// A write on a clean object fetches then stages; Sync re-flushes.
	if _, err := o.WriteAt([]byte("HE"), 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if _, err := o.ReadAt(got, 0); err != nil || string(got) != "HEllo" {
		t.Fatalf("after fetch-modify-flush: %q err=%v", got, err)
	}
}

// TestBackendWriteInPiecesAllocatesLinearly: an object written front to
// back in small pieces, as a staged input file or a streamed bundle
// copy writes it, grows its staging buffer geometrically, so the bytes
// allocated stay within a small multiple of the object, and a gap left
// by a later write past the end still reads as zeros.
func TestBackendWriteInPiecesAllocatesLinearly(t *testing.T) {
	const size, piece = 16 << 20, 64 << 10
	b := testBackend(NewService(CostModel{}), 1<<20)
	o, err := b.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{1}, piece)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := int64(0); off < size; off += piece {
		if _, err := o.WriteAt(p, off); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8*size {
		t.Fatalf("writing %d B in %d B pieces allocated %d B, want at most %d", size, piece, got, 8*size)
	}
	if _, err := o.WriteAt([]byte{2}, size+piece); err != nil {
		t.Fatal(err)
	}
	gap := make([]byte, piece+1)
	if _, err := o.ReadAt(gap, size); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gap[:piece], make([]byte, piece)) || gap[piece] != 2 {
		t.Fatal("the gap before a write past the end does not read as zeros")
	}
}

func TestBackendMultipartFlush(t *testing.T) {
	s := NewService(CostModel{})
	b := testBackend(s, 10)
	o, _ := b.Create("big")
	data := bytes.Repeat([]byte("0123456789"), 5) // 50 bytes → 5 parts
	if _, err := o.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Parts != 5 || st.MultipartBegun != 1 || st.MultipartCompleted != 1 || st.Puts != 0 {
		t.Fatalf("multipart flush: %+v", st)
	}
	got := make([]byte, len(data))
	if _, err := o.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: err=%v", err)
	}
}

func TestBackendFlushRetriesParts(t *testing.T) {
	s := NewService(CostModel{})
	b := testBackend(s, 16)
	o, _ := b.Create("big")
	if _, err := o.WriteAt(bytes.Repeat([]byte("x"), 200), 0); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(0.3, 42)
	if err := b.Sync(); err != nil {
		t.Fatalf("retry must mask 30%% faults: %v", err)
	}
	s.SetFaults(0, 0)
	st := s.Stats()
	if st.TransientInjected == 0 {
		t.Fatal("fault injection never fired; test is vacuous")
	}
	got := make([]byte, 200)
	if _, err := o.ReadAt(got, 0); err != nil || !bytes.Equal(got, bytes.Repeat([]byte("x"), 200)) {
		t.Fatalf("content after faulty flush: err=%v", err)
	}
	if len(s.AbandonedUploads()) != 0 {
		t.Fatalf("no sessions may leak: %v", s.AbandonedUploads())
	}
}

// TestBackendAbortSurfacesUnderlyingError: when a multipart upload
// fails and the abort gives up too, the error still unwraps to the real
// underlying cause (ErrUnavailable), an *ExhaustedError naming the part
// upload can be extracted, and the abort failure is reported alongside.
func TestBackendAbortSurfacesUnderlyingError(t *testing.T) {
	s := NewService(CostModel{})
	b := testBackend(s, 8)
	o, _ := b.Create("big")
	if _, err := o.WriteAt(bytes.Repeat([]byte("y"), 100), 0); err != nil {
		t.Fatal(err)
	}
	s.SetFaults(1.0, 7) // every request fails: parts exhaust, abort exhausts
	s.SkipFaults(1)     // ...but let BeginUpload open the session
	err := b.Sync()
	s.SetFaults(0, 0)
	if err == nil {
		t.Fatal("flush must fail under 100% faults")
	}
	if !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("error must unwrap to the transient cause, got: %v", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("error must carry *ExhaustedError, got: %v", err)
	}
	if ex.Op != store.OpWrite || ex.Err == nil {
		t.Fatalf("exhausted detail: op=%v err=%v", ex.Op, ex.Err)
	}
	if !strings.Contains(err.Error(), "abort") {
		t.Fatalf("abort failure must be reported alongside: %v", err)
	}
}

// TestRetryExhaustion: a request the remote fails every time is issued
// exactly Attempts times, then gives up as an *ExhaustedError.
func TestRetryExhaustion(t *testing.T) {
	s := NewService(CostModel{})
	b := testBackend(s, 1<<20)
	s.SetFaults(1, 2)
	_, err := b.Stat("a")
	if got := s.Stats().Requests; got != Attempts {
		t.Fatalf("%d requests, want %d", got, Attempts)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Op != store.OpStat || !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("stat = %v, want an exhausted stat unwrapping to ErrUnavailable", err)
	}
	if !strings.Contains(err.Error(), "retry exhausted") {
		t.Fatalf("error does not say it gave up: %v", err)
	}
}

// TestRetrySurfacesLastError: an exhausted request keeps the last
// attempt's error itself, so errors.Is still reaches the transient cause.
func TestRetrySurfacesLastError(t *testing.T) {
	calls := 0
	var last error
	err := retry(store.OpWrite, func() error {
		calls++
		last = fmt.Errorf("part %d refused: %w", calls, store.ErrUnavailable)
		return last
	})
	if calls != Attempts {
		t.Fatalf("calls = %d, want %d", calls, Attempts)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want *ExhaustedError, got %T: %v", err, err)
	}
	if ex.Op != store.OpWrite || ex.Err != last {
		t.Fatalf("exhausted detail: op=%v err=%v, want the last error %v", ex.Op, ex.Err, last)
	}
	if !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("must unwrap to the underlying cause: %v", err)
	}
}

// TestRetryRecovers: a request that fails transiently and then succeeds
// returns nil, after exactly the attempts it took.
func TestRetryRecovers(t *testing.T) {
	calls := 0
	err := retry(store.OpRead, func() error {
		calls++
		if calls < 3 {
			return store.ErrUnavailable
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}

// TestRetryFailsFastOnNonTransient: a missing object and a crashed
// remote answer after one request, unwrapped — only transient failures
// are retried.
func TestRetryFailsFastOnNonTransient(t *testing.T) {
	s := NewService(CostModel{})
	b := testBackend(s, 1<<20)
	check := func(want error) {
		t.Helper()
		before := s.Stats().Requests
		_, err := b.Stat("a")
		var ex *ExhaustedError
		if !errors.Is(err, want) || errors.As(err, &ex) {
			t.Fatalf("stat = %v, want %v and no exhaustion", err, want)
		}
		if got := s.Stats().Requests - before; got != 1 {
			t.Fatalf("%v took %d requests, want 1", want, got)
		}
	}
	check(store.ErrNotExist)
	s.CrashAfter(1)
	check(store.ErrCrashed)
	s.Revive()
}

func TestBackendRename(t *testing.T) {
	s := NewService(CostModel{})
	b := testBackend(s, 1<<20)

	// Remote rename = copy + delete.
	o, _ := b.Create("a")
	o.WriteAt([]byte("aa"), 0)
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Stat("a"); !errors.Is(err, store.ErrNotExist) {
		t.Fatalf("source must be gone: %v", err)
	}
	if n, err := b.Stat("b"); err != nil || n != 2 {
		t.Fatalf("dest: n=%d err=%v", n, err)
	}
	if st := s.Stats(); st.Copies != 1 {
		t.Fatalf("remote rename must use server-side copy: %+v", st)
	}

	// Staged-only rename onto an existing remote key: no remote
	// traffic beyond a HEAD, and the flush replaces the destination.
	o2, _ := b.Create("c")
	o2.WriteAt([]byte("ccc"), 0)
	if err := b.Rename("c", "b"); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 3)
	o3, err := b.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o3.ReadAt(p, 0); err != nil || string(p) != "ccc" {
		t.Fatalf("replaced dest: %q err=%v", p, err)
	}

	if err := b.Rename("nope", "x"); !errors.Is(err, store.ErrNotExist) {
		t.Fatalf("missing source: %v", err)
	}
}

func TestBackendRemoveLocalOnly(t *testing.T) {
	s := NewService(CostModel{})
	b := testBackend(s, 1<<20)
	o, _ := b.Create("tmp")
	o.WriteAt([]byte("x"), 0)
	reqs := s.Stats().Requests
	if err := b.Remove("tmp"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Requests; got != reqs {
		t.Fatalf("staged-only remove made %d remote requests", got-reqs)
	}
	if err := b.Remove("tmp"); !errors.Is(err, store.ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestBackendListUnionsStaged(t *testing.T) {
	s := NewService(CostModel{})
	b := testBackend(s, 1<<20)
	for _, n := range []string{"r1", "r2"} {
		o, _ := b.Create(n)
		o.WriteAt([]byte("x"), 0)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	o, _ := b.Create("staged")
	o.WriteAt([]byte("y"), 0)
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "r1,r2,staged" {
		t.Fatalf("list = %v", names)
	}
}

func TestBackendConditionalOverwriteRace(t *testing.T) {
	s := NewService(CostModel{})
	b1 := testBackend(s, 1<<20)
	b2 := testBackend(s, 1<<20)
	o1, _ := b1.Create("k")
	o1.WriteAt([]byte("one"), 0)
	if err := b1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Both backends stage an update from the same base generation; the
	// second flush must lose its precondition instead of clobbering.
	o1b, _ := b1.Open("k")
	o2, err := b2.Open("k")
	if err != nil {
		t.Fatal(err)
	}
	o1b.WriteAt([]byte("ONE"), 0)
	o2.WriteAt([]byte("TWO"), 0)
	if err := b1.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b2.Sync(); !errors.Is(err, ErrPrecondition) {
		t.Fatalf("stale flush must fail the precondition: %v", err)
	}
	p := make([]byte, 3)
	o3, _ := b1.Open("k")
	if _, err := o3.ReadAt(p, 0); err != nil || string(p) != "ONE" {
		t.Fatalf("winner's bytes: %q err=%v", p, err)
	}
}
