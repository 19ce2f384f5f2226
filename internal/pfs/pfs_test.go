package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"
	"time"

	"sdm/internal/sim"
)

// freeConfig charges nothing, for correctness-only tests.
func freeConfig() Config {
	return Config{NumServers: 4, StripeSize: 1024}
}

func TestReadAfterWrite(t *testing.T) {
	s := NewSystem(freeConfig())
	clock := sim.NewClock()
	h, err := s.Open("data", CreateMode, clock)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello, parallel world")
	if _, err := writeAt(h, msg, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := readAt(h, got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
	if sz, err := s.FileSize("data"); err != nil || sz != 100+int64(len(msg)) {
		t.Fatalf("size %d (%v)", sz, err)
	}
}

func TestSparseReadReturnsZeros(t *testing.T) {
	s := NewSystem(freeConfig())
	h, _ := s.Open("sparse", CreateMode, nil)
	_, _ = writeAt(h, []byte{0xFF}, 100_000) // leaves a hole before it
	got := make([]byte, 16)
	if _, err := readAt(h, got, 50_000); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatalf("hole contained %x", got)
		}
	}
}

func TestReadPastEOF(t *testing.T) {
	s := NewSystem(freeConfig())
	h, _ := s.Open("f", CreateMode, nil)
	_, _ = writeAt(h, []byte("abcd"), 0)
	got := make([]byte, 10)
	n, err := readAt(h, got, 2)
	if n != 2 || !errors.Is(err, io.EOF) {
		t.Fatalf("n=%d err=%v, want 2, EOF", n, err)
	}
	if string(got[:n]) != "cd" {
		t.Fatalf("got %q", got[:n])
	}
	if _, err := readAt(h, got, 100); !errors.Is(err, io.EOF) {
		t.Fatalf("read far past EOF: %v", err)
	}
}

func TestCrossPageWrite(t *testing.T) {
	s := NewSystem(freeConfig())
	h, _ := s.Open("big", CreateMode, nil)
	data := make([]byte, 3*64*1024+17)
	for i := range data {
		data[i] = byte(i * 31)
	}
	off := int64(64*1024 - 5)
	_, _ = writeAt(h, data, off)
	got := make([]byte, len(data))
	if _, err := readAt(h, got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page data mismatch")
	}
}

func TestOpenMissingFile(t *testing.T) {
	s := NewSystem(freeConfig())
	if _, err := s.Open("nope", ReadOnly, nil); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	s := NewSystem(freeConfig())
	_ = s.WriteFile("f", bytes.NewReader([]byte("x")))
	h, _ := s.Open("f", ReadOnly, nil)
	if _, err := writeAt(h, []byte("y"), 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
}

func TestClosedHandle(t *testing.T) {
	s := NewSystem(freeConfig())
	h, _ := s.Open("f", CreateMode, nil)
	_ = h.Close()
	if _, err := writeAt(h, []byte("x"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("write err = %v", err)
	}
	if _, err := readAt(h, make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read err = %v", err)
	}
	if err := h.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close err = %v", err)
	}
}

func TestRemoveAndList(t *testing.T) {
	s := NewSystem(freeConfig())
	_ = s.WriteFile("b", bytes.NewReader(nil))
	_ = s.WriteFile("a", bytes.NewReader(nil))
	if got := s.List(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("List = %v", got)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("a") || !s.Exists("b") {
		t.Fatal("Remove broke namespace")
	}
	if err := s.Remove("a"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
}

// WriteFile truncates before it writes (the one truncation left in the
// file system): bytes past the new end must be gone even after the file
// regrows over them.
func TestTruncate(t *testing.T) {
	s := NewSystem(freeConfig())
	if err := s.WriteFile("f", bytes.NewReader(bytes.Repeat([]byte{0xEE}, 200_000))); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile("f", bytes.NewReader(make([]byte, 10))); err != nil {
		t.Fatal(err)
	}
	if sz, err := s.FileSize("f"); err != nil || sz != 10 {
		t.Fatalf("size %d (%v)", sz, err)
	}
	h, _ := s.Open("f", CreateMode, nil)
	_, _ = writeAt(h, []byte{1}, 150_000)
	got := make([]byte, 4)
	_, _ = readAt(h, got, 100_000)
	if got[0] != 0 {
		t.Fatal("truncated data resurfaced")
	}
}

func TestStripingMapsToServers(t *testing.T) {
	s := NewSystem(Config{NumServers: 4, StripeSize: 100})
	totals := make([]int64, 4)
	spans := s.spansInto(nil, totals, 50, 400, 100, 0)
	// [50,100)=s0, [100,200)=s1, [200,300)=s2, [300,400)=s3, [400,450)=s0
	want := map[int]int64{0: 100, 1: 100, 2: 100, 3: 100}
	if len(spans) != 4 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, sp := range spans {
		if want[sp.server] != sp.bytes {
			t.Errorf("server %d got %d bytes, want %d", sp.server, sp.bytes, want[sp.server])
		}
	}
	if s.spansInto(nil, totals, 0, 0, 100, 0) != nil {
		t.Error("zero-length span not empty")
	}
	// The same range under a 200-byte unit starting on server 1:
	// [50,200)=s1, [200,400)=s2, [400,450)=s3.
	spans = s.spansInto(spans[:0], totals, 50, 400, 200, 1)
	if fmt.Sprint(spans) != fmt.Sprint([]serverSpan{{1, 150}, {2, 200}, {3, 50}}) {
		t.Fatalf("200-byte unit, shift 1: spans = %+v", spans)
	}
}

func TestOpenCostCharged(t *testing.T) {
	cfg := freeConfig()
	cfg.OpenCost = 2 * time.Millisecond
	cfg.CloseCost = time.Millisecond
	s := NewSystem(cfg)
	clock := sim.NewClock()
	h, _ := s.Open("f", CreateMode, clock)
	if clock.Now() != sim.Time(2*time.Millisecond) {
		t.Fatalf("after open clock=%v", clock.Now())
	}
	_ = h.Close()
	if clock.Now() != sim.Time(3*time.Millisecond) {
		t.Fatalf("after close clock=%v", clock.Now())
	}
}

func TestViewCostCharged(t *testing.T) {
	cfg := freeConfig()
	cfg.ViewCost = 5 * time.Millisecond
	s := NewSystem(cfg)
	clock := sim.NewClock()
	s.ChargeView(clock)
	if clock.Now() != sim.Time(5*time.Millisecond) {
		t.Fatalf("clock=%v", clock.Now())
	}
	if s.Stats().Views != 1 {
		t.Fatal("view not counted")
	}
}

func TestTransferCostParallelServers(t *testing.T) {
	// 4 servers, 1 MB across all of them at 1 MB/s each: parallel
	// completion in ~0.25s rather than 1s.
	cfg := Config{NumServers: 4, StripeSize: 256 * 1024, ServerBandwidth: 1e6}
	s := NewSystem(cfg)
	clock := sim.NewClock()
	h, _ := s.Open("f", CreateMode, clock)
	_, _ = writeAt(h, make([]byte, 1<<20), 0)
	got := clock.Now()
	want := sim.Time(262_144_000) // 256 KiB at 1 MB/s = 0.262144s
	if got != want {
		t.Fatalf("parallel write finished at %v, want %v", got, want)
	}
}

func TestSingleServerContention(t *testing.T) {
	// Two clients hitting the same (single) server serialize.
	cfg := Config{NumServers: 1, StripeSize: 1 << 20, ServerBandwidth: 1e6}
	s := NewSystem(cfg)
	c1, c2 := sim.NewClock(), sim.NewClock()
	h1, _ := s.Open("f", CreateMode, c1)
	h2, _ := s.Open("f", ReadWrite, c2)
	_, _ = writeAt(h1, make([]byte, 1e6), 0)
	_, _ = writeAt(h2, make([]byte, 1e6), 0)
	if c1.Now() != sim.Time(time.Second) {
		t.Fatalf("first writer done at %v", c1.Now())
	}
	if c2.Now() != sim.Time(2*time.Second) {
		t.Fatalf("second writer done at %v, want serialized 2s", c2.Now())
	}
}

func TestRequestLatencyPenalizesSmallIO(t *testing.T) {
	cfg := Config{NumServers: 1, StripeSize: 1 << 20, ServerBandwidth: 100e6, RequestLatency: time.Millisecond}
	s := NewSystem(cfg)

	// One 1 MB request...
	c1 := sim.NewClock()
	h, _ := s.Open("f", CreateMode, c1)
	_, _ = writeAt(h, make([]byte, 1<<20), 0)
	oneBig := c1.Now()

	// ...versus 64 requests of 16 KiB.
	s2 := NewSystem(cfg)
	c2 := sim.NewClock()
	h2, _ := s2.Open("f", CreateMode, c2)
	for i := 0; i < 64; i++ {
		_, _ = writeAt(h2, make([]byte, 16*1024), int64(i*16*1024))
	}
	manySmall := c2.Now()
	if manySmall <= oneBig {
		t.Fatalf("small requests (%v) not slower than one large (%v)", manySmall, oneBig)
	}
	if manySmall-oneBig < sim.Time(60*time.Millisecond) {
		t.Fatalf("latency penalty too small: %v vs %v", manySmall, oneBig)
	}
}

// An asynchronous write is a request issued on a forked sub-timeline:
// the rank rebases to the fork point and goes on, while the server stays
// busy until the completion the request returned.
func TestAsyncWriteDoesNotBlockClock(t *testing.T) {
	cfg := Config{NumServers: 1, StripeSize: 1 << 20, ServerBandwidth: 1e6}
	s := NewSystem(cfg)
	clock := sim.NewClock()
	h, _ := s.Open("hist", CreateMode, clock)
	fork := clock.Now()
	if _, err := writeAt(h, make([]byte, 1e6), 0); err != nil {
		t.Fatal(err)
	}
	done := clock.Now()
	clock.Rebase(fork)
	if clock.Now() != 0 {
		t.Fatalf("async write advanced issuing clock to %v", clock.Now())
	}
	if done != sim.Time(time.Second) {
		t.Fatalf("completion %v, want 1s", done)
	}
	// A later synchronous access to the same server queues behind it.
	_, _ = readAt(h, make([]byte, 1), 0)
	if clock.Now() <= sim.Time(time.Second) {
		t.Fatalf("subsequent read did not queue behind async write: %v", clock.Now())
	}
}

func TestStats(t *testing.T) {
	s := NewSystem(freeConfig())
	h, _ := s.Open("f", CreateMode, nil)
	_, _ = writeAt(h, make([]byte, 100), 0)
	_, _ = readAt(h, make([]byte, 40), 0)
	_ = h.Close()
	st := s.Stats()
	if st.Opens != 1 || st.Creates != 1 || st.Closes != 1 {
		t.Fatalf("open/create/close stats %+v", st)
	}
	if st.BytesWritten != 100 || st.BytesRead != 40 {
		t.Fatalf("byte stats %+v", st)
	}
	if st.WriteReqs != 1 || st.ReadRequests != 1 {
		t.Fatalf("request stats %+v", st)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	s := NewSystem(freeConfig())
	payload := bytes.Repeat([]byte("xyz"), 50_000)
	if err := s.WriteFile("stage", bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("stage")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: %v", err)
	}
	// WriteFile replaces content entirely.
	if err := s.WriteFile("stage", bytes.NewReader([]byte("tiny"))); err != nil {
		t.Fatal(err)
	}
	got, _ = s.ReadFile("stage")
	if string(got) != "tiny" {
		t.Fatalf("replace failed: %d bytes", len(got))
	}
	if sz, _ := s.FileSize("stage"); sz != 4 {
		t.Fatalf("FileSize = %d", sz)
	}
}

// chunkSource writes its bytes in Writes of at most chunk bytes, then
// fails with err if that is set.
type chunkSource struct {
	data  []byte
	chunk int
	err   error
}

func (c chunkSource) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for p := c.data; len(p) > 0; {
		k := min(c.chunk, len(p))
		m, err := w.Write(p[:k])
		n += int64(m)
		if err != nil {
			return n, err
		}
		p = p[k:]
	}
	return n, c.err
}

// TestWriteFileInChunks: a file staged in small Writes is the
// concatenation of them, and a source that fails leaves the old file
// whole (or no file, where there was none): no partial new file, and no
// scratch name in the listing.
func TestWriteFileInChunks(t *testing.T) {
	s := NewSystem(freeConfig())
	payload := bytes.Repeat([]byte("0123456789"), 3_000)
	if err := s.WriteFile("stage", chunkSource{data: payload, chunk: 777}); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadFile("stage"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("chunked staging read back %d bytes (%v), want %d", len(got), err, len(payload))
	}
	boom := errors.New("source failed")
	for _, name := range []string{"stage", "fresh"} {
		if err := s.WriteFile(name, chunkSource{data: payload[:1000], chunk: 100, err: boom}); !errors.Is(err, boom) {
			t.Fatalf("failing source: %v, want %v", err, boom)
		}
	}
	if got, err := s.ReadFile("stage"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("after a failed staging the old file reads %d bytes (%v), want its %d", len(got), err, len(payload))
	}
	if _, err := s.ReadFile("fresh"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("after a failed staging a new name reads %v, want ErrNotExist", err)
	}
	if got := s.List(); len(got) != 1 || got[0] != "stage" {
		t.Fatalf("after failed stagings the system lists %q, want only the old file", got)
	}
}

func TestResetSchedules(t *testing.T) {
	cfg := Config{NumServers: 1, StripeSize: 1024, ServerBandwidth: 1e6}
	s := NewSystem(cfg)
	h, _ := s.Open("f", CreateMode, nil)
	_, _ = writeAt(h, make([]byte, 1e6), 0)
	s.ResetSchedules()
	clock := sim.NewClock()
	h2, _ := s.Open("f", ReadWrite, clock)
	_, _ = readAt(h2, make([]byte, 10), 0)
	if clock.Now() > sim.Time(time.Millisecond) {
		t.Fatalf("schedule not reset, clock %v", clock.Now())
	}
}

// Property: arbitrary write/read offsets round-trip through the page
// store.
func TestWriteReadProperty(t *testing.T) {
	s := NewSystem(freeConfig())
	h, _ := s.Open("prop", CreateMode, nil)
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := int64(off % 10_000_000)
		if _, err := writeAt(h, data, o); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := readAt(h, got, o); err != nil && !errors.Is(err, io.EOF) {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSpansCoverRequestExactly(t *testing.T) {
	f := func(off uint32, n uint16, servers uint8, stripe uint16) bool {
		cfg := Config{
			NumServers: int(servers%7) + 1,
			StripeSize: int64(stripe%4096) + 1,
		}
		s := NewSystem(cfg)
		var total int64
		totals := make([]int64, cfg.NumServers)
		for _, sp := range s.spansInto(nil, totals, int64(off), int64(n), cfg.StripeSize, int(off)%cfg.NumServers) {
			if sp.server < 0 || sp.server >= cfg.NumServers || sp.bytes <= 0 {
				return false
			}
			total += sp.bytes
		}
		return total == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumServers != 10 {
		t.Fatalf("default servers = %d; paper's platform had 10 controllers", cfg.NumServers)
	}
	if cfg.OpenCost <= 0 || cfg.ViewCost <= 0 || cfg.ServerBandwidth <= 0 {
		t.Fatal("default costs must be positive")
	}
}
