package pfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sdm/internal/sim"
)

// TestConcurrentRankGoroutines hammers one System from many rank
// goroutines — private files, one shared file, vectored and scalar
// I/O, plus namespace traffic — validating that the per-file locking
// and lock-free statistics hold up under the race detector.
func TestConcurrentRankGoroutines(t *testing.T) {
	const (
		ranks  = 32
		rounds = 25
	)
	sys := NewSystem(Config{NumServers: 4, StripeSize: 512})
	var wg sync.WaitGroup
	errs := make(chan error, ranks)
	wg.Add(ranks)
	for r := 0; r < ranks; r++ {
		go func(rank int) {
			defer wg.Done()
			clock := sim.NewClock()
			private := fmt.Sprintf("private-%d", rank)
			ph, err := sys.Open(private, CreateMode, clock)
			if err != nil {
				errs <- err
				return
			}
			sh, err := sys.Open("shared", CreateMode, clock)
			if err != nil {
				errs <- err
				return
			}
			pattern := bytes.Repeat([]byte{byte(rank + 1)}, 256)
			exts := []Extent{{0, 128}, {1024, 64}, {4096, 64}}
			for i := 0; i < rounds; i++ {
				// Private file: one-extent and three-extent writes, then verify.
				if _, err := writeAt(ph, pattern, int64(i*256)); err != nil {
					errs <- err
					return
				}
				if _, err := ph.WriteAtVec(pattern, exts); err != nil {
					errs <- err
					return
				}
				got := make([]byte, 256)
				if _, err := readAt(ph, got, int64(i*256)); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, pattern) {
					errs <- fmt.Errorf("rank %d: private readback mismatch", rank)
					return
				}
				// Shared file: disjoint per-rank regions.
				off := int64(rank) * 256
				if _, err := writeAt(sh, pattern, off); err != nil {
					errs <- err
					return
				}
				if _, err := sh.ReadAtVec(got, []Extent{{off, 256}}); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, pattern) {
					errs <- fmt.Errorf("rank %d: shared readback mismatch", rank)
					return
				}
				// Namespace traffic interleaved with data I/O.
				if !sys.Exists("shared") {
					errs <- fmt.Errorf("rank %d: shared vanished", rank)
					return
				}
				if _, err := sys.FileSize(private); err != nil {
					errs <- err
					return
				}
				scratch := fmt.Sprintf("scratch-%d-%d", rank, i)
				if err := sys.WriteFile(scratch, pattern[:16]); err != nil {
					errs <- err
					return
				}
				if err := sys.Remove(scratch); err != nil {
					errs <- err
					return
				}
			}
			if err := ph.Close(); err != nil {
				errs <- err
				return
			}
			if err := sh.Close(); err != nil {
				errs <- err
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every rank's region of the shared file must be intact.
	for r := 0; r < ranks; r++ {
		h, err := sys.Open("shared", ReadOnly, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 256)
		if _, err := readAt(h, got, int64(r)*256); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(r + 1)}, 256)) {
			t.Fatalf("rank %d region of shared file corrupted", r)
		}
	}
	st := sys.Stats()
	if st.Opens != ranks*2+ranks+ranks*rounds || st.Closes != ranks*2 {
		t.Logf("stats: %+v", st) // counts are informative; exactness depends on helper opens
	}
}
