package pfs

import (
	"fmt"
	"sync"
	"testing"
)

// statsLE reports whether every field of a is <= the matching field of
// b — snapshots taken later must never report fewer events.
func statsLE(a, b Stats) bool {
	return a.Opens <= b.Opens && a.Creates <= b.Creates &&
		a.Closes <= b.Closes && a.Views <= b.Views &&
		a.ReadRequests <= b.ReadRequests && a.WriteReqs <= b.WriteReqs &&
		a.BytesRead <= b.BytesRead && a.BytesWritten <= b.BytesWritten
}

// Stats must stay monotonic and land on the exact totals while
// rank goroutines hammer the counters — the race the consistent
// snapshot closed (field-by-field reads could pair a bumped request
// count with a stale byte count, or tear across a concurrent reset).
func TestStatsSnapshotUnderConcurrency(t *testing.T) {
	s := NewSystem(freeConfig())
	const (
		writers = 8
		rounds  = 200
		chunk   = 64
	)

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	var snapErr error
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		prev := s.Stats()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := s.Stats()
			if !statsLE(prev, cur) {
				snapErr = fmt.Errorf("snapshot went backwards:\nprev %+v\ncur  %+v", prev, cur)
				return
			}
			prev = cur
		}
	}()

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			h, err := s.Open(fmt.Sprintf("f%d", w), CreateMode, nil)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, chunk)
			for i := 0; i < rounds; i++ {
				if _, err := writeAt(h, buf, int64(i*chunk)); err != nil {
					t.Error(err)
					return
				}
				if _, err := readAt(h, buf, int64(i*chunk)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := h.Close(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	want := Stats{
		Opens:        writers,
		Creates:      writers,
		Closes:       writers,
		ReadRequests: writers * rounds,
		WriteReqs:    writers * rounds,
		BytesRead:    writers * rounds * chunk,
		BytesWritten: writers * rounds * chunk,
	}
	if st := s.Stats(); st != want {
		t.Fatalf("final stats %+v, want %+v", st, want)
	}
}
