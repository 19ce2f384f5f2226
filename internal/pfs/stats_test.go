package pfs

import (
	"fmt"
	"testing"

	"sdm/internal/mpi"
)

// statsLE reports whether every field of a is <= the matching field of
// b — snapshots taken later must never report fewer events.
func statsLE(a, b Stats) bool {
	return a.Opens <= b.Opens && a.Creates <= b.Creates &&
		a.Closes <= b.Closes && a.Views <= b.Views &&
		a.ReadRequests <= b.ReadRequests && a.WriteReqs <= b.WriteReqs &&
		a.BytesRead <= b.BytesRead && a.BytesWritten <= b.BytesWritten
}

// Stats snapshots taken by one rank while writer ranks take turns doing
// I/O must stay monotonic, sit between the totals of the rounds the
// barriers bracket, and land on the exact totals at the end.
func TestStatsSnapshotUnderConcurrency(t *testing.T) {
	s := NewSystem(freeConfig())
	const (
		writers = 8
		rounds  = 200
		chunk   = 64
	)
	reader := writers // the last rank only takes snapshots

	w := mpi.NewWorld(writers+1, mpi.Config{})
	err := w.Run(func(c *mpi.Comm) {
		check := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		if c.Rank() == reader {
			prev := s.Stats()
			for i := 0; i < rounds; i++ {
				// Barrier i-1 has passed: every writer finished round
				// i-1, none has gone past round i.
				cur := s.Stats()
				if !statsLE(prev, cur) {
					panic(fmt.Sprintf("snapshot went backwards:\nprev %+v\ncur  %+v", prev, cur))
				}
				lo, hi := int64(writers*i), int64(writers*(i+1))
				if cur.WriteReqs < lo || cur.WriteReqs > hi ||
					cur.ReadRequests < lo || cur.ReadRequests > hi {
					panic(fmt.Sprintf("round %d: snapshot %+v outside [%d, %d] requests", i, cur, lo, hi))
				}
				prev = cur
				c.Barrier()
			}
			return
		}
		h, err := s.Open(fmt.Sprintf("f%d", c.Rank()), CreateMode, nil)
		check(err)
		buf := make([]byte, chunk)
		for i := 0; i < rounds; i++ {
			_, err := writeAt(h, buf, int64(i*chunk))
			check(err)
			_, err = readAt(h, buf, int64(i*chunk))
			check(err)
			c.Barrier()
		}
		check(h.Close())
	})
	if err != nil {
		t.Fatal(err)
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
