package pfs

import (
	"bytes"
	"fmt"
	"testing"

	"sdm/internal/mpi"
)

// TestConcurrentRankGoroutines drives one System from 32 ranks taking
// turns — private files, one shared file, vectored and scalar I/O, plus
// namespace traffic, with a barrier each round so the ranks' calls
// interleave — and requires every readback intact and the exact Stats
// totals.
func TestConcurrentRankGoroutines(t *testing.T) {
	const (
		ranks  = 32
		rounds = 25
	)
	sys := NewSystem(Config{NumServers: 4, StripeSize: 512})
	w := mpi.NewWorld(ranks, mpi.Config{})
	err := w.Run(func(c *mpi.Comm) {
		rank := c.Rank()
		check := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		private := fmt.Sprintf("private-%d", rank)
		ph, err := sys.Open(private, CreateMode, c.Clock())
		check(err)
		sh, err := sys.Open("shared", CreateMode, c.Clock())
		check(err)
		pattern := bytes.Repeat([]byte{byte(rank + 1)}, 256)
		// Three requests: stripes 0, 2 and 8, none continuing the last
		// on its server.
		exts := []Extent{{0, 128}, {1024, 64}, {4096, 64}}
		got := make([]byte, 256)
		for i := 0; i < rounds; i++ {
			// Private file: one-extent and three-extent writes, then verify.
			_, err := writeAt(ph, pattern, int64(i*256))
			check(err)
			_, err = ph.WriteAtVec(pattern, exts)
			check(err)
			_, err = readAt(ph, got, int64(i*256))
			check(err)
			if !bytes.Equal(got, pattern) {
				panic(fmt.Sprintf("rank %d: private readback mismatch", rank))
			}
			// Shared file: disjoint per-rank regions.
			off := int64(rank) * 256
			_, err = writeAt(sh, pattern, off)
			check(err)
			_, err = sh.ReadAtVec(got, []Extent{{off, 256}})
			check(err)
			if !bytes.Equal(got, pattern) {
				panic(fmt.Sprintf("rank %d: shared readback mismatch", rank))
			}
			// Namespace traffic interleaved with data I/O.
			if !sys.Exists("shared") {
				panic(fmt.Sprintf("rank %d: shared vanished", rank))
			}
			_, err = sys.FileSize(private)
			check(err)
			scratch := fmt.Sprintf("scratch-%d-%d", rank, i)
			check(sys.WriteFile(scratch, bytes.NewReader(pattern[:16])))
			check(sys.Remove(scratch))
			c.Barrier()
		}
		check(ph.Close())
		check(sh.Close())
	})
	if err != nil {
		t.Fatal(err)
	}

	want := Stats{
		Opens:        ranks*2 + ranks*rounds, // private, shared, each scratch
		Creates:      ranks + 1 + ranks*rounds,
		Closes:       ranks*2 + ranks*rounds,
		WriteReqs:    ranks * rounds * (1 + 3 + 1),
		BytesWritten: ranks * rounds * 3 * 256,
		ReadRequests: ranks * rounds * 2,
		BytesRead:    ranks * rounds * 2 * 256,
	}
	if st := sys.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}

	// Every rank's region of the shared file must be intact.
	h, err := sys.Open("shared", ReadOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	for r := 0; r < ranks; r++ {
		if _, err := readAt(h, got, int64(r)*256); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(r + 1)}, 256)) {
			t.Fatalf("rank %d region of shared file corrupted", r)
		}
	}
}
