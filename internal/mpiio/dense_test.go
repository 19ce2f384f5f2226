package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"testing"
	"time"

	"sdm/internal/mpi"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
	"sdm/internal/store"
)

// denseSys is a four-server system whose sieve gap (1000 bytes) is below
// its 4 KiB stripe, so a hole of a stripe is never read through.
func denseSys() *pfs.System {
	return pfs.NewSystem(pfs.Config{
		NumServers:      4,
		StripeSize:      4096,
		ServerBandwidth: 100e6,
		RequestLatency:  10_000,
	})
}

// rangeOps is one contiguous op per [off, off+n) pair of a rank.
func rangeOps(pairs ...int64) []BatchOp {
	var ops []BatchOp
	for i := 0; i < len(pairs); i += 2 {
		ops = append(ops, BatchOp{Disp: pairs[i], Data: make([]byte, pairs[i+1])})
	}
	return ops
}

// TestDenseReadStartsAtAgreement: when the ranks' requests tile the
// agreed extent, every aggregator knows its runs at the agreement, so
// its first phase-2 read starts when the reduction ends — strictly
// inside its phase1:read — with the bytes and requests the domains
// imply. Reads that do not tile the extent fork phase 2 where the
// exchange ends: a hole wider than the sieve gap, ghost requests that
// overlap, and requests whose overlap and hole are equally long, so the
// summed bytes match the extent but the runs do not (there, only the
// aggregator whose domain tiles forks early). Every case reads the
// file's bytes.
func TestDenseReadStartsAtAgreement(t *testing.T) {
	cases := []struct {
		name  string
		ranks int
		size  int64                       // file bytes, pattern-filled
		ops   func(c *mpi.Comm) []BatchOp // rank's requests
		dense bool                        // the agreement's verdict
		early func(agg int) bool          // aggregator forks at the agreement
		// Requests and bytes the read costs the file system, when pinned.
		reqs, bytes int64
	}{
		{
			// Three Level-3 slabs of a round-robin view: 24 KiB over
			// four aggregators of two stripes each; three hold data and
			// each reads its two stripes as one request.
			name: "slabs", ranks: 4, size: 3 * 256 * 4 * 8,
			ops: func(c *mpi.Comm) []BatchOp {
				return slabOps(c, roundRobinView(c, 256), 256, 3, 0)
			},
			dense: true, early: func(int) bool { return true },
			reqs: 3, bytes: 3 * 256 * 4 * 8,
		},
		{
			// One row of four stripes plus the drift, from byte 1000: the
			// extent's first and last pieces lie on one server, and
			// aggregator 0 reads both in one request.
			name: "wrapped", ranks: 8, size: 1000 + 4*4096,
			ops: func(c *mpi.Comm) []BatchOp {
				return rangeOps(1000+int64(c.Rank())*2048, 2048)
			},
			dense: true, early: func(int) bool { return true },
			reqs: 4, bytes: 4 * 4096,
		},
		{
			name: "hole", ranks: 4, size: 4 * 8192,
			ops: func(c *mpi.Comm) []BatchOp {
				return rangeOps(int64(c.Rank())*8192, 2048)
			},
			early: func(int) bool { return false },
		},
		{
			name: "ghost", ranks: 4, size: 4 * 4096,
			ops: func(c *mpi.Comm) []BatchOp {
				return rangeOps(int64(c.Rank())*3000, 4000)
			},
			early: func(int) bool { return false },
		},
		{
			// [0, 2048) and [1024, 3072) overlap by 1 KiB; [3072, 4096)
			// is a 1 KiB hole. Domain 0 does not tile; domain 1 does.
			name: "overlap-and-hole", ranks: 4, size: 2 * 4096,
			ops: func(c *mpi.Comm) []BatchOp {
				return rangeOps([][]int64{{0, 2048}, {1024, 2048}, {4096, 1024}, {5120, 1024}}[c.Rank()]...)
			},
			dense: true, early: func(agg int) bool { return agg == 1 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := denseSys()
			file := make([]byte, tc.size)
			for i := range file {
				file[i] = byte(i*7 + i>>9)
			}
			if err := sys.WriteFile("f", bytes.NewReader(file)); err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTracer()
			sys.SetTracer(tr)
			cfg := mpi.DefaultConfig()
			rounds := sim.Duration(bits.Len(uint(tc.ranks - 1))) // a tree over the ranks
			reduction := rounds * sim.TransferCost(24, cfg.Latency, cfg.Bandwidth)
			var before, after pfs.Stats
			aggs := make([]int, tc.ranks) // aggregator index of each rank
			err := mpi.NewWorld(tc.ranks, cfg).Run(func(c *mpi.Comm) {
				f, err := Open(c, sys, "f", pfs.ReadOnly, Hints{})
				if err != nil {
					panic(err)
				}
				aggs[c.Rank()] = f.aggIndex(c.Rank())
				ops := tc.ops(c)
				c.Barrier()
				if c.Rank() == 0 {
					before = sys.Stats()
				}
				c.Barrier()
				if err := f.ReadAtAllOps(ops); err != nil {
					panic(err)
				}
				c.Barrier()
				if c.Rank() == 0 {
					after = sys.Stats()
				}
				for _, op := range ops {
					segs := f.opSegments(&op)
					var pos int64
					for _, s := range segs {
						if !bytes.Equal(op.Data[pos:pos+s.Len], file[s.Off:s.Off+s.Len]) {
							t.Errorf("rank %d: bytes at %d differ from the file", c.Rank(), s.Off)
						}
						pos += s.Len
					}
				}
				if err := f.Close(); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.reqs > 0 {
				if got := after.ReadRequests - before.ReadRequests; got != tc.reqs {
					t.Errorf("%d read requests, want %d", got, tc.reqs)
				}
				if got := after.BytesRead - before.BytesRead; got != tc.bytes {
					t.Errorf("%d bytes read, want %d", got, tc.bytes)
				}
				if after.WriteReqs != before.WriteReqs || after.Opens != before.Opens {
					t.Errorf("stats moved beyond the reads: %+v -> %+v", before, after)
				}
			}
			for r := range tc.ranks {
				var p1 *obs.Span
				var run *obs.Span
				for _, sp := range tr.Spans() {
					if sp.Pid != obs.PidRank(r) || sp.Cat != "mpiio" {
						continue
					}
					if sp.Name == "phase1:read" && p1 == nil {
						p1 = &sp
					} else if sp.Name == "phase2:read-run" && run == nil {
						run = &sp
					}
				}
				if p1 == nil {
					t.Fatalf("rank %d: no phase1:read span", r)
				}
				if got := spanArg(*p1, "dense"); got != fmt.Sprint(tc.dense) {
					t.Errorf("rank %d: phase1:read dense=%s, want %v", r, got, tc.dense)
				}
				if run == nil {
					continue // an aggregator with nothing in its domain, or no aggregator
				}
				agreed := p1.Start.Add(reduction)
				switch {
				case tc.early(aggs[r]) && (run.Start != agreed || run.Start >= p1.End):
					t.Errorf("rank %d (aggregator %d): phase 2 starts at %v, want the agreement %v inside phase 1 [%v, %v]",
						r, aggs[r], run.Start, agreed, p1.Start, p1.End)
				case !tc.early(aggs[r]) && run.Start != p1.End:
					t.Errorf("rank %d (aggregator %d): phase 2 starts at %v, want the end of the exchange %v",
						r, aggs[r], run.Start, p1.End)
				}
			}
		})
	}
}

// spanArg returns the value of a span's argument key, "" if absent.
func spanArg(sp obs.Span, key string) string {
	for _, kv := range sp.Args {
		if kv.Key == key {
			return kv.Val
		}
	}
	return ""
}

// TestCollectiveErrorReachesEveryRank: when every aggregator's file
// access fails — reads on one file system, writes on another — the
// ranks outside the aggregator set still return, and with an error:
// the failure rides the read's reply and the write's closing barrier.
// A dense read of one-stripe domains on a file system with bandwidth
// replies in rounds; there every rank runs every round (a rank that
// skipped one would leave the others in its exchange) and returns the
// error.
func TestCollectiveErrorReachesEveryRank(t *testing.T) {
	const ranks, elems = 4, 64
	for _, tc := range []struct {
		name   string
		op     store.Op
		cfg    pfs.Config
		net    mpi.Config
		set    int
		elems  int
		rounds int // reply rounds an aggregator traces; 0 for a write
	}{
		{"read", store.OpRead, pfs.Config{NumServers: 4, StripeSize: 4096}, mpi.Config{}, 2, elems, 1},
		{"write", store.OpWrite, pfs.Config{NumServers: 4, StripeSize: 4096}, mpi.Config{}, 2, elems, 0},
		// Four 16 KiB stripes, one per aggregator: B is one page here,
		// so each aggregator's stripe replies in four rounds.
		{"read-in-rounds", store.OpRead, pfs.Config{NumServers: 4, StripeSize: 16384, ServerBandwidth: 35e6, RequestLatency: 800_000},
			mpi.DefaultConfig(), ranks, 2048, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faulty := store.NewFaulty(store.NewMem(), store.FaultConfig{
				Seed: 1, Transient: 1, Ops: map[store.Op]bool{tc.op: true},
			})
			sys := pfs.NewSystemOn(tc.cfg, faulty)
			if tc.op == store.OpRead {
				if err := sys.WriteFile("f", bytes.NewReader(make([]byte, ranks*tc.elems*8))); err != nil {
					t.Fatal(err)
				}
			}
			tr := obs.NewTracer()
			sys.SetTracer(tr)
			errs := make([]error, ranks)
			done := make(chan error, 1)
			go func() {
				done <- mpi.NewWorld(ranks, tc.net).Run(func(c *mpi.Comm) {
					mode := pfs.ReadWrite
					if tc.op == store.OpWrite {
						mode = pfs.CreateMode
					}
					f, err := Open(c, sys, "f", mode, Hints{CBNodes: tc.set})
					if err != nil {
						panic(err)
					}
					f.SetView(0, roundRobinView(c, tc.elems))
					buf := make([]byte, tc.elems*8)
					if tc.op == store.OpRead {
						errs[c.Rank()] = readAll(f, 0, buf)
					} else {
						errs[c.Rank()] = writeAll(f, 0, buf)
					}
					f.Close()
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("a rank is still blocked in the collective")
			}
			for r, err := range errs {
				if !errors.Is(err, store.ErrUnavailable) {
					t.Errorf("rank %d returned %v, want the aggregators' %v", r, err, store.ErrUnavailable)
				}
			}
			rounds := make(map[int]int) // per aggregator rank
			for _, sp := range tr.Spans() {
				if sp.Name == "phase2:reply" {
					rounds[sp.Pid]++
				}
			}
			if tc.rounds > 0 && len(rounds) != tc.set {
				t.Errorf("%d ranks traced reply rounds, want the %d aggregators", len(rounds), tc.set)
			}
			for pid, n := range rounds {
				if n != tc.rounds {
					t.Errorf("rank lane %d ran %d reply rounds, want %d", pid, n, tc.rounds)
				}
			}
		})
	}
}
