package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"sdm/internal/mpi"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// costedSys is a system with real per-request latency, so tests can
// observe that batching collectives reduces both request counts and
// virtual time.
func costedSys() *pfs.System {
	return pfs.NewSystem(pfs.Config{
		NumServers:      4,
		StripeSize:      4096,
		ServerBandwidth: 100e6,
		RequestLatency:  500_000,
	})
}

// slabOps builds nOps slab-tiled operations over one shared round-robin
// view: op k covers slab k of the file, mirroring how a level-3 group
// lays consecutive datasets of one timestep into consecutive slabs.
func slabOps(c *mpi.Comm, view *Datatype, elems, nOps, seed int) []BatchOp {
	ops := make([]BatchOp, nOps)
	for k := range ops {
		data := make([]byte, elems*8)
		for i := range data {
			data[i] = byte((seed + k*131 + c.Rank()*31 + i) % 251)
		}
		ops[k] = BatchOp{Type: view, Off: int64(k * elems * 8), Data: data}
	}
	return ops
}

func roundRobinView(c *mpi.Comm, elems int) *Datatype {
	displs := make([]int, elems)
	for i := range displs {
		displs[i] = i*c.Size() + c.Rank()
	}
	d := IndexedBlock(1, displs, Bytes(8))
	return Resized(d, int64(elems*c.Size()*8))
}

// TestBatchedWriteMatchesSequential proves the tentpole contract: a
// multi-op WriteAtAllOps batch produces a bit-identical file to the
// same ops issued as separate one-op collectives, while issuing
// fewer file-system write requests and finishing in less virtual time.
func TestBatchedWriteMatchesSequential(t *testing.T) {
	const ranks, elems, nOps = 4, 256, 5
	run := func(batched bool) (data []byte, stats pfs.Stats, elapsed sim.Time) {
		sys := costedSys()
		world := fastWorld(ranks)
		err := world.Run(func(c *mpi.Comm) {
			f, err := Open(c, sys, "f", pfs.CreateMode, Hints{})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			view := roundRobinView(c, elems)
			f.SetView(0, view)
			ops := slabOps(c, view, elems, nOps, 7)
			if batched {
				if err := f.WriteAtAllOps(ops); err != nil {
					panic(err)
				}
			} else {
				for _, op := range ops {
					if err := writeAll(f, op.Off, op.Data); err != nil {
						panic(err)
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err = sys.ReadFile("f")
		if err != nil {
			t.Fatal(err)
		}
		return data, sys.Stats(), world.MaxTime()
	}

	batchData, batchStats, batchTime := run(true)
	seqData, seqStats, seqTime := run(false)
	if !bytes.Equal(batchData, seqData) {
		t.Fatal("batched and sequential collective writes produced different bytes")
	}
	if batchStats.WriteReqs >= seqStats.WriteReqs {
		t.Fatalf("batched epoch issued %d write requests, sequential %d; want fewer",
			batchStats.WriteReqs, seqStats.WriteReqs)
	}
	if batchTime >= seqTime {
		t.Fatalf("batched epoch took %v virtual time, sequential %v; want less",
			batchTime, seqTime)
	}
}

// TestBatchedReadRoundTrip writes a batch and reads it back both as one
// ReadAtAllOps batch and per-op, verifying identical recovered bytes —
// including with the op order reversed, which exercises the unsorted
// merge in flattenOps.
func TestBatchedReadRoundTrip(t *testing.T) {
	const ranks, elems, nOps = 4, 128, 4
	sys := costedSys()
	var wrote [ranks][]byte
	err := fastWorld(ranks).Run(func(c *mpi.Comm) {
		f, err := Open(c, sys, "f", pfs.CreateMode, Hints{})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		view := roundRobinView(c, elems)
		f.SetView(0, view)
		ops := slabOps(c, view, elems, nOps, 3)
		var all []byte
		for _, op := range ops {
			all = append(all, op.Data...)
		}
		wrote[c.Rank()] = all
		if err := f.WriteAtAllOps(ops); err != nil {
			panic(err)
		}

		// Read back as one batch, in reverse op order.
		got := make([]BatchOp, nOps)
		for k := range got {
			rk := nOps - 1 - k
			got[k] = BatchOp{Type: view, Off: int64(rk * elems * 8), Data: make([]byte, elems*8)}
		}
		if err := f.ReadAtAllOps(got); err != nil {
			panic(err)
		}
		for k := range got {
			rk := nOps - 1 - k
			want := all[rk*elems*8 : (rk+1)*elems*8]
			if !bytes.Equal(got[k].Data, want) {
				panic(fmt.Sprintf("rank %d op %d: batch read mismatch", c.Rank(), rk))
			}
		}

		// And per-op, for the same answer.
		single := make([]byte, elems*8)
		for k := 0; k < nOps; k++ {
			if err := readAll(f, int64(k*elems*8), single); err != nil {
				panic(err)
			}
			if !bytes.Equal(single, all[k*elems*8:(k+1)*elems*8]) {
				panic(fmt.Sprintf("rank %d op %d: single read mismatch", c.Rank(), k))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchedIndependentFallback checks the DisableCollective ablation
// still works op-per-op for batches.
func TestBatchedIndependentFallback(t *testing.T) {
	const ranks, elems, nOps = 3, 64, 3
	sysA, sysB := freeSys(), freeSys()
	for _, tc := range []struct {
		sys     *pfs.System
		disable bool
	}{{sysA, false}, {sysB, true}} {
		err := fastWorld(ranks).Run(func(c *mpi.Comm) {
			f, err := Open(c, tc.sys, "f", pfs.CreateMode, Hints{DisableCollective: tc.disable})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			view := roundRobinView(c, elems)
			f.SetView(0, view)
			if err := f.WriteAtAllOps(slabOps(c, view, elems, nOps, 11)); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	a, _ := sysA.ReadFile("f")
	b, _ := sysB.ReadFile("f")
	if !bytes.Equal(a, b) {
		t.Fatal("collective and independent batch writes differ")
	}
}

// TestEmptyCollectiveOneReduction: a collective in which no rank has
// anything to move costs exactly the extent agreement, one tree
// reduction: of the 16-byte (lo, hi) pair for a write, of the 24-byte
// (lo, hi, requested bytes) triple for a read.
func TestEmptyCollectiveOneReduction(t *testing.T) {
	const ranks = 8
	cfg := mpi.Config{Latency: 1_000_000, Bandwidth: 1e9}
	reduction := func(bytes int64) sim.Duration {
		return 3 * sim.TransferCost(bytes, cfg.Latency, cfg.Bandwidth) // log2(8) rounds
	}
	err := mpi.NewWorld(ranks, cfg).Run(func(c *mpi.Comm) {
		f, err := Open(c, costedSys(), "empty", pfs.CreateMode, Hints{})
		if err != nil {
			panic(err)
		}
		for _, ops := range [][]BatchOp{nil, {{Off: 64}}} { // no op; a zero-length op
			for _, write := range []bool{true, false} {
				c.Barrier()
				start := c.Now()
				if write {
					err = f.WriteAtAllOps(ops)
				} else {
					err = f.ReadAtAllOps(ops)
				}
				if err != nil {
					panic(err)
				}
				oneReduction := reduction(24)
				if write {
					oneReduction = reduction(16)
				}
				if got := c.Now().Sub(start); got != oneReduction {
					t.Errorf("rank %d: empty collective (write %v, %d ops) took %v, want one reduction %v",
						c.Rank(), write, len(ops), got, oneReduction)
				}
			}
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteBuffersFreeOnReturn pins the lifetime WriteAtAllOps promises:
// once the call returns on a rank, no aggregator reads the rank's op
// buffers again. Every rank scribbles over its ops' Data as soon as each
// write returns, over two files sharing the rank's one staging bundle and
// a two-rank aggregator set, and the files still hold the original bytes.
// Under -race a buffer read after its owner's return is a reported race.
func TestWriteBuffersFreeOnReturn(t *testing.T) {
	const ranks, elems, rounds, nOps = 8, 64, 3, 2
	const slab = elems * ranks * 8
	sys := costedSys()
	scratch := make([]Scratch, ranks)
	want := func(file, off int) byte { return byte(file*97 + off*31 + off>>8) }
	err := fastWorld(ranks).Run(func(c *mpi.Comm) {
		var files [2]*File
		for n := range files {
			f, err := Open(c, sys, fmt.Sprint("f", n), pfs.CreateMode, Hints{CBNodes: 2})
			if err != nil {
				panic(err)
			}
			f.UseScratch(&scratch[c.Rank()])
			files[n] = f
		}
		view := roundRobinView(c, elems)
		for round := range rounds {
			for n, f := range files {
				f.SetView(0, view)
				ops := make([]BatchOp, nOps)
				for k := range ops {
					s := round*nOps + k
					data := make([]byte, elems*8)
					for i := range data {
						data[i] = want(n, s*slab+(i/8*ranks+c.Rank())*8+i%8)
					}
					ops[k] = BatchOp{Type: view, Off: int64(s * elems * 8), Data: data}
				}
				if err := f.WriteAtAllOps(ops); err != nil {
					panic(err)
				}
				for k := range ops {
					for i := range ops[k].Data {
						ops[k].Data[i] = 0xff
					}
				}
			}
		}
		for _, f := range files {
			if err := f.Close(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := range 2 {
		got, err := sys.ReadFile(fmt.Sprint("f", n))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != rounds*nOps*slab {
			t.Fatalf("f%d holds %d bytes, want %d", n, len(got), rounds*nOps*slab)
		}
		for o, b := range got {
			if w := want(n, o); b != w {
				t.Fatalf("f%d byte %d = %#x, want %#x: a buffer was read after its write returned", n, o, b, w)
			}
		}
	}
}
