package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sdm/internal/sim"
)

// Tests of the N-deep step pipeline: per-file dependency tracking,
// implicit conflict joins, depth bounding, arena pooling, and
// the failure paths of the token registry.

// pipelineWorkload streams `steps` put-only epochs of one dataset under
// the given organization and pipeline depth, with `compute` of virtual
// work between steps, relying entirely on implicit joins (no explicit
// Wait); DrainSteps joins the tail. Returns the environment.
func pipelineWorkload(t *testing.T, n, steps, depth int, level FileOrganization, compute sim.Duration) *testEnv {
	t.Helper()
	te := newCostedEnv(n)
	te.run(t, Options{Organization: level, StepPipelineDepth: depth}, func(s *SDM) {
		_, d, m := epochGroup(t, te, s, 4096)
		vals := make([]float64, len(m))
		for i, gi := range m {
			vals[i] = float64(gi)
		}
		for ts := 0; ts < steps; ts++ {
			if err := s.BeginStep(int64(ts)); err != nil {
				panic(err)
			}
			if err := d.Put(vals); err != nil {
				panic(err)
			}
			if _, err := s.EndStepAsync(); err != nil {
				panic(err)
			}
			s.env.Comm.Compute(compute)
		}
		if err := s.DrainSteps(); err != nil {
			panic(err)
		}
	})
	return te
}

// TestPipelineDepth1BitIdenticalToSync pins the depth-1 contract: a
// pipelined loop with implicit joins must be bit-identical — file
// bytes, per-rank virtual clocks, pfs stats, database query counts —
// to the same loop issued with synchronous EndStep, for every file
// organization (the fig6-level differential lives in
// internal/workloads; this is the engine-level pin).
func TestPipelineDepth1BitIdenticalToSync(t *testing.T) {
	for _, level := range []FileOrganization{Level1, Level2, Level3} {
		t.Run(level.String(), func(t *testing.T) {
			const n, steps = 3, 4
			sync := func() *testEnv {
				te := newCostedEnv(n)
				te.run(t, Options{Organization: level}, func(s *SDM) {
					_, d, m := epochGroup(t, te, s, 4096)
					vals := make([]float64, len(m))
					for i, gi := range m {
						vals[i] = float64(gi)
					}
					for ts := 0; ts < steps; ts++ {
						if err := s.BeginStep(int64(ts)); err != nil {
							panic(err)
						}
						if err := d.Put(vals); err != nil {
							panic(err)
						}
						if err := s.EndStep(); err != nil {
							panic(err)
						}
					}
				})
				return te
			}()
			piped := pipelineWorkload(t, n, steps, 1, level, 0)
			filesEqual(t, "pipelined depth-1 vs sync", snapshotFiles(t, sync.fs), snapshotFiles(t, piped.fs))
			if rs, gs := sync.fs.Stats(), piped.fs.Stats(); rs != gs {
				t.Fatalf("pfs stats differ:\nsync     %+v\npipelined %+v", rs, gs)
			}
			rc, gc := clocks(sync, n), clocks(piped, n)
			for r := range rc {
				if rc[r] != gc[r] {
					t.Fatalf("rank %d virtual clock differs: sync %v, pipelined %v", r, rc[r], gc[r])
				}
			}
			if rq, gq := sync.cat.DB().QueryCount(), piped.cat.DB().QueryCount(); rq != gq {
				t.Fatalf("db query counts differ: sync %d, pipelined %d", rq, gq)
			}
		})
	}
}

// TestPipelineDepthReducesTime is the bench claim in miniature: on a
// file-per-timestep layout, depth 2 must finish the same checkpoint
// stream in less virtual time than depth 1 (disjoint per-step files
// keep two flushes in flight), while writing identical bytes.
func TestPipelineDepthReducesTime(t *testing.T) {
	const n, steps = 4, 6
	d1 := pipelineWorkload(t, n, steps, 1, Level1, 0)
	d2 := pipelineWorkload(t, n, steps, 2, Level1, 0)
	filesEqual(t, "depth2 vs depth1 bytes", snapshotFiles(t, d1.fs), snapshotFiles(t, d2.fs))
	t1, t2 := d1.world.MaxTime(), d2.world.MaxTime()
	if t2 >= t1 {
		t.Fatalf("depth-2 makespan %v not below depth-1 %v", t2, t1)
	}
}

// TestConflictImplicitlyWaits pins the conflict policy:
// a flush (and a read) landing in a file with an outstanding flush
// joins just the conflicting token instead of failing, and only the
// conflicting one — a token over a disjoint file stays in flight.
func TestConflictImplicitlyWaits(t *testing.T) {
	te := newTestEnv(2)
	te.run(t, Options{Organization: Level2, StepPipelineDepth: 4}, func(s *SDM) {
		mk := func(name string, mark float64) (*Dataset[float64], []float64) {
			attrs := MakeDatalist(name)
			attrs[0].GlobalSize = 32
			g, err := s.SetAttributes(attrs)
			if err != nil {
				panic(err)
			}
			m := roundRobinMap(s.env.Comm.Rank(), s.env.Comm.Size(), 32)
			if _, err := g.DataView([]string{name}, m); err != nil {
				panic(err)
			}
			d, err := DatasetOf[float64](g, name)
			if err != nil {
				panic(err)
			}
			vals := make([]float64, len(m))
			for i, gi := range m {
				vals[i] = float64(gi) + mark
			}
			return d, vals
		}
		// Two groups registering the same dataset name share a Level2
		// file (each appending from its own slab cursor, so B's write
		// lands over A's — the aliasing is exactly why the registry must
		// serialize them); a third group writes its own file.
		da, va := mk("shared", 0.25)
		db, vb := mk("shared", 0.75)
		dc, vc := mk("other", 0.5)

		put := func(d *Dataset[float64], ts int64, vals []float64) *StepToken {
			if err := s.BeginStep(ts); err != nil {
				panic(err)
			}
			if err := d.Put(vals); err != nil {
				panic(err)
			}
			tok, err := s.EndStepAsync()
			if err != nil {
				panic(err)
			}
			return tok
		}
		tokA := put(da, 0, va)
		tokC := put(dc, 0, vc)
		// Group B flushes the same file as A: A's token joins
		// implicitly, C's stays outstanding.
		tokB := put(db, 1, vb)
		if !tokA.waited {
			t.Error("conflicting flush did not join the outstanding token")
		}
		if tokC.waited {
			t.Error("flush of a disjoint file was joined by an unrelated conflict")
		}
		// A read of the shared file joins B's token the same way. Both
		// groups' slab cursors start at zero, so B's step-1 write landed
		// over A's slab: the joined read must see B's bytes — the
		// write-after-write dependency resolved in issue order.
		out := make([]float64, len(vb))
		if err := da.GetAt(0, out); err != nil {
			panic(err)
		}
		if !tokB.waited {
			t.Error("read did not join the conflicting flush")
		}
		for i := range out {
			if out[i] != vb[i] {
				t.Errorf("readback elem %d = %g, want %g (B's overwrite)", i, out[i], vb[i])
				break
			}
		}
		if err := tokC.Wait(); err != nil {
			panic(err)
		}
	})
}

// flushJoinsNothing issues a one-put step of d at ts with EndStepAsync,
// waits it, and fails if the flush joined an earlier one on its way: a
// token outstanding before the call was waited by it, or the caller's
// clock left the call point, which happens only when a claim or the
// depth bound joins a flush.
func flushJoinsNothing(s *SDM, d *Dataset[float64], ts int64, vals []float64) error {
	before := slices.Clone(s.tokens)
	clock := s.env.Comm.Clock()
	at := clock.Now()
	if err := s.BeginStep(ts); err != nil {
		return err
	}
	if err := d.Put(vals); err != nil {
		return err
	}
	tok, err := s.EndStepAsync()
	if err != nil {
		return err
	}
	joined := clock.Now() != at
	for _, t := range before {
		joined = joined || t.waited
	}
	if err := tok.Wait(); err != nil {
		return err
	}
	if joined {
		return fmt.Errorf("the flush of %s@%d joined an earlier flush", d.name, ts)
	}
	return nil
}

// TestWaitErrorReleasesClaims is the regression test for the claim
// leak: a token whose flush failed must still release every file it
// claimed when Wait surfaces the error, so later epochs on the same
// files proceed.
func TestWaitErrorReleasesClaims(t *testing.T) {
	te := newTestEnv(2)
	te.run(t, Options{Organization: Level2}, func(s *SDM) {
		attrs := MakeDatalist("a", "b")
		for i := range attrs {
			attrs[i].GlobalSize = 32
		}
		g, err := s.SetAttributes(attrs)
		if err != nil {
			panic(err)
		}
		m := roundRobinMap(s.env.Comm.Rank(), s.env.Comm.Size(), 32)
		if _, err := g.DataView([]string{"a", "b"}, m); err != nil {
			panic(err)
		}
		da, _ := DatasetOf[float64](g, "a")
		db, _ := DatasetOf[float64](g, "b")
		vals := make([]float64, len(m))

		// The epoch claims a's file for the put, then fails flushing the
		// get: timestep 99 of b was never written.
		if err := s.BeginStep(99); err != nil {
			panic(err)
		}
		if err := da.Put(vals); err != nil {
			panic(err)
		}
		if err := s.BeginStep(99); err == nil {
			panic("double BeginStep accepted")
		}
		if err := db.Get(vals); err != nil {
			panic(err)
		}
		tok, err := s.EndStepAsync()
		if err != nil {
			panic(err)
		}
		unwritten := func(err error) {
			if err == nil || !strings.Contains(err.Error(), `dataset "b" timestep 99`) {
				t.Errorf("rank %d: flush of an unwritten timestep reported %v, want b and 99 named", s.env.Comm.Rank(), err)
			}
		}
		unwritten(tok.Wait())
		// A read resolves from the placement index alone: the same miss
		// in a get-only step fails every rank without a catalog statement.
		if err := s.BeginStep(99); err != nil {
			panic(err)
		}
		if err := db.Get(vals); err != nil {
			panic(err)
		}
		queries := s.env.Catalog.DB().QueryCount()
		unwritten(s.EndStep())
		if s.env.Comm.Rank() == 0 {
			if got := s.env.Catalog.DB().QueryCount(); got != queries {
				t.Errorf("a get of an unwritten timestep issued %d catalog statements, want 0", got-queries)
			}
		}
		if len(s.tokens) != 0 {
			t.Errorf("failed flush left %d tokens registered", len(s.tokens))
		}
		if err := flushJoinsNothing(s, da, 1, vals); err != nil {
			t.Errorf("rank %d: flush of a's file after the failed flush: %v", s.env.Comm.Rank(), err)
		}
		// The claimed file is free again: a fresh epoch over it works.
		if err := da.PutAt(1, vals); err != nil {
			t.Errorf("write after failed flush rejected: %v", err)
		}
		out := make([]float64, len(m))
		if err := da.GetAt(1, out); err != nil {
			t.Errorf("read after failed flush rejected: %v", err)
		}
	})
}

// TestRecordWritesCommitInTimestepOrder pins the catalog ordering rule
// for overlapping epochs: even with four flushes in flight, the
// execution-table batches commit in timestep order, so the table's raw
// row order (its insert order) is non-decreasing in timestep.
func TestRecordWritesCommitInTimestepOrder(t *testing.T) {
	te := newTestEnv(2)
	const steps = 6
	te.run(t, Options{Organization: Level1, StepPipelineDepth: 4}, func(s *SDM) {
		_, d, m := epochGroup(t, te, s, 64)
		vals := make([]float64, len(m))
		for ts := 0; ts < steps; ts++ {
			if err := s.BeginStep(int64(ts)); err != nil {
				panic(err)
			}
			if err := d.Put(vals); err != nil {
				panic(err)
			}
			if _, err := s.EndStepAsync(); err != nil {
				panic(err)
			}
		}
	})
	rows, err := te.cat.DB().Query(`SELECT timestep FROM execution_table`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != steps {
		t.Fatalf("execution_table has %d rows, want %d", rows.Len(), steps)
	}
	prev := int64(-1)
	for _, r := range rows.Data {
		ts := r[0].AsInt()
		if ts < prev {
			t.Fatalf("execution_table rows committed out of timestep order: %d after %d", ts, prev)
		}
		prev = ts
	}
}

// TestPipelinePoolsBounded pins the steady-state resource story: a
// flush runs in host time inside EndStepAsync, so its staging arena
// returns to the pool when the call does, and an N-deep put stream
// cycles one arena however many flushes are in flight.
func TestPipelinePoolsBounded(t *testing.T) {
	te := newTestEnv(2)
	const depth, steps = 3, 12
	te.run(t, Options{Organization: Level1, StepPipelineDepth: depth}, func(s *SDM) {
		_, d, m := epochGroup(t, te, s, 256)
		vals := make([]float64, len(m))
		for ts := 0; ts < steps; ts++ {
			if err := s.BeginStep(int64(ts)); err != nil {
				panic(err)
			}
			if err := d.Put(vals); err != nil {
				panic(err)
			}
			if _, err := s.EndStepAsync(); err != nil {
				panic(err)
			}
			if len(s.tokens) > depth {
				t.Errorf("step %d: %d tokens in flight exceeds depth %d", ts, len(s.tokens), depth)
			}
		}
		if err := s.DrainSteps(); err != nil {
			panic(err)
		}
		if got := len(s.arenaPool); got != 1 {
			t.Errorf("arena pool holds %d buffers after drain, want 1", got)
		}
	})
}

// TestEmptyEpochKeepsPipelineOverlap pins the empty-epoch contract
// under pipelining: closing an epoch that queued nothing costs
// nothing — in particular it must not drain the pipeline, so a
// timestep with no output leaves earlier flushes overlapping.
func TestEmptyEpochKeepsPipelineOverlap(t *testing.T) {
	te := newCostedEnv(2)
	te.run(t, Options{Organization: Level1, StepPipelineDepth: 1}, func(s *SDM) {
		_, d, m := epochGroup(t, te, s, 2048)
		vals := make([]float64, len(m))
		if err := s.BeginStep(0); err != nil {
			panic(err)
		}
		if err := d.Put(vals); err != nil {
			panic(err)
		}
		tok, err := s.EndStepAsync()
		if err != nil {
			panic(err)
		}
		before := s.env.Comm.Now()
		// A no-output timestep: must not join the outstanding flush even
		// at depth 1, and must not register a new token.
		if err := s.BeginStep(1); err != nil {
			panic(err)
		}
		empty, err := s.EndStepAsync()
		if err != nil {
			panic(err)
		}
		if tok.waited {
			t.Error("empty epoch drained the outstanding flush")
		}
		if s.env.Comm.Now() != before {
			t.Errorf("empty epoch advanced the clock: %v -> %v", before, s.env.Comm.Now())
		}
		if len(s.tokens) != 1 {
			t.Errorf("empty epoch registered a token: %d live, want 1", len(s.tokens))
		}
		if err := empty.Wait(); err != nil {
			t.Errorf("empty-epoch token Wait: %v", err)
		}
		if err := empty.Wait(); err == nil {
			t.Error("double Wait on an empty-epoch token accepted")
		}
		if err := tok.Wait(); err != nil {
			panic(err)
		}
	})
}

// ---------------------------------------------------------------------------
// Randomized property test of the token registry.
// ---------------------------------------------------------------------------

// pipeOp is one scripted operation; scripts are generated once per
// trial and replayed identically on every rank, keeping the collective
// sequences aligned.
type pipeOp struct {
	kind  string // "begin", "put", "end", "endAsync", "wait", "get", "misuse"
	group int    // 0 or 1
	ds    int    // dataset index within the group
	tok   int    // index into the issued-token list (wait)
	ts    int64  // step timestep (begin) or read target (get)
}

// writtenStep records one closed step of a group: its timestep and how
// many of the group's datasets it queued (datasets 0..n-1 were written).
type writtenStep struct {
	ts int64
	n  int
}

// genScript generates a deterministic op sequence for a trial. It
// tracks just enough state (the open step, issued token count, written
// timesteps, queued puts) to keep the script structurally valid.
func genScript(rng *rand.Rand, nOps int) []pipeOp {
	var (
		ops     []pipeOp
		open    bool
		queued  [2]int
		nextTS  int64
		written [2][]writtenStep
		tokens  int
	)
	for len(ops) < nOps {
		g := rng.Intn(2)
		switch {
		case !open && rng.Intn(4) == 0 && tokens > 0:
			ops = append(ops, pipeOp{kind: "wait", tok: rng.Intn(tokens)})
		case !open && rng.Intn(5) == 0 && len(written[g]) > 0:
			w := written[g][rng.Intn(len(written[g]))]
			ops = append(ops, pipeOp{kind: "get", group: g, ds: rng.Intn(w.n), ts: w.ts})
		case !open && rng.Intn(8) == 0:
			ops = append(ops, pipeOp{kind: "misuse", group: g})
		case !open:
			ops = append(ops, pipeOp{kind: "begin", ts: nextTS})
			open = true
		case queued[g] < 2 && rng.Intn(3) != 0:
			ops = append(ops, pipeOp{kind: "put", group: g, ds: queued[g]})
			queued[g]++
		case queued == [2]int{}:
			// Close an empty step synchronously (free) to keep moving.
			ops = append(ops, pipeOp{kind: "end"})
			open = false
		default:
			kind := "endAsync"
			if rng.Intn(3) == 0 {
				kind = "end"
			} else {
				tokens++
			}
			ops = append(ops, pipeOp{kind: kind})
			for h := range queued {
				if queued[h] > 0 {
					written[h] = append(written[h], writtenStep{nextTS, queued[h]})
				}
			}
			nextTS++
			open, queued = false, [2]int{}
		}
	}
	return ops
}

// TestTokenRegistryRandomized drives randomized interleavings of
// BeginStep/Put/EndStep(Async)/Wait/Get across two groups and several
// organizations and depths, asserting no lost writes (every written
// timestep reads back correct values), no double-charge (a second Wait
// fails loudly and does not move the clock), loud misuse failures, and
// a clean registry after Finalize.
func TestTokenRegistryRandomized(t *testing.T) {
	value := func(g, ds int, ts int64, gi int32) float64 {
		return float64(g*1_000_000+ds*100_000) + float64(ts)*1000 + float64(gi) + 0.125
	}
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + trial)))
			level := []FileOrganization{Level1, Level2, Level3}[rng.Intn(3)]
			depth := 1 + rng.Intn(3)
			script := genScript(rng, 40)
			const nRanks, globalN = 2, 48

			te := newTestEnv(nRanks)
			var mgr *SDM
			te.run(t, Options{Organization: level, StepPipelineDepth: depth}, func(s *SDM) {
				if s.env.Comm.Rank() == 0 {
					mgr = s
				}
				var ds [2][2]*Dataset[float64]
				var maps [2][]int32
				for g := 0; g < 2; g++ {
					attrs := MakeDatalist(fmt.Sprintf("g%dd0", g), fmt.Sprintf("g%dd1", g))
					for i := range attrs {
						attrs[i].GlobalSize = globalN
					}
					gr, err := s.SetAttributes(attrs)
					if err != nil {
						panic(err)
					}
					maps[g] = roundRobinMap(s.env.Comm.Rank(), nRanks, globalN)
					if _, err := gr.DataView([]string{attrs[0].Name, attrs[1].Name}, maps[g]); err != nil {
						panic(err)
					}
					for k := 0; k < 2; k++ {
						h, err := DatasetOf[float64](gr, attrs[k].Name)
						if err != nil {
							panic(err)
						}
						ds[g][k] = h
					}
				}

				var toks []*StepToken
				var curTS int64
				var bufs [][]float64 // keep queued slices alive until flush
				for _, op := range script {
					g := op.group
					switch op.kind {
					case "begin":
						curTS = op.ts
						if err := s.BeginStep(op.ts); err != nil {
							panic(err)
						}
					case "put":
						vals := make([]float64, len(maps[g]))
						for i, gi := range maps[g] {
							vals[i] = value(g, op.ds, curTS, gi)
						}
						bufs = append(bufs, vals)
						if err := ds[g][op.ds].Put(vals); err != nil {
							panic(err)
						}
					case "end":
						if err := s.EndStep(); err != nil {
							panic(err)
						}
					case "endAsync":
						tok, err := s.EndStepAsync()
						if err != nil {
							panic(err)
						}
						toks = append(toks, tok)
					case "wait":
						tok := toks[op.tok]
						if tok.waited {
							before := s.env.Comm.Now()
							if err := tok.Wait(); err == nil {
								panic("second Wait on a joined token accepted")
							}
							if s.env.Comm.Now() != before {
								panic("second Wait moved the clock (double charge)")
							}
						} else if err := tok.Wait(); err != nil {
							panic(err)
						}
					case "get":
						out := make([]float64, len(maps[g]))
						if err := ds[g][op.ds].GetAt(op.ts, out); err != nil {
							panic(err)
						}
						for i, gi := range maps[g] {
							if want := value(g, op.ds, op.ts, gi); out[i] != want {
								panic(fmt.Sprintf("lost write: g%dd%d ts %d elem %d = %g, want %g",
									g, op.ds, op.ts, gi, out[i], want))
							}
						}
					case "misuse":
						if err := s.EndStep(); err == nil {
							panic("EndStep without an open step accepted")
						}
						if err := ds[g][0].Put(nil); err == nil {
							panic("Put outside a step accepted")
						}
					}
				}
				// A step still open has written nothing yet; close it.
				if s.step.open {
					if err := s.EndStep(); err != nil {
						panic(err)
					}
				}
				// No lost writes: every written timestep of every dataset
				// that was actually queued must read back. The script only
				// guarantees dataset 0..queued-1 per epoch, so verify via
				// the execution table instead of replaying the model.
				if err := s.DrainSteps(); err != nil {
					panic(err)
				}
				_ = bufs
			})
			// Registry clean after Finalize.
			if mgr == nil {
				t.Fatal("rank 0 manager not captured")
			}
			if len(mgr.tokens) != 0 {
				t.Fatalf("finalized manager still has %d live tokens", len(mgr.tokens))
			}
			// Every recorded write is readable from a fresh attach of the
			// same catalog/fs (no lost writes at the durable layer).
			recs, err := te.cat.WritesForRun(nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				raw, err := te.fs.ReadFile(rec.FileName)
				if err != nil {
					t.Fatalf("write record for missing file %q: %v", rec.FileName, err)
				}
				if int64(len(raw)) < rec.FileOffset+globalN*8 {
					t.Fatalf("file %q shorter than recorded slab at %d", rec.FileName, rec.FileOffset)
				}
				var g, d int
				fmt.Sscanf(rec.Dataset, "g%dd%d", &g, &d)
				got := bytesToFloat64s(raw[rec.FileOffset : rec.FileOffset+globalN*8])
				for gi := 0; gi < globalN; gi++ {
					if want := value(g, d, rec.Timestep, int32(gi)); got[gi] != want {
						t.Fatalf("lost write: %s ts %d elem %d = %g, want %g",
							rec.Dataset, rec.Timestep, gi, got[gi], want)
					}
				}
			}
		})
	}
}

// TestPipelineRaceStress drives the pipeline under the race detector:
// a writer group keeps StepPipelineDepth flushes in flight over
// disjoint level-1 files while a reader group Waits (implicitly, via
// conflicts and the depth bound) and Gets earlier timesteps, on every
// rank goroutine concurrently. Run with -race in CI (the core package
// is part of the repeated race pass).
func TestPipelineRaceStress(t *testing.T) {
	const nRanks, steps, depth = 4, 8, 3
	te := newTestEnv(nRanks)
	te.run(t, Options{Organization: Level1, StepPipelineDepth: depth}, func(s *SDM) {
		_, dw, mw := epochGroup(t, te, s, 512)
		attrs := MakeDatalist("r")
		attrs[0].GlobalSize = 512
		gr, err := s.SetAttributes(attrs)
		if err != nil {
			panic(err)
		}
		if _, err := gr.DataView([]string{"r"}, mw); err != nil {
			panic(err)
		}
		dr, err := DatasetOf[float64](gr, "r")
		if err != nil {
			panic(err)
		}

		vals := make([]float64, len(mw))
		out := make([]float64, len(mw))
		for ts := 0; ts < steps; ts++ {
			for i, gi := range mw {
				vals[i] = float64(ts)*10_000 + float64(gi)
			}
			// Writer stream: p at ts, r at ts (two groups, two files per
			// step, all disjoint across steps under level 1).
			if err := s.BeginStep(int64(ts)); err != nil {
				panic(err)
			}
			if err := dw.Put(vals); err != nil {
				panic(err)
			}
			if _, err := s.EndStepAsync(); err != nil {
				panic(err)
			}
			if err := s.BeginStep(int64(ts)); err != nil {
				panic(err)
			}
			if err := dr.Put(vals); err != nil {
				panic(err)
			}
			if _, err := s.EndStepAsync(); err != nil {
				panic(err)
			}
			// Reader: fetch an earlier, already-joined-or-conflicting
			// timestep of the writer's dataset while flushes are in
			// flight; the per-file registry resolves the dependency.
			if ts >= 2 {
				back := int64(ts - 2)
				if err := dw.GetAt(back, out); err != nil {
					panic(err)
				}
				for i, gi := range mw {
					if want := float64(back)*10_000 + float64(gi); out[i] != want {
						panic(fmt.Sprintf("rank %d ts %d: stale read elem %d = %g, want %g",
							s.env.Comm.Rank(), ts, i, out[i], want))
					}
				}
			}
		}
		if err := s.DrainSteps(); err != nil {
			panic(err)
		}
	})
	if n := len(te.fs.List()); n != 2*steps {
		t.Fatalf("stress run left %d files, want %d", n, 2*steps)
	}
}
