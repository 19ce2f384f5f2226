package core

import (
	"strconv"
	"testing"

	"sdm/internal/mpiio"
	"sdm/internal/obs"
	"sdm/internal/sim"
)

// A flush finishes file by file: a put step encodes each file just
// before its collective forks, and a get step — ordinary, adopted from
// a read-ahead, or an import epoch — decodes each file as soon as its
// own collective completes. Only the order of the memory-copy charges
// moves, so the bytes and the file-system work are the Waitall
// schedule's, and no rank ends later.

// flattenAhead makes every outstanding read-ahead deliver the Waitall
// way: each read is stamped with its token's join, so the adopting step
// decodes nothing before the last file completes.
func flattenAhead(s *SDM) {
	for _, t := range aheadTokens(s) {
		for i := range t.fl.ahead {
			for j := range t.fl.ahead[i].placed {
				t.fl.ahead[i].placed[j].done = t.done
			}
		}
	}
}

// waitallImport imports the view arrays names through views the way
// Importer.Flush did before each array was permuted as its collective
// completed: every collective forked in turn, the join, then every
// permute.
func waitallImport(imp *Importer, names []string, views []*View) ([][]byte, error) {
	c := imp.s.env.Comm
	clock := c.Clock()
	join := clock.Now()
	out := make([][]byte, len(names))
	for i, name := range names {
		sp, err := imp.Spec(name)
		if err != nil {
			return nil, err
		}
		v := views[i]
		imp.file.SetView(sp.FileOffset, v.dtype)
		fork := clock.Now()
		fileOrder := make([]byte, int64(v.LocalSize())*v.elemSize)
		err = imp.file.ReadAtAllOps([]mpiio.BatchOp{{Disp: sp.FileOffset, Type: v.dtype, Data: fileOrder}})
		join = sim.MaxTime(join, clock.Now())
		if err != nil {
			return nil, err
		}
		clock.Rebase(fork)
		out[i] = make([]byte, len(fileOrder))
		permuteBytesFromFile(v, fileOrder, out[i])
	}
	clock.AdvanceTo(join)
	for i := range out {
		c.ComputeItems(int64(len(out[i])), memCopyRate)
	}
	return out, nil
}

// noLater fails unless every rank of got ends no later than the same
// rank of ref, and reports whether some rank ends strictly earlier.
func noLater(t *testing.T, label string, got, ref []sim.Time) bool {
	t.Helper()
	earlier := false
	for r := range ref {
		if got[r] > ref[r] {
			t.Errorf("%s: rank %d ends at %v, after the Waitall reference's %v", label, r, got[r], ref[r])
		}
		earlier = earlier || got[r] < ref[r]
	}
	return earlier
}

// TestDeliverAsFilesComplete: at every level a get step over two groups
// (three datasets) delivers the Waitall reference's bytes for the same
// pfs.Stats, every rank no later — and under Level 1, where each dataset
// is its own file, some rank strictly earlier; the Level-1 put steps
// that wrote the checkpoints fork their first collective after the
// first file's encode alone. A depth-4 sequential read-back adopting its
// read-aheads, and a two-array import epoch, hold the same bounds.
func TestDeliverAsFilesComplete(t *testing.T) {
	const n, steps, ts = 4, 2, raStride
	for _, level := range []FileOrganization{Level1, Level2, Level3} {
		t.Run(level.String(), func(t *testing.T) {
			var ends [2][]sim.Time
			var envs [2]*testEnv
			tr := obs.NewTracer()
			var firstBytes [n]int64
			for k, reference := range []bool{false, true} {
				ends[k] = make([]sim.Time, n)
				var trk *obs.Tracer
				if !reference {
					trk = tr
				}
				envs[k] = raRunTraced(t, trk, n, steps, Options{Organization: level}, true, func(a *raApp) {
					c := a.s.env.Comm
					firstBytes[c.Rank()] = int64(len(a.maps[0])) * 8
					a.begin(ts)
					out := make([][]float64, a.nsets())
					for j := range out {
						out[j] = make([]float64, len(a.maps[j]))
						if err := a.ds[j].Get(out[j]); err != nil {
							panic(err)
						}
					}
					var err error
					if reference {
						err = waitallGetStep(a.s, true)
					} else {
						err = a.end()
					}
					if err != nil {
						panic(err)
					}
					ends[k][c.Rank()] = c.Now()
					for j := range out {
						for i, g := range a.maps[j] {
							if want := raValue(a.ds[j].name, ts, g, 0); out[j][i] != want {
								t.Errorf("rank %d %s@%d element %d = %v, want %v", c.Rank(), a.ds[j].name, ts, g, out[j][i], want)
								return
							}
						}
					}
				}, nil)
			}
			filesEqual(t, "as completed vs Waitall", snapshotFiles(t, envs[1].fs), snapshotFiles(t, envs[0].fs))
			if a, b := envs[1].fs.Stats(), envs[0].fs.Stats(); a != b {
				t.Fatalf("pfs stats differ:\nWaitall      %+v\nas completed %+v", a, b)
			}
			if earlier := noLater(t, "get step", ends[0], ends[1]); level == Level1 && !earlier {
				t.Errorf("no rank ends a three-file get step earlier than the Waitall reference: %v", ends[0])
			}
			if level == Level1 {
				firstWriteAfterFirstEncode(t, tr, firstBytes[:])
			}
		})
	}

	t.Run("readahead-depth4", func(t *testing.T) {
		const steps, depth = 8, 4
		var envs [2]*testEnv
		var ends [2][]sim.Time
		for k, reference := range []bool{false, true} {
			ends[k] = make([]sim.Time, n)
			envs[k] = raRun(t, n, steps, Options{Organization: Level1, StepPipelineDepth: depth}, true, func(a *raApp) {
				for s := 0; s < steps; s++ {
					if s > 0 && len(aheadTokens(a.s)) == 0 {
						t.Errorf("rank %d: no read-ahead to adopt at step %d", a.s.env.Comm.Rank(), s)
					}
					if reference {
						flattenAhead(a.s)
					}
					a.get(int64(s*raStride), 0)
				}
				c := a.s.env.Comm
				ends[k][c.Rank()] = c.Now()
			}, nil)
		}
		filesEqual(t, "as completed vs Waitall", snapshotFiles(t, envs[1].fs), snapshotFiles(t, envs[0].fs))
		if a, b := envs[1].fs.Stats(), envs[0].fs.Stats(); a != b {
			t.Fatalf("pfs stats differ:\nWaitall      %+v\nas completed %+v", a, b)
		}
		noLater(t, "read-back", ends[0], ends[1])
	})

	t.Run("import-epoch", func(t *testing.T) {
		names := []string{"e0", "n0"}
		var fxs [2]*importFixture
		var got [2][importRanks][][]byte
		for k, reference := range []bool{false, true} {
			fx := newImportFixture(t)
			fxs[k] = fx
			fx.te.run(t, Options{}, func(s *SDM) {
				imp, err := s.MakeImportlist("uns3d.msh", fx.specs)
				if err != nil {
					panic(err)
				}
				ev, nv := fx.views(s.Comm().Rank())
				views := []*View{ev, nv}
				var res [][]byte
				if reference {
					res, err = waitallImport(imp, names, views)
				} else {
					var hs []*ImportHandle
					for i, name := range names {
						h, err := imp.QueueView(name, views[i])
						if err != nil {
							panic(err)
						}
						hs = append(hs, h)
					}
					err = imp.Flush()
					for _, h := range hs {
						res = append(res, h.Bytes())
					}
				}
				if err != nil {
					panic(err)
				}
				got[k][s.Comm().Rank()] = res
			})
		}
		sameImports(t, "as completed vs Waitall", got[1], got[0])
		if a, b := fxs[1].te.fs.Stats(), fxs[0].te.fs.Stats(); a != b {
			t.Fatalf("pfs stats differ:\nWaitall      %+v\nas completed %+v", a, b)
		}
		noLater(t, "import epoch", clocks(fxs[0].te, importRanks), clocks(fxs[1].te, importRanks))
	})
}

// firstWriteAfterFirstEncode checks, on every rank of a traced Level-1
// run, that the core/stage spans ending by the rank's first
// mpiio/phase1:write encoded exactly firstBytes[rank] — the first
// file's share, not the step's.
func firstWriteAfterFirstEncode(t *testing.T, tr *obs.Tracer, firstBytes []int64) {
	t.Helper()
	spans := tr.Spans()
	for r := range firstBytes {
		pid := obs.PidRank(r)
		var p1 *obs.Span
		for i := range spans {
			sp := &spans[i]
			if sp.Pid == pid && sp.Cat == "mpiio" && sp.Name == "phase1:write" && (p1 == nil || sp.Start < p1.Start) {
				p1 = sp
			}
		}
		if p1 == nil {
			t.Fatalf("rank %d: no mpiio/phase1:write span", r)
		}
		var encoded int64
		for _, sp := range spans {
			if sp.Pid == pid && sp.Cat == "core" && sp.Name == "stage" && sp.End <= p1.Start {
				b, err := strconv.ParseInt(spanArg(sp, "bytes"), 10, 64)
				if err != nil {
					t.Fatalf("rank %d: stage span bytes: %v", r, err)
				}
				encoded += b
			}
		}
		if encoded != firstBytes[r] {
			t.Errorf("rank %d: %d bytes encoded before its first phase1:write at %v, want the first file's %d",
				r, encoded, p1.Start, firstBytes[r])
		}
	}
}
