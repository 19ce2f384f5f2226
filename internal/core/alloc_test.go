package core

import (
	"fmt"
	"runtime"
	"testing"

	"sdm/internal/pfs"
)

// What a steady-state step may allocate besides its token, which every
// flush allocates so that a second Wait on it fails loudly.
const (
	// storePageBytes is the page the default in-memory store keeps a
	// file's bytes in (internal/store's memPageSize). A new page costs its
	// allocation and, now and then, a larger page map: a quarter more.
	storePageBytes = 64 << 10
	// catalogRowAllocs bounds rank 0's execution-table batch, per row: the
	// statement text and arguments, the stored row and its index entries.
	catalogRowAllocs = 10
	// level1Create bounds what each file a level-1 Put step creates costs
	// in all ranks together: its name, which the ranks share, the store
	// object with its page map, the file system's record of it, and now
	// and then a larger map of each. Opening costs nothing more — a group
	// reopens its last closed mpiio.File, and that file its pfs handle —
	// so a level-1 Get step is held to the other levels' ceiling. (Until
	// files were reused, a level-1 file cost up to 6 allocations per rank
	// on a Put step and 2 on a Get step.)
	level1Create = 6
	// runtimeSlack is what the Go runtime may allocate for itself in a
	// window, such as a GC cycle's goroutines: MemStats counts those too.
	runtimeSlack = 8
)

// storePages is how many store pages the files of fs occupy: every file
// SDM writes is filled from offset zero, so its pages are its size in
// pages.
func storePages(fs *pfs.System) int64 {
	var n int64
	for _, name := range fs.List() {
		if sz, err := fs.FileSize(name); err == nil {
			n += (sz + storePageBytes - 1) / storePageBytes
		}
	}
	return n
}

// TestStepAllocsSteadyState pins the host allocations of a step once a
// run's first Put step and first Get step have sized the Manager's and
// the collective layer's scratch: a Put step allocates its token, the
// store pages its bytes land in and rank 0's execution-table batch; a Get
// step — read-ahead or not — its token and nothing else. A level-1 Put
// step also creates a file per dataset. Two groups of
// float64, int32 and int64 datasets step on every level at depths 1 and
// 2, each step a row of stripes or more, as the applications' are; the
// reads are checked against the writes.
func TestStepAllocsSteadyState(t *testing.T) {
	const nRanks, steps, n0, n1 = 4, 5, 20_000, 40_000
	const datasets, measured = 4, steps - 1
	for _, level := range []FileOrganization{Level1, Level2, Level3} {
		for _, depth := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/depth%d", level, depth), func(t *testing.T) {
				// Two servers: a row of 64 KiB stripes is 128 KiB, and every
				// dataset's slab is one or more.
				te := newCostedEnv(nRanks)
				cfg := pfs.DefaultConfig()
				cfg.NumServers = 2
				te.fs = pfs.NewSystem(cfg)
				var put, get, pages int64
				te.run(t, Options{Organization: level, StepPipelineDepth: depth}, func(s *SDM) {
					rank := s.Comm().Rank()
					g0, err := s.SetAttributes([]Attr{
						{Name: "p", Type: Double, GlobalSize: n0},
						{Name: "q", Type: Double, GlobalSize: n0},
					})
					if err != nil {
						panic(err)
					}
					g1, err := s.SetAttributes([]Attr{
						{Name: "n", Type: Integer, GlobalSize: n1},
						{Name: "m", Type: Long, GlobalSize: n1},
					})
					if err != nil {
						panic(err)
					}
					m0, m1 := roundRobinMap(rank, nRanks, n0), roundRobinMap(rank, nRanks, n1)
					for _, v := range []struct {
						g    *Group
						name string
						m    []int32
					}{{g0, "p", m0}, {g0, "q", m0}, {g1, "n", m1}, {g1, "m", m1}} {
						if _, err := v.g.DataView([]string{v.name}, v.m); err != nil {
							panic(err)
						}
					}
					p, _ := DatasetOf[float64](g0, "p")
					q, _ := DatasetOf[float64](g0, "q")
					n, _ := DatasetOf[int32](g1, "n")
					m, _ := DatasetOf[int64](g1, "m")
					wp, wq := make([][]float64, steps), make([][]float64, steps)
					rp, rq := make([][]float64, steps), make([][]float64, steps)
					wn, rn := make([][]int32, steps), make([][]int32, steps)
					wm, rm := make([][]int64, steps), make([][]int64, steps)
					for ts := range steps {
						wp[ts], wq[ts] = make([]float64, len(m0)), make([]float64, len(m0))
						rp[ts], rq[ts] = make([]float64, len(m0)), make([]float64, len(m0))
						wn[ts], rn[ts] = make([]int32, len(m1)), make([]int32, len(m1))
						wm[ts], rm[ts] = make([]int64, len(m1)), make([]int64, len(m1))
						for i, gi := range m0 {
							wp[ts][i], wq[ts][i] = float64(gi)+0.5*float64(ts), -float64(gi)-float64(ts)
						}
						for i, gi := range m1 {
							wn[ts][i], wm[ts][i] = gi*7+int32(ts), int64(gi)<<33|int64(ts)
						}
					}
					must := func(err error) {
						if err != nil {
							panic(err)
						}
					}
					// window runs step 0 of stepOne, then counts the heap
					// objects the other steps allocate on every rank, and the
					// store pages they add.
					window := func(stepOne func(ts int)) (mallocs, newPages int64) {
						stepOne(0)
						var ms runtime.MemStats
						s.Comm().Barrier()
						if rank == 0 {
							newPages = -storePages(te.fs)
							runtime.ReadMemStats(&ms)
							mallocs = -int64(ms.Mallocs)
						}
						s.Comm().Barrier()
						for ts := 1; ts < steps; ts++ {
							stepOne(ts)
						}
						must(s.DrainSteps())
						s.Comm().Barrier()
						if rank == 0 {
							runtime.ReadMemStats(&ms)
							mallocs += int64(ms.Mallocs)
							newPages += storePages(te.fs)
						}
						s.Comm().Barrier()
						return mallocs, newPages
					}
					putAllocs, putPages := window(func(ts int) {
						must(s.BeginStep(int64(ts)))
						must(p.Put(wp[ts]))
						must(q.Put(wq[ts]))
						must(n.Put(wn[ts]))
						must(m.Put(wm[ts]))
						_, err := s.EndStepAsync()
						must(err)
					})
					getAllocs, _ := window(func(ts int) {
						must(s.BeginStep(int64(ts)))
						must(p.Get(rp[ts]))
						must(q.Get(rq[ts]))
						must(n.Get(rn[ts]))
						must(m.Get(rm[ts]))
						must(s.EndStep())
					})
					if rank == 0 {
						put, get, pages = putAllocs, getAllocs, putPages
					}
					for ts := range steps {
						for i := range m0 {
							if rp[ts][i] != wp[ts][i] || rq[ts][i] != wq[ts][i] {
								panic(fmt.Sprintf("step %d: float64 element %d read back wrong", ts, i))
							}
						}
						for i := range m1 {
							if rn[ts][i] != wn[ts][i] || rm[ts][i] != wm[ts][i] {
								panic(fmt.Sprintf("step %d: integer element %d read back wrong", ts, i))
							}
						}
					}
				})
				rankSteps := int64(nRanks * measured)
				putCeil := rankSteps + pages + pages/4 + measured*datasets*catalogRowAllocs + runtimeSlack
				getCeil := rankSteps + runtimeSlack
				if level == Level1 {
					putCeil += measured * datasets * level1Create
				}
				t.Logf("%d rank-steps: Put steps %d allocations (ceiling %d, %d new pages), Get steps %d (ceiling %d)",
					rankSteps, put, putCeil, pages, get, getCeil)
				if put > putCeil {
					t.Errorf("Put steps allocated %d objects, over the ceiling of %d", put, putCeil)
				}
				if get > getCeil {
					t.Errorf("Get steps allocated %d objects, over the ceiling of %d", get, getCeil)
				}
			})
		}
	}
}
