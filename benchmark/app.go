package main

import (
	"fmt"
	"sync"

	"sdm"
	"sdm/internal/mpi"
)

// The benchmark owns its application drivers instead of calling
// workloads.*Bandwidth: those synthesise their fields inside the loop
// (RT's exp/tanh field is ~60 % of its profile), which would put
// benchmark work into the timed region. These drivers issue the same
// SDM calls in the same order on buffers built in set-up; the
// driver-equivalence test pins their simulated results, pfs counters
// and file sizes to the workloads package bit for bit, so the paper
// figures and the benchmark cannot drift apart.

// ckptResult is what one checkpoint phase reports.
type ckptResult struct {
	runID        int64
	simWriteMBps float64
	simReadMBps  float64
	simWriteSec  float64
	simReadSec   float64
}

// groupHandles is one rank's open group.
type groupHandles struct {
	g  *sdm.Group
	ds []*sdm.Dataset[float64]
}

// openGroups registers (or, when reopen is set, reattaches to) the
// shape's groups on a manager and installs the rank's views.
func openGroups(s *sdm.Manager, su *setup, rank int, reopen bool) ([]groupHandles, error) {
	out := make([]groupHandles, len(su.shape.groups))
	for gi, gs := range su.shape.groups {
		var g *sdm.Group
		var err error
		if reopen {
			g, err = s.OpenGroup(gs.names)
		} else {
			attrs := sdm.MakeDatalist(gs.names...)
			for i := range attrs {
				attrs[i].GlobalSize = gs.globalN
			}
			g, err = s.SetAttributes(attrs)
		}
		if err != nil {
			return nil, err
		}
		if _, err := g.DataView(gs.names, su.ranks[rank].maps[gi]); err != nil {
			return nil, err
		}
		out[gi].g = g
		out[gi].ds = make([]*sdm.Dataset[float64], len(gs.names))
		for j, name := range gs.names {
			if out[gi].ds[j], err = sdm.DatasetOf[float64](g, name); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// runCheckpoints is the checkpoint phase: every rank writes `steps`
// cross-group checkpoints (split-collective flushes, up to `depth` in
// flight), drains, and optionally reads every checkpoint back into the
// set-up's read targets. Bandwidths are user bytes over the maximum
// rank virtual time, as in Figures 6 and 7.
func runCheckpoints(cl *sdm.Cluster, su *setup, readBack bool) (ckptResult, error) {
	var res ckptResult
	var mu sync.Mutex
	sh := &su.shape
	fail := func(err error) { panic(err) } // Cluster.Run turns a rank panic into its error
	err := cl.Run(func(p *sdm.Proc) {
		s, err := p.Initialize(sh.app, sdm.Options{
			Organization: sh.level, StepPipelineDepth: sh.depth,
		})
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := s.Finalize(); err != nil {
				fail(err)
			}
		}()
		rd := &su.ranks[p.Rank()]
		groups, err := openGroups(s, su, p.Rank(), false)
		if err != nil {
			fail(err)
		}

		p.Comm.Barrier()
		t0 := p.Comm.Now()
		for step := 0; step < sh.steps; step++ {
			if err := s.BeginStep(sh.timestep(step)); err != nil {
				fail(err)
			}
			for gi := range groups {
				for j, d := range groups[gi].ds {
					if err := d.Put(rd.base[gi][su.bufIndex(gi, j, step)]); err != nil {
						fail(err)
					}
				}
			}
			if _, err := s.EndStepAsync(); err != nil {
				fail(err)
			}
		}
		if err := s.DrainSteps(); err != nil {
			fail(err)
		}
		p.Comm.Barrier()
		t1 := p.Comm.Now()
		if readBack {
			for step := 0; step < sh.steps; step++ {
				if err := s.BeginStep(sh.timestep(step)); err != nil {
					fail(err)
				}
				for gi := range groups {
					for j, d := range groups[gi].ds {
						if err := d.Get(rd.read[step][gi][j]); err != nil {
							fail(err)
						}
					}
				}
				if err := s.EndStep(); err != nil {
					fail(err)
				}
			}
		}
		p.Comm.Barrier()
		t2 := p.Comm.Now()

		writeSec := p.Comm.AllreduceFloat64(t1.Sub(t0).Seconds(), mpi.OpMax)
		readSec := p.Comm.AllreduceFloat64(t2.Sub(t1).Seconds(), mpi.OpMax)
		if p.Rank() == 0 {
			totalMB := float64(sh.steps) * float64(sh.userBytesPerStep()) / 1e6
			mu.Lock()
			res.runID = s.RunID()
			res.simWriteSec = writeSec
			res.simWriteMBps = totalMB / writeSec
			if readBack {
				res.simReadSec = readSec
				res.simReadMBps = totalMB / readSec
			}
			mu.Unlock()
		}
	})
	return res, err
}

// verifyReadBack compares the read-back targets of steps first..last
// with what those steps wrote and clears them for the next use. It
// returns the number of buffers compared and how many differed.
func verifyReadBack(su *setup, first int) (attempted, failed int) {
	for r := range su.ranks {
		rd := &su.ranks[r]
		for step := first; step < len(rd.read); step++ {
			for gi := range rd.read[step] {
				for j, got := range rd.read[step][gi] {
					attempted++
					if !equalFloats(got, rd.base[gi][su.bufIndex(gi, j, step)]) {
						failed++
					}
					clear(got)
				}
			}
		}
	}
	return attempted, failed
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// restartRead is the second half of a restart: on a cluster opened
// from a bundle, every rank attaches to the saved run, reopens its
// groups through the catalog and reads the last restartSteps
// checkpoints into their read targets.
func restartRead(cl *sdm.Cluster, su *setup, runID int64) error {
	sh := &su.shape
	return cl.Run(func(p *sdm.Proc) {
		s, err := p.Initialize(sh.app, sdm.Options{Organization: sh.level, AttachRun: runID})
		if err != nil {
			panic(err)
		}
		defer func() {
			if err := s.Finalize(); err != nil {
				panic(err)
			}
		}()
		groups, err := openGroups(s, su, p.Rank(), true)
		if err != nil {
			panic(err)
		}
		rd := &su.ranks[p.Rank()]
		for step := sh.steps - su.wl.restartSteps; step < sh.steps; step++ {
			if err := s.BeginStep(sh.timestep(step)); err != nil {
				panic(err)
			}
			for gi := range groups {
				for j, d := range groups[gi].ds {
					if err := d.Get(rd.read[step][gi][j]); err != nil {
						panic(err)
					}
				}
			}
			if err := s.EndStep(); err != nil {
				panic(err)
			}
		}
	})
}

// describe is a one-line summary of the application for the log.
func (su *setup) describe() string {
	sh := &su.shape
	return fmt.Sprintf("%s nx=%d nodes=%d ranks=%d %v steps=%d depth=%d datasets=%d user_MB_per_step=%.3f",
		sh.app, su.wl.nx, su.f3d.Mesh.NumNodes(), su.wl.procs, sh.level, sh.steps, sh.depth, sh.datasets(),
		float64(sh.userBytesPerStep())/1e6)
}
