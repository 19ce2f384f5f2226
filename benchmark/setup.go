package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"sdm"
	"sdm/internal/workloads"
)

// groupShape is one data group of the application: datasets of one
// global size sharing one view.
type groupShape struct {
	names   []string
	globalN int64
	// owned groups use the irregular view of the nodes the partitioner
	// gave the rank; the others are divided into contiguous blocks.
	owned bool
}

// appShape is everything the checkpoint driver needs to know about an
// application: its groups and how it steps.
type appShape struct {
	app    string // run_table application name, also the file-name prefix
	level  sdm.FileOrganization
	steps  int
	depth  int
	stride int64 // timestep of step i is i*stride
	groups []groupShape
}

// userBytesPerStep is what the application hands SDM at one checkpoint.
func (a *appShape) userBytesPerStep() int64 {
	var n int64
	for _, g := range a.groups {
		n += int64(len(g.names)) * g.globalN * 8
	}
	return n
}

// datasets is the application's dataset count.
func (a *appShape) datasets() int {
	n := 0
	for _, g := range a.groups {
		n += len(g.names)
	}
	return n
}

func (a *appShape) timestep(step int) int64 { return int64(step) * a.stride }

// fun3dShape is Figure 6's write group: p, q, r, w on the nodes and a
// five-times-larger flux array, checkpointed every tenth timestep.
func fun3dShape(nNodes int64, level sdm.FileOrganization, steps, depth int) appShape {
	return appShape{
		app: "fun3d", level: level, steps: steps, depth: depth, stride: 10,
		groups: []groupShape{
			{names: []string{"p", "q", "r", "w"}, globalN: nNodes, owned: true},
			{names: []string{"flux"}, globalN: 5 * nNodes},
		},
	}
}

// rtShape is Figure 7's checkpoint: a node dataset ordered by global
// node number and a contiguous boundary-triangle dataset.
func rtShape(nNodes, nTris int64, level sdm.FileOrganization, steps, depth int) appShape {
	return appShape{
		app: "rt", level: level, steps: steps, depth: depth, stride: 1,
		groups: []groupShape{
			{names: []string{"node"}, globalN: nNodes, owned: true},
			{names: []string{"tri"}, globalN: nTris},
		},
	}
}

// metaShape is one group of n node-sized datasets.
func metaShape(nNodes int64, n int, level sdm.FileOrganization, steps, depth int) appShape {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("v%02d", i)
	}
	return appShape{
		app: "meta", level: level, steps: steps, depth: depth, stride: 1,
		groups: []groupShape{{names: names, globalN: nNodes, owned: true}},
	}
}

// boundaryTriangles is the boundary-triangle count of the nx^3
// tetrahedral grid (two per boundary quad), which mesh.RT derives by
// walking the tetrahedra; the driver-equivalence test pins the two
// against each other.
func boundaryTriangles(nx int) int64 { return 12 * int64(nx) * int64(nx) }

// rankData is one rank's application memory, all of it built in
// set-up so the timed checkpoint loop contains no benchmark work.
type rankData struct {
	maps [][]int32       // [group] map array
	base [][][]float64   // [group][buf] values in map-array order
	read [][][][]float64 // [step][group][dataset] read-back targets
}

// setup is a workload's generated input.
type setup struct {
	wl      workload
	f3d     *workloads.FUN3D
	partVec []int32
	shape   appShape
	ranks   []rankData
	// global holds, per group and buffer, the little-endian bytes of
	// the global array — what a file or a served range must contain.
	global [][][]byte
	// nBufs is how many distinct global arrays each group cycles
	// through.
	nBufs []int
}

// bufIndex says which of a group's buffers dataset j holds at a step:
// datasets of one step differ, and so do consecutive steps of one
// dataset.
func (su *setup) bufIndex(group, j, step int) int {
	return (j + step*len(su.shape.groups[group].names)) % su.nBufs[group]
}

// expected returns the bytes the global array of (group, dataset j) at
// a step must hold.
func (su *setup) expected(group, j, step int) []byte {
	return su.global[group][su.bufIndex(group, j, step)]
}

// xorshift is the benchmark's seeded generator (sim.RNG belongs to the
// program under test).
type xorshift uint64

func newRNG(seed uint64) *xorshift {
	x := xorshift(seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
	if x == 0 {
		x = 1
	}
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// blockRange is the contiguous equal division of n elements.
func blockRange(n int64, size, rank int) (start, count int64) {
	per, rem := n/int64(size), n%int64(size)
	start = int64(rank)*per + min(int64(rank), rem)
	count = per
	if int64(rank) < rem {
		count++
	}
	return start, count
}

// perturbedNodes is how many nodes the seed moves to another rank.
const perturbedNodes = 32

// buildSetup generates a workload's inputs from the seed: the mesh,
// the partitioning vector, the application's field values (12 random
// bits per value, so flate has something to find), the per-rank
// buffers and the read-back targets. It does no I/O; staging the mesh
// file is the caller's next step.
//
// The partitioner itself runs with a fixed seed and the run's seed
// then moves a few nodes to other ranks. Different partitioner seeds
// give partitions whose edge cut — and with it the host work of every
// phase — differs by several percent, which would count as noise when
// runs with different seeds are compared as repeats; the perturbation
// keeps the work the same while no simulated time repeats digit for
// digit from seed to seed.
func buildSetup(wl workload, seed uint64) (*setup, error) {
	f3d, err := workloads.NewFUN3D(workloads.FUN3DConfig{NX: wl.nx, NY: wl.nx, NZ: wl.nx, Seed: 1})
	if err != nil {
		return nil, err
	}
	// PartVec hands out the vector it caches, so perturbing it in place
	// is what ImportAndPartition will see too; checked below.
	partVec, err := f3d.PartVec(wl.procs)
	if err != nil {
		return nil, err
	}
	rng := newRNG(seed ^ 0xA5A5)
	for i := 0; i < perturbedNodes; i++ {
		node := rng.intn(len(partVec))
		partVec[node] = (partVec[node] + 1 + int32(rng.intn(wl.procs-1))) % int32(wl.procs)
	}
	if again, err := f3d.PartVec(wl.procs); err != nil || &again[0] != &partVec[0] {
		return nil, fmt.Errorf("workloads.FUN3D.PartVec no longer returns its cached vector (err %v)", err)
	}
	nNodes := int64(f3d.Mesh.NumNodes())
	var shape appShape
	switch wl.app {
	case appFUN3D:
		shape = fun3dShape(nNodes, wl.level, wl.steps, wl.depth)
	case appRT:
		shape = rtShape(nNodes, boundaryTriangles(wl.nx), wl.level, wl.steps, wl.depth)
	case appMeta:
		shape = metaShape(nNodes, wl.metaDatasets, wl.level, wl.steps, wl.depth)
	}
	return buildBuffers(wl, f3d, partVec, shape, seed), nil
}

// buildBuffers fills in the application memory for a shape.
func buildBuffers(wl workload, f3d *workloads.FUN3D, partVec []int32, shape appShape, seed uint64) *setup {
	su := &setup{wl: wl, f3d: f3d, partVec: partVec, shape: shape}
	rng := newRNG(seed)

	// Global arrays.
	vals := make([][][]float64, len(shape.groups))
	su.global = make([][][]byte, len(shape.groups))
	su.nBufs = make([]int, len(shape.groups))
	for gi, g := range shape.groups {
		n := len(g.names) * shape.steps
		if wl.distinct > 0 && n > wl.distinct {
			n = max(wl.distinct, len(g.names)+1)
		}
		su.nBufs[gi] = n
		vals[gi] = make([][]float64, n)
		su.global[gi] = make([][]byte, n)
		for k := 0; k < n; k++ {
			v := make([]float64, g.globalN)
			b := make([]byte, g.globalN*8)
			for i := range v {
				v[i] = float64(rng.next()&0xFFF)*0.125 + float64(k)
				binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v[i]))
			}
			vals[gi][k], su.global[gi][k] = v, b
		}
	}

	// Owned-node lists, exactly SDM_partition_table's result.
	owned := make([][]int32, wl.procs)
	for node, r := range partVec {
		owned[r] = append(owned[r], int32(node))
	}

	su.ranks = make([]rankData, wl.procs)
	for r := range su.ranks {
		rd := &su.ranks[r]
		rd.maps = make([][]int32, len(shape.groups))
		rd.base = make([][][]float64, len(shape.groups))
		for gi, g := range shape.groups {
			if g.owned {
				rd.maps[gi] = owned[r]
			} else {
				start, count := blockRange(g.globalN, wl.procs, r)
				m := make([]int32, count)
				for i := range m {
					m[i] = int32(start + int64(i))
				}
				rd.maps[gi] = m
			}
			rd.base[gi] = make([][]float64, su.nBufs[gi])
			for k := range rd.base[gi] {
				local := make([]float64, len(rd.maps[gi]))
				for i, g := range rd.maps[gi] {
					local[i] = vals[gi][k][g]
				}
				rd.base[gi][k] = local
			}
		}
		rd.read = make([][][][]float64, shape.steps)
		for s := range rd.read {
			rd.read[s] = make([][][]float64, len(shape.groups))
			for gi, g := range shape.groups {
				rd.read[s][gi] = make([][]float64, len(g.names))
				for j := range g.names {
					rd.read[s][gi][j] = make([]float64, len(rd.maps[gi]))
				}
			}
		}
	}
	return su
}
