package core

import (
	"fmt"
	"slices"

	"sdm/internal/catalog"
	"sdm/internal/mpiio"
	"sdm/internal/obs"
	"sdm/internal/sim"
)

// Step-scoped deferred I/O: SDM.BeginStep opens a step, Dataset.Put/Get
// record operations zero-copy against the caller's slices into their
// group's epoch, and EndStep flushes everything queued in one merged
// collective per file — one extent agreement, one all-to-all, and
// coalesced file requests across the step's datasets, with the whole
// step's execution-table rows recorded in one rank-0 database batch.
// This file holds a group's half of the flush (stage, issue per file,
// resolve, deliver); step.go's EndStepAsync drives it.
//
// A single-operation step issues exactly the pre-epoch Write/Read
// sequence's file-system requests and catalog statements, with the same
// bytes; its execution-table row is recorded while the write is in
// flight instead of after it, so it never finishes later. The
// differential tests in epoch_test.go pin both.

// pendingPut is one queued deferred write. encode performs the fused
// permute-and-serialize from the caller's values into a file-order
// byte slice of the step's staging arena through v, the view installed
// when the Put was queued; it runs at EndStep, so the caller's slice
// must stay valid (and unmodified) until then.
type pendingPut struct {
	di     int
	v      *View
	bytes  int64
	file   string // target file, resolved once at queue time
	encode func(v *View, dst []byte)
}

// pendingGet is one queued deferred read. decode scatters file-order
// bytes, read through v (the view installed when the Get was queued),
// back into the caller's slice when the get flush delivers.
type pendingGet struct {
	di     int
	v      *View
	decode func(v *View, src []byte)
}

// stepEpoch is a group's share of the open step — its queued puts and
// gets — plus the flush scratch reused across steps (staging arena,
// placement lists, batch-op and record buffers). Queueing still costs
// one small closure per Put/Get; the bulk staging and collective
// plumbing beneath is allocation-free in steady state.
type stepEpoch struct {
	puts []pendingPut
	gets []pendingGet

	// Flush staging arenas, checked out of the manager's arena pool at
	// staging time and owned by the step token until Wait returns them
	// (so N in-flight flushes keep N live snapshots while the pool
	// recycles joined ones), plus flush scratch reused across epochs.
	arena     []byte
	readArena []byte
	placed    []placedOp
	ops       []mpiio.BatchOp
	recs      []catalog.WriteRecord
	keys      []writeKey
	resolved  []catalog.WriteRecord
	lookup    []catalog.WriteKey
	fileOrd   []string
}

// placedOp is a queued operation after placement: where it lands and
// the arena slice holding (writes) or receiving (reads) its file-order
// bytes.
type placedOp struct {
	file  string
	v     *View
	disp  int64
	off   int64
	data  []byte
	bytes int64
	idx   int // index into puts/gets, for decode
}

// cancelStep drops everything queued in the group's epoch: at every
// step's close, and when queueing fails partway through a one-call
// step. Queued entries are zeroed so their closures (and the caller
// slices they capture) do not stay reachable through the reusable
// backing arrays. Staging arenas not adopted by a token go back to the
// pool.
func (g *Group) cancelStep() {
	clear(g.ep.puts)
	clear(g.ep.gets)
	g.ep.puts = g.ep.puts[:0]
	g.ep.gets = g.ep.gets[:0]
	if g.ep.arena != nil {
		g.s.putArena(g.ep.arena)
		g.ep.arena = nil
	}
	if g.ep.readArena != nil {
		g.s.putArena(g.ep.readArena)
		g.ep.readArena = nil
	}
}

// prepareOp validates a queue request: a step must be open and must
// have opened the group (a group registered after BeginStep joins the
// next step), the dataset registered, a view installed, and the element
// count must match the view. The view returned is the one the operation
// flushes through, whatever DataView installs before EndStep.
func (g *Group) prepareOp(verb, dataset string, n int) (int, *View, error) {
	st := &g.s.step
	if !st.open {
		return 0, nil, fmt.Errorf("core: %s on dataset %q outside a BeginStep/EndStep step", verb, dataset)
	}
	if g.idx >= len(st.groups) {
		return 0, nil, fmt.Errorf("core: %s on dataset %q of a group registered after BeginStep(%d); the group joins the next step",
			verb, dataset, st.timestep)
	}
	di, ok := g.byName[dataset]
	if !ok {
		return 0, nil, fmt.Errorf("core: no dataset %q in group", dataset)
	}
	v, ok := g.views[dataset]
	if !ok {
		return 0, nil, fmt.Errorf("core: no view installed for dataset %q", dataset)
	}
	if n != v.LocalSize() {
		return 0, nil, fmt.Errorf("core: dataset %q %s has %d elements, view maps %d",
			dataset, verb, n, v.LocalSize())
	}
	return di, v, nil
}

// enqueuePut queues a deferred write of n view-mapped elements whose
// file-order bytes encode will produce at flush time.
func (g *Group) enqueuePut(dataset string, n int, encode func(v *View, dst []byte)) error {
	di, v, err := g.prepareOp("Put", dataset, n)
	if err != nil {
		return err
	}
	g.ep.puts = append(g.ep.puts, pendingPut{
		di: di, v: v, bytes: int64(n) * v.elemSize, file: g.fileFor(di, g.s.step.timestep), encode: encode,
	})
	return nil
}

// enqueueGet queues a deferred read of n view-mapped elements to be
// scattered through decode at flush time.
func (g *Group) enqueueGet(dataset string, n int, decode func(v *View, src []byte)) error {
	di, v, err := g.prepareOp("Get", dataset, n)
	if err != nil {
		return err
	}
	g.ep.gets = append(g.ep.gets, pendingGet{di: di, v: v, decode: decode})
	return nil
}

// groupByFile partitions placed operations by target file, preserving
// first-touch order (deterministic across ranks, since epochs queue
// the same dataset sequence everywhere). It returns the file order;
// callers then iterate placed ops per file in queue order.
func (g *Group) groupByFile(placed []placedOp) []string {
	ord := g.ep.fileOrd[:0]
	for i := range placed {
		seen := false
		for _, f := range ord {
			if f == placed[i].file {
				seen = true
				break
			}
		}
		if !seen {
			ord = append(ord, placed[i].file)
		}
	}
	g.ep.fileOrd = ord
	return ord
}

// opsForFile builds one file's share of the epoch batch in queue
// order: each placed op installs its view on the open file (a rank pays
// for a view only at its first install) and contributes one BatchOp.
// The returned slice lives in the epoch's reusable ops scratch.
func (g *Group) opsForFile(of *openFile, placed []placedOp, file string) []mpiio.BatchOp {
	ops := g.ep.ops[:0]
	for i := range placed {
		if placed[i].file != file {
			continue
		}
		of.f.SetView(placed[i].disp, placed[i].v.dtype)
		ops = append(ops, mpiio.BatchOp{
			Disp: placed[i].disp, Type: placed[i].v.dtype,
			Off: placed[i].off, Data: placed[i].data,
		})
	}
	g.ep.ops = ops
	return ops
}

// closeIfLevel1 closes and forgets the file under Level-1 organization
// (one file per write). The file's I/O scratch bundle returns to the
// group's pool.
func (g *Group) closeIfLevel1(of *openFile, file string) error {
	if g.s.opts.Organization != Level1 {
		return nil
	}
	if err := of.f.Close(); err != nil {
		return err
	}
	g.scratch.Put(of.sc)
	of.sc = nil
	delete(g.files, file)
	return nil
}

// stagePuts performs the staging half of a put flush at timestep ts: it
// places every queued put (allocating slabs in queue order, exactly as
// the same sequence of one-operation steps would), then fuses each put's
// permutation and serialization straight into the epoch arena through
// the put's queued view, charging the memory-copy cost the staged bytes
// represent. It fills g.ep.placed and g.ep.recs.
func (g *Group) stagePuts(ts int64) {
	puts := g.ep.puts
	clock := g.s.env.Comm.Clock()
	t0 := clock.Now()
	var total int64
	for i := range puts {
		total += puts[i].bytes
	}
	g.s.stagedBytes.Add(total)
	if g.ep.arena != nil {
		g.s.putArena(g.ep.arena)
	}
	g.ep.arena = g.s.takeArena(total)
	arena := g.ep.arena
	placed := g.ep.placed[:0]
	recs := g.ep.recs[:0]
	var cur int64
	for i := range puts {
		p := &puts[i]
		a := g.attrs[p.di]
		v := p.v
		file := p.file
		physOff := g.place(file, a.GlobalSize*a.Type.Size())
		dst := arena[cur : cur+p.bytes]
		cur += p.bytes
		p.encode(v, dst)
		g.s.env.Comm.ComputeItems(p.bytes, memCopyRate)
		disp, off := g.viewPos(v, physOff)
		placed = append(placed, placedOp{file: file, v: v, disp: disp, off: off, data: dst, idx: i})
		recs = append(recs, catalog.WriteRecord{
			RunID: g.s.runID, Dataset: a.Name, Timestep: ts,
			FileOffset: physOff, FileName: file,
		})
	}
	g.ep.placed = placed
	g.ep.recs = recs
	if tr := g.s.tracer; tr != nil {
		tr.Emit(g.s.pid(), "core", "stage", t0, clock.Now(),
			obs.KV{Key: "step", Val: fmt.Sprint(ts)},
			obs.KV{Key: "puts", Val: fmt.Sprint(len(puts))},
			obs.KV{Key: "bytes", Val: fmt.Sprint(total)})
	}
}

// viewPos is where a slab at byte offset fileOff of its file sits for
// view v, as the view displacement and the offset within the view: in a
// uniform group a slab on the group's slab grid is the view's n-th tile
// (disp 0, so consecutive slabs share one installed view); anything
// else — a mixed group, or a slab off this group's grid (written by a
// differently-shaped group and reopened as a subset) — is
// byte-addressed by the displacement.
func (g *Group) viewPos(v *View, fileOff int64) (disp, off int64) {
	if g.uniform && fileOff%g.slabSize == 0 {
		return 0, fileOff / g.slabSize * int64(v.LocalSize()) * v.elemSize
	}
	return fileOff, 0
}

// issueFiles issues one merged collective per file g.ep.placed touches
// — writes when write is set, reads otherwise — each file placed by the
// step's cursor cur in groupByFile order, and each on a sub-timeline
// forked from the clock's current position: different files flow
// through different collectives concurrently in virtual time, shared
// PFS servers serializing where they collide. Opening the file and
// installing views are blocking metadata operations (MPI_File_open is a
// synchronous collective): they charge the main timeline. Only the data
// collective — and, for level 1, the close that must follow it — runs
// on the fork. It returns the join time (the latest file completion)
// with the clock left at the fork point; the caller joins with
// AdvanceTo. No clearing is needed on reads: the views' segments
// partition each request, so the collective (and the zero-filling
// vectored fallback) overwrite every byte.
//
// If a file fails partway through, its partial charges still
// happened-before the join. On writes the files already flushed have
// their bytes on disk: g.ep.recs is trimmed to those files so the caller
// records them anyway and the data stays reachable, exactly as one
// epoch per write would have recorded each successful write before a
// later one failed.
func (g *Group) issueFiles(ts int64, write bool, cur *mpiio.Cursor) (sim.Time, error) {
	clock := g.s.env.Comm.Clock()
	join := clock.Now()
	placed := g.ep.placed
	files := g.groupByFile(placed)
	for n, file := range files {
		of, err := g.open(file, cur)
		fork := clock.Now()
		if err == nil {
			ops := g.opsForFile(of, placed, file)
			fork = clock.Now()
			if write {
				err = of.f.WriteAtAllOps(ops)
			} else {
				err = of.f.ReadAtAllOps(ops)
			}
		}
		if err == nil {
			err = g.closeIfLevel1(of, file)
		}
		if err != nil {
			if write {
				g.ep.recs = slices.DeleteFunc(g.ep.recs, func(r catalog.WriteRecord) bool {
					return !slices.Contains(files[:n], r.FileName)
				})
			}
			return sim.MaxTime(join, clock.Now()), err
		}
		if tr := g.s.tracer; tr != nil {
			name := "flush:read"
			if write {
				name = "flush:write"
			}
			tr.Emit(g.s.pid(), "core", name, fork, clock.Now(),
				obs.KV{Key: "file", Val: file},
				obs.KV{Key: "step", Val: fmt.Sprint(ts)})
		}
		if write {
			g.s.flushedFiles.Add(1)
		}
		join = sim.MaxTime(join, clock.Now())
		clock.Rebase(fork)
	}
	return join, nil
}

// cacheWrites adds the staged records to the group's placement index,
// so same-session reads resolve placements without a catalog round trip.
func (g *Group) cacheWrites() {
	for i := range g.ep.recs {
		g.index.add(g.ep.recs[i])
	}
}

// lookupPlacements resolves where each queued (dataset, timestep) slab
// lives: the rank-local placement index first, then one batched rank-0
// catalog query (served by the execution table's composite index)
// broadcast to all ranks. The result is in key order.
func (g *Group) lookupPlacements(keys []writeKey) ([]catalog.WriteRecord, error) {
	out := g.ep.resolved[:0]
	missing := 0
	for _, k := range keys {
		rec, ok := g.index.recs[k]
		if !ok {
			missing++
		}
		out = append(out, rec)
	}
	g.ep.resolved = out
	if missing == 0 {
		return out, nil
	}
	type wire struct {
		Recs []catalog.WriteRecord
		Err  string
	}
	var w wire
	if g.s.env.Comm.Rank() == 0 {
		lk := g.ep.lookup[:0]
		for _, k := range keys {
			if _, ok := g.index.recs[k]; !ok {
				lk = append(lk, catalog.WriteKey{Dataset: k.dataset, Timestep: k.timestep})
			}
		}
		g.ep.lookup = lk
		recs, err := g.s.env.Catalog.LookupWrites(g.s.env.Comm.Clock(), g.s.runID, lk)
		if err != nil {
			w.Err = err.Error()
		} else {
			for i, rec := range recs {
				if rec == nil {
					w.Err = fmt.Sprintf("core: no execution_table entry for dataset %q timestep %d",
						lk[i].Dataset, lk[i].Timestep)
					break
				}
				w.Recs = append(w.Recs, *rec)
			}
		}
	}
	res := g.s.env.Comm.Bcast(0, w, int64(missing)*64).(wire)
	if res.Err != "" {
		return nil, fmt.Errorf("%s", res.Err)
	}
	fill := 0
	for i, k := range keys {
		if _, ok := g.index.recs[k]; !ok {
			out[i] = res.Recs[fill]
			fill++
		}
	}
	return out, nil
}

// A get flush has two halves. Issue resolves where each dataset's slab
// lives, carves a read arena and issues one merged collective read per
// touched file (open and view charges on the main timeline, the data
// collectives forked); it needs only the dataset list and the timestep.
// Deliver joins the collectives and decodes the arena into the
// caller's slices. EndStep runs them back to back; a read-ahead
// (step.go) is an issue for a future timestep whose deliver runs when
// the application's Get step for that timestep arrives.

// getPart is one group's share of a get flush: the datasets read, in
// queue order.
type getPart struct {
	g   *Group
	dis []int
}

// bytes is the size of the part's read: its datasets' global slabs, the
// same on every rank.
func (p *getPart) bytes() int64 {
	var n int64
	for _, di := range p.dis {
		a := &p.g.attrs[di]
		n += a.GlobalSize * a.Type.Size()
	}
	return n
}

// resolveGets looks up where each dataset's slab of timestep ts lives
// (placement index, then one batched catalog query) and resolves reads
// landing in files with an asynchronous flush in flight from another
// token: the conflicting token is implicitly waited. tok is the flush
// being issued; its own claims — a put and a get of one file in the same epoch — are fine.
func (g *Group) resolveGets(tok *StepToken, ts int64, dis []int) ([]catalog.WriteRecord, error) {
	keys := g.ep.keys[:0]
	for _, di := range dis {
		keys = append(keys, writeKey{g.attrs[di].Name, ts})
	}
	g.ep.keys = keys
	recs, err := g.lookupPlacements(keys)
	if err != nil {
		return nil, err
	}
	for i := range recs {
		if err := g.s.awaitFile(recs[i].FileName, tok); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// stageGets carves the read arena and computes each read's position in
// the view its get was queued with — recs[i] holds the slab of
// g.ep.gets[i]; it fills g.ep.placed (placed[i] serves g.ep.gets[i]) and
// g.ep.readArena.
func (g *Group) stageGets(recs []catalog.WriteRecord) {
	gets := g.ep.gets
	var total int64
	for i := range gets {
		total += int64(gets[i].v.LocalSize()) * gets[i].v.elemSize
	}
	if g.ep.readArena != nil {
		g.s.putArena(g.ep.readArena)
	}
	g.ep.readArena = g.s.takeArena(total)
	arena := g.ep.readArena
	placed := g.ep.placed[:0]
	var cur int64
	for i := range gets {
		v := gets[i].v
		rec := recs[i]
		disp, off := g.viewPos(v, rec.FileOffset)
		n := int64(v.LocalSize()) * v.elemSize
		buf := arena[cur : cur+n]
		cur += n
		placed = append(placed, placedOp{file: rec.FileName, v: v, disp: disp, off: off, data: buf, bytes: n, idx: i})
	}
	g.ep.placed = placed
}

// issueGets is the issue half of the group's get flush: datasets dis —
// those of the step's queued gets — at timestep ts, for token tok, their
// files placed by the step's cursor cur. It returns the join time (the
// latest file completion) with the clock left at the fork point and the
// staged reads in g.ep.placed / g.ep.readArena.
func (g *Group) issueGets(tok *StepToken, ts int64, dis []int, cur *mpiio.Cursor) (sim.Time, error) {
	recs, err := g.resolveGets(tok, ts, dis)
	if err != nil {
		return g.s.env.Comm.Clock().Now(), err
	}
	g.stageGets(recs)
	return g.issueFiles(ts, false, cur)
}

// deliverGets is the group's share of the deliver half, after the join:
// it scatters the file-order bytes of placed (this flush's, or an
// adopted read-ahead's) into the slices of the epoch's queued gets,
// charging the memory-copy cost of each permutation.
func (g *Group) deliverGets(placed []placedOp) {
	for i := range placed {
		g.ep.gets[placed[i].idx].decode(placed[i].v, placed[i].data)
		g.s.env.Comm.ComputeItems(placed[i].bytes, memCopyRate)
	}
}
