package core

import (
	"fmt"
	"slices"

	"sdm/internal/catalog"
	"sdm/internal/mpiio"
	"sdm/internal/obs"
	"sdm/internal/sim"
)

// Step-scoped deferred I/O: BeginStep opens an epoch on a group,
// Dataset.Put/Get record operations zero-copy against the caller's
// slices, and EndStep flushes everything queued in one merged
// collective per file — one extent agreement, one all-to-all, and
// coalesced file requests across the step's datasets, with the whole
// epoch's execution-table rows recorded in one rank-0 database batch.
// This file holds a group's half of the flush (stage, issue per file,
// resolve, deliver); step.go's endStep drives it.
//
// A single-operation epoch issues exactly the pre-epoch Write/Read
// sequence's file-system requests and catalog statements, with the same
// bytes; its execution-table row is recorded while the write is in
// flight instead of after it, so it never finishes later. The
// differential tests in epoch_test.go pin both.

// pendingPut is one queued deferred write. encode performs the fused
// permute-and-serialize from the caller's values into a file-order
// byte slice of the step's staging arena; it runs at EndStep, so the
// caller's slice must stay valid (and unmodified) until then.
type pendingPut struct {
	di     int
	bytes  int64
	file   string // target file, resolved once at queue time
	encode func(v *View, dst []byte)
}

// pendingGet is one queued deferred read. decode scatters file-order
// bytes back into the caller's slice when the get flush delivers.
type pendingGet struct {
	di     int
	bytes  int64
	decode func(v *View, src []byte)
}

// stepEpoch is a group's open deferred step, plus the flush scratch
// reused across epochs (staging arena, placement lists, batch-op and
// record buffers). Queueing still costs one small closure per Put/Get;
// the bulk staging and collective plumbing beneath is allocation-free
// in steady state.
type stepEpoch struct {
	open     bool
	managed  bool // opened by a Manager-level cross-group step
	timestep int64
	puts     []pendingPut
	gets     []pendingGet

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

// BeginStep opens a deferred-I/O epoch for one timestep of the group
// (the paper's Level-3 rationale made first-class: a whole step's
// datasets amortize one collective). Every rank must open and close the
// same epochs with the same queued dataset sequence. An epoch is
// per-group; opening a second epoch before EndStep is an error.
// Asynchronous flushes from earlier epochs may still be outstanding:
// the new epoch queues into a fresh (pooled) staging arena, and any
// file-level conflict with an in-flight flush is resolved at flush
// time by waiting on the conflicting token.
func (g *Group) BeginStep(timestep int64) error {
	if g.ep.open {
		return fmt.Errorf("core: BeginStep(%d) with step %d already open", timestep, g.ep.timestep)
	}
	g.openStep(timestep, false)
	return nil
}

// openStep resets the epoch for a new timestep. managed marks epochs
// opened (and owned) by a Manager-level cross-group step.
func (g *Group) openStep(timestep int64, managed bool) {
	g.ep.open = true
	g.ep.managed = managed
	g.ep.timestep = timestep
	g.ep.puts = g.ep.puts[:0]
	g.ep.gets = g.ep.gets[:0]
}

// cancelStep drops an open epoch and everything queued in it, used
// when queueing fails partway through a convenience wrapper. Queued
// entries are zeroed so their closures (and the caller slices they
// capture) do not stay reachable through the reusable backing arrays.
// Staging arenas not adopted by a token go back to the pool.
func (g *Group) cancelStep() {
	g.ep.open = false
	g.ep.managed = false
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

// prepareOp validates a queue request: the epoch must be open, the
// dataset registered, a view installed, and the element count must
// match the view.
func (g *Group) prepareOp(verb, dataset string, n int) (int, *View, error) {
	if !g.ep.open {
		return 0, nil, fmt.Errorf("core: %s on dataset %q outside a BeginStep/EndStep epoch", verb, dataset)
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
		di: di, bytes: int64(n) * v.elemSize, file: g.fileFor(di, g.ep.timestep), encode: encode,
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
	g.ep.gets = append(g.ep.gets, pendingGet{di: di, bytes: int64(n) * v.elemSize, decode: decode})
	return nil
}

// EndStep closes the epoch and flushes it synchronously: all queued
// puts first (one merged collective write per touched file, one batched
// execution-table insert), then all queued gets (one batched placement
// lookup, one merged collective read per file, then the decodes back
// into the callers' slices). Collective whenever anything was queued;
// an empty epoch costs nothing. EndStep is exactly
// EndStepAsync().Wait(): the split-collective path with the wait issued
// immediately, pinned bit-identical by the differential tests.
func (g *Group) EndStep() error {
	tok, err := g.EndStepAsync()
	if err != nil {
		return err
	}
	return tok.Wait()
}

// oneOpEpoch wraps a single queued operation in its own
// BeginStep/EndStep epoch — the shape beneath the typed handles'
// PutAt/GetAt. A failed enqueue cancels the epoch; a failed BeginStep
// (epoch already open) leaves the caller's epoch untouched.
func (g *Group) oneOpEpoch(timestep int64, op func() error) error {
	if err := g.BeginStep(timestep); err != nil {
		return err
	}
	if err := op(); err != nil {
		g.cancelStep()
		return err
	}
	return g.EndStep()
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

// stagePuts performs the staging half of a put flush: it places every
// queued put (allocating slabs in queue order, exactly as the same
// sequence of one-operation epochs would), then fuses each put's permutation
// and serialization straight into the epoch arena, charging the
// memory-copy cost the staged bytes represent. It fills g.ep.placed and
// g.ep.recs.
func (g *Group) stagePuts() {
	puts := g.ep.puts
	ts := g.ep.timestep
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
		v := g.views[a.Name]
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

// stageGets carves the read arena and computes each dataset's view
// position; it fills g.ep.placed (placed[i] serves dis[i]) and
// g.ep.readArena.
func (g *Group) stageGets(dis []int, recs []catalog.WriteRecord) {
	var total int64
	for _, di := range dis {
		v := g.views[g.attrs[di].Name]
		total += int64(v.LocalSize()) * v.elemSize
	}
	if g.ep.readArena != nil {
		g.s.putArena(g.ep.readArena)
	}
	g.ep.readArena = g.s.takeArena(total)
	arena := g.ep.readArena
	placed := g.ep.placed[:0]
	var cur int64
	for i, di := range dis {
		v := g.views[g.attrs[di].Name]
		rec := recs[i]
		disp, off := g.viewPos(v, rec.FileOffset)
		n := int64(v.LocalSize()) * v.elemSize
		buf := arena[cur : cur+n]
		cur += n
		placed = append(placed, placedOp{file: rec.FileName, v: v, disp: disp, off: off, data: buf, bytes: n, idx: i})
	}
	g.ep.placed = placed
}

// issueGets is the issue half of the group's get flush: datasets dis of
// timestep ts, for token tok, their files placed by the step's cursor
// cur. It returns the join time (the latest file completion) with the
// clock left at the fork point and the staged reads in g.ep.placed /
// g.ep.readArena.
func (g *Group) issueGets(tok *StepToken, ts int64, dis []int, cur *mpiio.Cursor) (sim.Time, error) {
	recs, err := g.resolveGets(tok, ts, dis)
	if err != nil {
		return g.s.env.Comm.Clock().Now(), err
	}
	g.stageGets(dis, recs)
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
