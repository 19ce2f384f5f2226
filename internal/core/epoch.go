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

// pendingOp is one queued deferred Put or Get: the dataset, v, the view
// installed when it was queued (the one it flushes through, whatever
// DataView installs before EndStep), and vals, the caller's slice. A
// Put's bytes are encoded from vals into a file-order slice of the
// step's staging arena at EndStep, so the slice must stay valid (and
// unmodified) until then; it also carries its staged size and its
// target file, resolved once at queue time. A Get's file-order bytes are
// decoded back into vals when its file's collective completes.
type pendingOp struct {
	di    int
	v     *View
	vals  elems
	bytes int64
	file  string
}

// stepEpoch is a group's share of the open step — its queued puts and
// gets — plus the flush scratch reused across steps (staging arenas,
// placement lists, batch-op and record buffers). newGroup sizes the
// lists for one op per dataset, so a step that queues each dataset at
// most once — every step the applications take — never grows them, and
// queueing, staging and the collective plumbing beneath allocate
// nothing in steady state.
type stepEpoch struct {
	puts []pendingOp
	gets []pendingOp

	// Flush staging arenas, checked out of the manager's arena pool at
	// staging time and returned when the step closes (a read-ahead token
	// adopts its read arena instead), plus flush scratch reused across
	// epochs.
	arena     []byte
	readArena []byte
	placed    []placedOp
	ops       []mpiio.BatchOp
	recs      []catalog.WriteRecord
	fileOrd   []string
}

// newStepEpoch returns an epoch whose lists hold nd ops without growing;
// the puts and the gets share one backing array.
func newStepEpoch(nd int) stepEpoch {
	queued := make([]pendingOp, 2*nd)
	return stepEpoch{
		puts:    queued[:0:nd],
		gets:    queued[nd:nd],
		placed:  make([]placedOp, 0, nd),
		ops:     make([]mpiio.BatchOp, 0, nd),
		recs:    make([]catalog.WriteRecord, 0, nd),
		fileOrd: make([]string, 0, nd),
	}
}

// placedOp is a queued operation after placement: where it lands, the
// arena slice holding (writes) or receiving (reads) its file-order
// bytes, and when its file's collective completed. disp is the slab's
// execution-table byte offset, where its view is displaced to; the op
// moves the view's bytes from logical offset 0.
type placedOp struct {
	file string
	v    *View
	disp int64
	data []byte
	idx  int      // index into puts/gets, for encode and decode
	done sim.Time // completion of the file's collective, stamped by issueFiles
}

// cancelStep drops everything queued in the group's epoch: at every
// step's close, and when queueing fails partway through a one-call
// step. Queued entries are zeroed so the caller slices they hold do not
// stay reachable through the reusable backing arrays. Staging arenas not
// adopted by a read-ahead token go back to the pool.
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

// enqueue queues a deferred write (put) or read of n view-mapped
// elements, encoded from or decoded into vals at flush time.
func (g *Group) enqueue(put bool, dataset string, n int, vals elems) error {
	verb := "Get"
	if put {
		verb = "Put"
	}
	di, v, err := g.prepareOp(verb, dataset, n)
	if err != nil {
		return err
	}
	if !put {
		g.ep.gets = append(g.ep.gets, pendingOp{di: di, v: v, vals: vals})
		return nil
	}
	g.ep.puts = append(g.ep.puts, pendingOp{
		di: di, v: v, vals: vals, bytes: int64(n) * v.elemSize, file: g.fileFor(di, g.s.step.timestep),
	})
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
func (g *Group) opsForFile(f *mpiio.File, placed []placedOp, file string) []mpiio.BatchOp {
	ops := g.ep.ops[:0]
	for i := range placed {
		if placed[i].file != file {
			continue
		}
		f.SetView(placed[i].disp, placed[i].v.dtype)
		ops = append(ops, mpiio.BatchOp{Disp: placed[i].disp, Type: placed[i].v.dtype, Data: placed[i].data})
	}
	g.ep.ops = ops
	return ops
}

// closeIfLevel1 closes and forgets the file under Level-1 organization
// (one file per write) and keeps it as the group's spare. Callers close
// only a file whose collective succeeded: a failed one stays among the
// group's files until Finalize and is never reused.
func (g *Group) closeIfLevel1(f *mpiio.File, file string) error {
	if g.s.opts.Organization != Level1 {
		return nil
	}
	if err := f.Close(); err != nil {
		return err
	}
	delete(g.files, file)
	g.spare = f
	return nil
}

// stagePuts is the placement half of a put flush at timestep ts: it
// places every queued put (allocating slabs in queue order, exactly as
// the same sequence of one-operation steps would) and carves its slice
// of the epoch arena, filling g.ep.placed and g.ep.recs. The bytes are
// encoded later, file by file, just before each file's collective
// (encodeFile, from issueFiles).
func (g *Group) stagePuts(ts int64) {
	puts := g.ep.puts
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
		off := g.place(p.file, a.GlobalSize*a.Type.Size())
		dst := arena[cur : cur+p.bytes]
		cur += p.bytes
		placed = append(placed, placedOp{file: p.file, v: p.v, disp: off, data: dst, idx: i})
		recs = append(recs, catalog.WriteRecord{
			RunID: g.s.runID, Dataset: a.Name, Timestep: ts,
			FileOffset: off, FileName: p.file,
		})
	}
	g.ep.placed = placed
	g.ep.recs = recs
}

// encodeFile is the staging of one file's puts at timestep ts: each put
// placed in file has its permutation and serialization fused straight
// into its arena slice through the put's queued view, in queue order,
// charging the memory-copy cost the staged bytes represent.
func (g *Group) encodeFile(ts int64, file string) {
	clock := g.s.env.Comm.Clock()
	t0 := clock.Now()
	var puts, bytes int64
	for i := range g.ep.placed {
		p := &g.ep.placed[i]
		if p.file != file {
			continue
		}
		g.ep.puts[p.idx].vals.encode(p.v, p.data)
		g.s.env.Comm.ComputeItems(int64(len(p.data)), memCopyRate)
		puts++
		bytes += int64(len(p.data))
	}
	if tr := g.s.env.Trace; tr != nil {
		tr.Emit(g.s.pid(), "core", "stage", t0, clock.Now(),
			obs.KV{Key: "file", Val: file},
			obs.KV{Key: "step", Val: fmt.Sprint(ts)},
			obs.KV{Key: "puts", Val: fmt.Sprint(puts)},
			obs.KV{Key: "bytes", Val: fmt.Sprint(bytes)})
	}
}

// issueFiles issues one merged collective per file g.ep.placed touches
// — writes when write is set, reads otherwise — each file placed by the
// step's cursor cur in groupByFile order, and each on a sub-timeline
// forked from the clock's current position: different files flow
// through different collectives concurrently in virtual time, shared
// PFS servers serializing where they collide. A write first encodes
// the file's puts (encodeFile), so each file's collective forks right
// after its own staging and overlaps the next file's. Encoding, opening
// the file and installing views are main-timeline work (MPI_File_open
// is a synchronous collective). Only the data collective — and, for level 1,
// the close that must follow it — runs on the fork; its end is stamped
// on the file's placed ops (placedOp.done), which is when a read's
// bytes can be decoded. It returns the join time (the latest file
// completion) with the clock left at the fork point; the caller joins
// with AdvanceTo. No clearing is needed on reads: the views' segments
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
		if write {
			g.encodeFile(ts, file)
		}
		f, err := g.open(file, write, cur)
		fork := clock.Now()
		if err == nil {
			ops := g.opsForFile(f, placed, file)
			fork = clock.Now()
			if write {
				err = f.WriteAtAllOps(ops)
			} else {
				err = f.ReadAtAllOps(ops)
			}
		}
		if err == nil {
			err = g.closeIfLevel1(f, file)
		}
		if err != nil {
			if write {
				g.ep.recs = slices.DeleteFunc(g.ep.recs, func(r catalog.WriteRecord) bool {
					return !slices.Contains(files[:n], r.FileName)
				})
			}
			return sim.MaxTime(join, clock.Now()), err
		}
		done := clock.Now()
		for i := range placed {
			if placed[i].file == file {
				placed[i].done = done
			}
		}
		if tr := g.s.env.Trace; tr != nil {
			name := "flush:read"
			if write {
				name = "flush:write"
			}
			tr.Emit(g.s.pid(), "core", name, fork, done,
				obs.KV{Key: "file", Val: file},
				obs.KV{Key: "step", Val: fmt.Sprint(ts)})
		}
		if write {
			g.s.flushedFiles.Add(1)
		}
		join = sim.MaxTime(join, done)
		clock.Rebase(fork)
	}
	return join, nil
}

// cacheWrites adds the staged records to the group's placement index,
// where same-session reads resolve them.
func (g *Group) cacheWrites() {
	for i := range g.ep.recs {
		g.index.add(g.ep.recs[i])
	}
}

// A get flush has two halves. Issue resolves where each dataset's slab
// lives, carves a read arena and issues one merged collective read per
// touched file (open and view charges on the main timeline, the data
// collectives forked); it needs only the dataset list and the timestep.
// Deliver decodes the arena into the caller's slices file by file, each
// as its own collective completes (MPI_Waitany, not MPI_Waitall), so a
// file's decode overlaps the collectives still in flight. EndStep runs
// them back to back; a read-ahead (step.go) is an issue for a future
// timestep whose deliver runs when the application's Get step for that
// timestep arrives.

// getPart is one group's share of a get flush: the datasets read, in
// queue order, and once issued where their bytes land — placed[i] holds
// the file-order bytes of dataset dis[i]: the group's g.ep.placed for an
// ordinary flush, a read-ahead token's own copy for a read-ahead.
type getPart struct {
	g      *Group
	dis    []int
	placed []placedOp
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

// stageGets places the reads of datasets dis — those of g.ep.gets, in
// queue order — at timestep ts: it looks up where each dataset's slab
// lives from the group's placement index alone, joins any outstanding
// flush writing one of those files, then carves the read arena. It fills
// g.ep.placed (placed[i] serves g.ep.gets[i]) and g.ep.readArena.
// OpenGroup seeds the index with the run's rows and each step's writes
// extend it (cacheWrites), the same on every rank, so a miss fails every
// rank alike and no catalog statement is issued.
func (g *Group) stageGets(ts int64, dis []int) error {
	placed := g.ep.placed[:0]
	var total int64
	for i, di := range dis {
		rec, ok := g.index.recs[writeKey{g.attrs[di].Name, ts}]
		if !ok {
			return fmt.Errorf("core: no execution_table entry for dataset %q timestep %d", g.attrs[di].Name, ts)
		}
		v := g.ep.gets[i].v
		placed = append(placed, placedOp{file: rec.FileName, v: v, disp: rec.FileOffset, idx: i})
		total += int64(v.LocalSize()) * v.elemSize
	}
	g.ep.placed = placed
	for i := range placed {
		if err := g.s.awaitFile(placed[i].file); err != nil {
			return err
		}
	}
	if g.ep.readArena != nil {
		g.s.putArena(g.ep.readArena)
	}
	g.ep.readArena = g.s.takeArena(total)
	var cur int64
	for i := range placed {
		n := int64(placed[i].v.LocalSize()) * placed[i].v.elemSize
		placed[i].data = g.ep.readArena[cur : cur+n]
		cur += n
	}
	return nil
}

// issueGets is the issue half of the group's get flush: datasets dis —
// those of the step's queued gets — at timestep ts, their files placed
// by the step's cursor cur. It returns the join time (the latest file
// completion) with the clock left at the fork point and the staged reads
// in g.ep.placed / g.ep.readArena.
func (g *Group) issueGets(ts int64, dis []int, cur *mpiio.Cursor) (sim.Time, error) {
	if err := g.stageGets(ts, dis); err != nil {
		return g.s.env.Comm.Clock().Now(), err
	}
	return g.issueFiles(ts, false, cur)
}

// deliverGets is the deliver half of the get flush of the issued parts
// at timestep ts, before its join. It walks the reads' distinct
// completion times in ascending order, advancing the clock to each and
// decoding the reads whose file completed then (ties in read order, then
// queue order) into the slices of their group's queued gets, each
// charged the memory-copy cost of its permutation.
func (s *SDM) deliverGets(ts int64, parts []getPart) {
	clock := s.env.Comm.Clock()
	ord := s.readOrder(parts)
	var w completions
	for {
		for _, i := range ord {
			for _, op := range parts[i].placed {
				w.offer(op.done)
			}
		}
		if !w.next() {
			return
		}
		clock.AdvanceTo(w.at)
		for _, i := range ord {
			ops := parts[i].placed
			for k := range ops {
				if ops[k].done == w.at && firstOfFile(ops, k) {
					parts[i].g.decodeFile(ts, ops, k)
				}
			}
		}
	}
}

// firstOfFile reports whether ops[k] is the first of ops in its file.
func firstOfFile(ops []placedOp, k int) bool {
	for j := range k {
		if ops[j].file == ops[k].file {
			return false
		}
	}
	return true
}

// decodeFile scatters the reads of ops[k]'s file, from ops[k] on, into
// the slices of the epoch's queued gets, charging the memory-copy cost of
// each permutation.
func (g *Group) decodeFile(ts int64, ops []placedOp, k int) {
	clock := g.s.env.Comm.Clock()
	t0 := clock.Now()
	file := ops[k].file
	for j := k; j < len(ops); j++ {
		if op := &ops[j]; op.file == file {
			g.ep.gets[op.idx].vals.decode(op.v, op.data)
			g.s.env.Comm.ComputeItems(int64(len(op.data)), memCopyRate)
		}
	}
	if tr := g.s.env.Trace; tr != nil {
		tr.Emit(g.s.pid(), "core", "decode", t0, clock.Now(),
			obs.KV{Key: "file", Val: file},
			obs.KV{Key: "step", Val: fmt.Sprint(ts)})
	}
}

// completions visits the distinct completion times of a flush's
// collectives in ascending order without sorting or allocating. Each
// round offers every time, then next moves at to the earliest time
// offered that is later than the previous at, and reports false once no
// such time was offered.
type completions struct {
	at, earliest sim.Time
	begun, found bool
}

func (w *completions) offer(t sim.Time) {
	if (!w.begun || t > w.at) && (!w.found || t < w.earliest) {
		w.earliest, w.found = t, true
	}
}

func (w *completions) next() bool {
	if !w.found {
		return false
	}
	w.at, w.begun, w.found = w.earliest, true, false
	return true
}
