package core

import (
	"fmt"

	"sdm/internal/catalog"
	"sdm/internal/mpiio"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// ImportSpec describes one array inside an externally created file
// (data "created outside of SDM" that the application can only read by
// supplying type, offset, and length — the paper's import concept).
type ImportSpec struct {
	Name       string
	Type       DataType
	FileOffset int64
	Length     int64 // elements
	// Content tags the array as "INDEX" (edge arrays) or "DATA"
	// (physical values); stored in import_table.
	Content string
}

// Importer is an active import list bound to one external file
// (SDM_make_importlist). Its lifetime ends with Release.
type Importer struct {
	s        *SDM
	fileName string
	size     int64 // the file's staged size when the list was made
	specs    map[string]ImportSpec
	file     *mpiio.File
	queue    []*ImportHandle // the open import epoch, in queue order
	released bool
}

// MakeImportlist registers the arrays of an external file in
// import_table and opens the file collectively. Every rank first checks
// each array against the file's size (a local, uncharged query, as
// historyIntact's), so an array that does not lie inside the file is
// refused on every rank before any of them enters a collective.
func (s *SDM) MakeImportlist(fileName string, specs []ImportSpec) (*Importer, error) {
	imp := &Importer{s: s, fileName: fileName, specs: make(map[string]ImportSpec),
		queue: make([]*ImportHandle, 0, len(specs))}
	size, err := s.env.FS.FileSize(fileName)
	if err != nil {
		return nil, err
	}
	imp.size = size
	for _, sp := range specs {
		if sp.Length <= 0 {
			return nil, fmt.Errorf("core: import %q has non-positive length %d", sp.Name, sp.Length)
		}
		// Written as a quotient, the bound cannot overflow.
		if sp.FileOffset < 0 || sp.Length > (size-sp.FileOffset)/sp.Type.Size() {
			return nil, fmt.Errorf("core: import %q (%d %s elements at offset %d) does not lie inside %q (%d bytes)",
				sp.Name, sp.Length, sp.Type, sp.FileOffset, fileName, size)
		}
		if _, dup := imp.specs[sp.Name]; dup {
			return nil, fmt.Errorf("core: duplicate import name %q", sp.Name)
		}
		if sp.Content == "" {
			sp.Content = "DATA"
		}
		imp.specs[sp.Name] = sp
	}
	err = s.catalogCall(func() error {
		entries := make([]catalog.ImportEntry, len(specs))
		for i, sp := range specs {
			entries[i] = catalog.ImportEntry{
				RunID:        s.runID,
				ImportedName: sp.Name,
				FileName:     fileName,
				DataType:     sp.Type.String(),
				StorageOrder: "ROW_MAJOR",
				Partition:    "DISTRIBUTED",
				FileContent:  imp.specs[sp.Name].Content,
				FileOffset:   sp.FileOffset,
				Length:       sp.Length,
			}
		}
		return s.env.Catalog.RegisterImports(s.env.Comm.Clock(), entries)
	})
	if err != nil {
		return nil, err
	}
	f, err := mpiio.Open(s.env.Comm, s.env.FS, fileName, pfs.ReadOnly, s.opts.Hints)
	if err != nil {
		return nil, err
	}
	f.UseScratch(&s.scratch)
	imp.file = f
	s.importers = append(s.importers, imp)
	return imp, nil
}

// Spec returns a registered import spec.
func (imp *Importer) Spec(name string) (ImportSpec, error) {
	sp, ok := imp.specs[name]
	if !ok {
		return ImportSpec{}, fmt.Errorf("core: no import named %q", name)
	}
	return sp, nil
}

// liveSpec is Spec for the queueing entry points: it also rejects a
// released import list.
func (imp *Importer) liveSpec(name string) (ImportSpec, error) {
	if imp.released {
		return ImportSpec{}, fmt.Errorf("core: import list already released")
	}
	return imp.Spec(name)
}

// blockRange computes the equal division of n elements among p ranks:
// rank r imports [start, start+count). The paper: "the total domain
// (file length) is equally divided among processes, and the data in the
// domain is contiguously imported".
func blockRange(n int64, p, r int) (start, count int64) {
	per := n / int64(p)
	rem := n % int64(p)
	start = int64(r)*per + min(int64(r), rem)
	count = per
	if int64(r) < rem {
		count++
	}
	return start, count
}

// ImportHandle is one array queued on an import epoch. Its result is
// valid once the Flush that follows the queueing returns.
type ImportHandle struct {
	sp           ImportSpec
	v            *View // nil: this rank's contiguous equal-division block
	start, count int64 // element range of a contiguous request
	n            int64 // result size in bytes
	buf          []byte
	done         sim.Time // completion of the array's collective
}

// Bytes returns the imported elements in little-endian wire encoding:
// map-array order for a view request, file order for a contiguous one.
// Nil before Flush.
func (h *ImportHandle) Bytes() []byte { return h.buf }

// Float64s decodes Bytes as float64 elements.
func (h *ImportHandle) Float64s() []float64 { return bytesToFloat64s(h.buf) }

// QueueContiguous queues this rank's equal-division block of a
// registered array on the importer's epoch (SDM_import for index
// arrays: "edges 0 and 1 are imported to process 0, and edges 2 and 3
// to process 1"). Every rank must queue the same sequence of arrays.
func (imp *Importer) QueueContiguous(name string) (*ImportHandle, error) {
	sp, err := imp.liveSpec(name)
	if err != nil {
		return nil, err
	}
	c := imp.s.env.Comm
	h := &ImportHandle{sp: sp}
	h.start, h.count = blockRange(sp.Length, c.Size(), c.Rank())
	h.n = h.count * sp.Type.Size()
	imp.queue = append(imp.queue, h)
	return h, nil
}

// QueueView queues a registered array through an irregular view: each
// rank receives the elements its map array names, in map-array order
// (SDM_import for data arrays x and y after SDM_data_view). Every rank
// must queue the same sequence of arrays.
func (imp *Importer) QueueView(name string, v *View) (*ImportHandle, error) {
	sp, err := imp.liveSpec(name)
	if err != nil {
		return nil, err
	}
	if v.elemSize != sp.Type.Size() {
		return nil, fmt.Errorf("core: view element size %d does not match import %q type %s",
			v.elemSize, name, sp.Type)
	}
	if v.globalN != sp.Length {
		return nil, fmt.Errorf("core: view global size %d does not match import %q length %d",
			v.globalN, name, sp.Length)
	}
	h := &ImportHandle{sp: sp, v: v, n: int64(v.LocalSize()) * v.elemSize}
	imp.queue = append(imp.queue, h)
	return h, nil
}

// Flush imports everything queued as one epoch, modelling
// MPI_File_iread_at_all: each array's view definition is a blocking
// metadata operation charged on the rank's main timeline, its
// collective read then runs on a sub-timeline forked from there — the
// arrays' collectives overlap in virtual time, the shared PFS servers
// serializing where they collide — and each view array is permuted into
// map-array order as soon as its own collective completes (MPI_Waitany):
// the clock walks the completion times in ascending order, ties in
// queue order, then joins at the latest. On the host the collectives
// run one after another through the Manager's staging bundle and one
// pooled file-order arena, so only the result buffers outlive the call.
// A one-array epoch charges exactly what the sequential import did.
// Collective; flushing an empty queue is an error.
func (imp *Importer) Flush() error {
	if imp.released {
		return fmt.Errorf("core: import list already released")
	}
	if len(imp.queue) == 0 {
		return fmt.Errorf("core: Flush with no imports queued")
	}
	// The queue's backing array is reused by the next epoch; the
	// handles (and the result buffers they own) are dropped from it.
	queue := imp.queue
	imp.queue = queue[:0]
	defer clear(queue)
	s := imp.s
	clock := s.env.Comm.Clock()
	t0 := clock.Now()
	var arenaN int64
	for _, h := range queue {
		if h.v != nil {
			arenaN = max(arenaN, h.n)
		}
	}
	fileOrder := s.takeArena(arenaN)
	defer s.putArena(fileOrder)
	join := t0
	for _, h := range queue {
		op := mpiio.BatchOp{Disp: h.sp.FileOffset}
		if h.v != nil {
			op.Type, op.Data = h.v.dtype, fileOrder[:h.n]
		} else {
			op.Off = h.start * h.sp.Type.Size()
			h.buf = make([]byte, h.n)
			op.Data = h.buf
		}
		imp.file.SetView(op.Disp, op.Type)
		fork := clock.Now()
		err := imp.file.ReadAtAllOps([]mpiio.BatchOp{op})
		h.done = clock.Now()
		if tr := s.env.Trace; tr != nil {
			tr.Emit(s.pid(), "core", "import:read", fork, h.done,
				obs.KV{Key: "array", Val: h.sp.Name})
		}
		join = sim.MaxTime(join, h.done)
		if err != nil {
			clock.AdvanceTo(join)
			return err
		}
		clock.Rebase(fork)
		if h.v != nil {
			h.buf = make([]byte, h.n)
			permuteBytesFromFile(h.v, op.Data, h.buf)
		}
	}
	var w completions
	for {
		for _, h := range queue {
			if h.v != nil {
				w.offer(h.done)
			}
		}
		if !w.next() {
			break
		}
		clock.AdvanceTo(w.at)
		for _, h := range queue {
			if h.v != nil && h.done == w.at {
				s.env.Comm.ComputeItems(h.n, memCopyRate)
			}
		}
	}
	clock.AdvanceTo(join)
	if tr := s.env.Trace; tr != nil {
		tr.Emit(s.pid(), "core", "import:epoch", t0, clock.Now(),
			obs.KV{Key: "arrays", Val: fmt.Sprint(len(queue))})
	}
	return nil
}

// Release frees the import structures and clears import_table rows
// (SDM_release_importlist). Collective.
func (imp *Importer) Release() error {
	if imp.released {
		return nil
	}
	imp.released = true
	imp.queue = nil
	if err := imp.file.Close(); err != nil {
		return err
	}
	return imp.s.catalogCall(func() error {
		return imp.s.env.Catalog.ReleaseImports(imp.s.env.Comm.Clock(), imp.s.runID)
	})
}
