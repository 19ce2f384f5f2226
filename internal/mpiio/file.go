package mpiio

import (
	"fmt"

	"sdm/internal/mpi"
	"sdm/internal/obs"
	"sdm/internal/pfs"
)

// Hints mirror the MPI-IO info keys ROMIO's two-phase implementation
// consumes.
type Hints struct {
	// CBNodes is the number of aggregator ranks in collective I/O: the
	// size of the file's aggregator set, the only ranks that open the
	// file at Open. Zero means every rank aggregates (the dense default).
	CBNodes int
	// StripingUnit is the stripe unit, in bytes, of a file this open
	// creates (ROMIO's striping_unit). Zero means the file system's
	// default. Like ROMIO's it is a creation-time hint: a file that
	// already exists keeps the layout it was created with.
	StripingUnit int64
	// DisableCollective forces WriteAtAllOps/ReadAtAllOps to fall back
	// to independent requests, one vectored request per op — the
	// ablation knob for measuring what collective buffering buys.
	DisableCollective bool
}

// File is an MPI-IO style file handle: a view over a named file, bound
// to one rank's communicator, plus — on the ranks that need one — a pfs
// handle. Collective operations must be called by every rank of the
// communicator, as in MPI.
//
// Aggregator set and deferred open. A file's aggregators are the
// Hints.CBNodes consecutive ranks starting at rot, the rank its
// Placement names, so the small files of a file-per-dataset layout
// spread their aggregation (and their opens) over the communicator
// instead of piling on rank 0; file domain k belongs to rank (rot+k) mod
// P. Only set members touch the file in a collective operation, so only
// they open it at Open (ROMIO's deferred open); any other rank opens on
// its first independent access, and Close charges only where an open
// happened.
//
// Layout. File domains are whole stripes of the file's own stripe unit:
// the unit an existing file was created with, otherwise
// Hints.StripingUnit, which the set members create it with. A rank
// without a handle asks the file system for it (uncharged) inside its
// first collective operation, by which time the members have opened the
// file.
type File struct {
	sys  *pfs.System
	name string
	mode pfs.Mode
	unit int64 // the file's stripe unit; 0 until this rank has learned it
	// h is nil on a rank outside the aggregator set that has made no
	// independent access.
	h      *pfs.Handle
	closed bool
	comm   *mpi.Comm
	hints  Hints
	rot    int // rank of aggregator 0
	first  int // server of stripe 0, if this open creates the file

	disp     int64
	filetype *Datatype

	// scratch is the private staging bundle, allocated on first use: a
	// File handed a shared bundle by UseScratch never needs one.
	scratch *ioScratch
}

// scr returns the staging buffers the file's operations use.
func (f *File) scr() *ioScratch {
	if f.scratch == nil {
		f.scratch = &ioScratch{}
	}
	return f.scratch
}

// ioScratch holds the per-File reusable buffers of the read/write hot
// path, so steady-state operations stop allocating per call: the
// flattened segment list, the phase-1 parcels, the aggregator's
// gathered segments and sieve runs, the staging arenas, and the reply
// plumbing. A File belongs to one rank goroutine, so reuse is
// race-free locally.
//
// Cross-rank safety: parcels (with the routeSegs/routeBufs arrays their
// lists are carved from), replies, and the read arena are referenced by
// OTHER ranks during a collective operation. They are
// reused only by the NEXT operation on this file, and every reuse
// point is preceded by a rendezvous collective (the next operation's
// Allreduce/Alltoall or the trailing Barrier) that every rank —
// including every rank still holding a reference — must have entered
// after it finished using the buffers. MPI's collective-ordering rule
// (all ranks issue the same collective sequence) therefore guarantees
// no rank still reads a buffer when its owner rewrites it.
type ioScratch struct {
	segs       []Segment   // flattened physical segments of one op
	flat       []flatSeg   // merged (segment, buffer) list across the batch's ops
	flatAux    []flatSeg   // merge ping-pong buffer
	opBounds   []int       // per-op run boundaries within flat
	opBoundsAx []int       // merge ping-pong buffer
	parcels    []ioParcel  // outgoing phase-1 parcels, one per aggregator index
	routeN     []int       // routing: segment pieces per aggregator index
	routeSegs  []Segment   // backing array the parcels' Segs are carved from
	routeBufs  [][]byte    // backing array the parcels' Bufs are carved from
	incoming   []ioParcel  // aggregator: received phase-1 parcels, one per rank
	anyParts   []any       // boxing buffer for Alltoall, one per rank
	aggs       []aggSeg    // aggregator: gathered incoming segments, sorted
	aggsAux    []aggSeg    // merge ping-pong buffer
	bounds     []int       // per-source run boundaries within aggs
	boundsAux  []int       // merge ping-pong buffer
	runs       []sieveRun  // aggregator: coalesced spanning runs
	writeStage []byte      // aggregator: staging buffer, one run at a time
	readArena  []byte      // aggregator: staging arena carved across runs
	replies    []readReply // aggregator: read phase-2 replies, one per rank
	replyData  [][]byte    // aggregator: backing array the replies' Data are carved from
	ext        [2]Segment  // aggregator: the extents of one phase-2 call
}

// grow returns buf resized to n bytes, reallocating only on growth.
func grow(buf []byte, n int64) []byte {
	if int64(cap(buf)) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// Scratch is a reusable bundle of I/O staging buffers that one rank
// can share across sequentially-used Files via UseScratch, so
// organizations that open and close a file per access (the paper's
// level 1) keep their steady-state buffers across handles instead of
// re-growing them on every open.
type Scratch struct{ s ioScratch }

// UseScratch redirects f's staging buffers to sc. The caller must use
// sc only from the rank goroutine owning f, and must not install it on
// two Files whose operations interleave mid-collective (sequential
// collective operations, the MPI norm, are safe).
func (f *File) UseScratch(sc *Scratch) { f.scratch = &sc.s }

// ScratchPool is a rank-local free list of Scratch bundles for callers
// that keep several files' collectives in flight at once (an N-deep
// step pipeline): each open file checks one bundle out and returns it
// at close, so concurrent per-file collectives from different epochs
// never share staging buffers, while sequential open/close patterns
// (the paper's level 1) still reuse one warmed-up bundle. A pool
// belongs to one rank goroutine; it is not safe for concurrent use.
type ScratchPool struct{ free []*Scratch }

// Get checks a Scratch out of the pool, allocating a fresh one when
// the pool is empty.
func (p *ScratchPool) Get() *Scratch {
	if n := len(p.free); n > 0 {
		sc := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return sc
	}
	return &Scratch{}
}

// Put returns a Scratch to the pool. Safe per the ioScratch reuse
// protocol: a pooled bundle is only touched again inside a collective
// operation, whose leading rendezvous guarantees every rank holding a
// reference into the old buffers has finished with them.
func (p *ScratchPool) Put(sc *Scratch) {
	if sc != nil {
		p.free = append(p.free, sc)
	}
}

// Size reports how many bundles are pooled (checked in), for tests
// asserting steady-state reuse.
func (p *ScratchPool) Size() int { return len(p.free) }

// Placement is where one file's work lands: Rank is the first rank of
// its aggregator set, and Server the I/O server of its first stripe if
// the open creates the file (one that exists keeps the server it was
// created with, as it keeps its unit).
type Placement struct{ Rank, Server int }

// Cursor places a run of files one after another over a communicator's
// ranks and a file system's servers. It starts where the name hash of
// the first file puts it; each file then takes the next set ranks as its
// aggregator set and the next stripes servers from its first stripe on,
// so a step's small files spread evenly over both instead of landing
// wherever their own hashes fall. A run of one file is where its name
// hash puts it, which is the placement Open gives every file. Ranks that
// walk the same files in the same order compute the same placements.
type Cursor struct {
	ranks, servers int
	at             Placement
	started        bool
}

// NewCursor returns a cursor over c's ranks and sys's servers that starts
// at the first file it places.
func NewCursor(c *mpi.Comm, sys *pfs.System) Cursor {
	return Cursor{ranks: c.Size(), servers: sys.Config().NumServers}
}

// Next places file name, opened with an aggregator set of set ranks
// (sized as Open sizes Hints.CBNodes) and spanning stripes servers, and
// moves the cursor past it.
func (p *Cursor) Next(name string, set, stripes int) Placement {
	if !p.started {
		h := pfs.NameHash(name)
		p.at = Placement{Rank: int(h % uint64(p.ranks)), Server: int(h % uint64(p.servers))}
		p.started = true
	}
	at := p.at
	p.at.Rank = (at.Rank + setSize(set, p.ranks)) % p.ranks
	p.at.Server = (at.Server + stripes) % p.servers
	return at
}

// setSize is the aggregator-set size a CBNodes hint asks for on size
// ranks: the hint, or every rank when it is unset or too large.
func setSize(cbNodes, size int) int {
	if cbNodes <= 0 || cbNodes > size {
		return size
	}
	return cbNodes
}

// Open opens name collectively where its name hash places it: the one-file
// case of Cursor. See OpenAt.
func Open(c *mpi.Comm, sys *pfs.System, name string, mode pfs.Mode, hints Hints) (*File, error) {
	cur := NewCursor(c, sys)
	return OpenAt(c, sys, name, mode, hints, cur.Next(name, 0, 0))
}

// OpenAt opens name collectively at placement at: every rank calls it
// with the same placement, and the members of the file's aggregator set
// open it in the file system, in parallel, each on its own clock. The
// initial view is contiguous bytes from offset zero.
//
// OpenAt is collective but, like MPI_File_open, not synchronizing: it
// has no rendezvous, because a collective advances every clock to the
// last arrival and would put the openers' cost back on every rank's
// timeline. A rank outside the set therefore learns of a missing file
// from an uncharged existence check, so that a failed open fails on
// every rank before any of them enters a collective operation.
func OpenAt(c *mpi.Comm, sys *pfs.System, name string, mode pfs.Mode, hints Hints, at Placement) (*File, error) {
	if n := sys.Config().NumServers; at.Rank < 0 || at.Rank >= c.Size() || at.Server < 0 || at.Server >= n {
		return nil, fmt.Errorf("mpiio: open %q at rank %d, server %d: outside %d ranks and %d servers",
			name, at.Rank, at.Server, c.Size(), n)
	}
	hints.CBNodes = setSize(hints.CBNodes, c.Size())
	f := &File{sys: sys, name: name, mode: mode, comm: c, hints: hints, rot: at.Rank, first: at.Server}
	if f.aggIndex(c.Rank()) < hints.CBNodes {
		if err := f.open(true); err != nil {
			return nil, err
		}
	} else if mode != pfs.CreateMode && !sys.Exists(name) {
		return nil, fmt.Errorf("open %q: %w", name, pfs.ErrNotExist)
	}
	return f, nil
}

// aggRank returns the rank aggregating file domain k.
func (f *File) aggRank(k int) int { return (f.rot + k) % f.comm.Size() }

// aggIndex returns the file domain rank would aggregate if the set were
// that large: rank is a member of an n-aggregator set when
// aggIndex(rank) < n.
func (f *File) aggIndex(rank int) int {
	return (rank - f.rot + f.comm.Size()) % f.comm.Size()
}

// open opens the file in the file system, charging this rank's clock.
// member distinguishes the aggregator set's opens at Open from a
// non-member's deferred one.
func (f *File) open(member bool) error {
	t0 := f.comm.Now()
	var h *pfs.Handle
	var err error
	if f.mode == pfs.CreateMode {
		h, err = f.sys.Create(f.name, f.hints.StripingUnit, f.first, f.comm.Clock())
	} else {
		h, err = f.sys.Open(f.name, f.mode, f.comm.Clock())
	}
	if err != nil {
		return err
	}
	f.h = h
	f.unit = h.StripeUnit()
	if tr := f.sys.Tracer(); tr != nil {
		tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "open", t0, f.comm.Now(),
			obs.KV{Key: "file", Val: f.name},
			obs.KV{Key: "member", Val: fmt.Sprint(member)},
			obs.KV{Key: "set", Val: fmt.Sprint(f.hints.CBNodes)},
			obs.KV{Key: "unit", Val: fmt.Sprint(f.unit)})
	}
	return nil
}

// handle returns the rank's pfs handle for an independent access,
// opening the file first on a rank that has not needed one so far.
func (f *File) handle() (*pfs.Handle, error) {
	if f.closed {
		return nil, pfs.ErrClosed
	}
	if f.h == nil {
		if err := f.open(false); err != nil {
			return nil, err
		}
	}
	return f.h, nil
}

// Close releases the file. A rank that never opened it pays nothing.
func (f *File) Close() error {
	if f.closed {
		return pfs.ErrClosed
	}
	f.closed = true
	if f.h == nil {
		return nil
	}
	t0 := f.comm.Now()
	err := f.h.Close()
	if tr := f.sys.Tracer(); tr != nil {
		tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "close", t0, f.comm.Now(),
			obs.KV{Key: "file", Val: f.name})
	}
	return err
}

// SetView installs a file view: logical byte L of subsequent reads and
// writes maps to the L-th data byte of filetype tiled from displacement
// disp (MPI_File_set_view with etype = MPI_BYTE). A nil filetype means
// contiguous bytes. A view is local state of the rank's I/O library and
// needs no open handle, so members and non-members alike pay the
// view-definition cost: the flatten of the filetype into segments, which
// is cached on the type. A rank pays it the first time it installs a
// filetype, and later installs of that type, on any file and at any
// displacement, are free. A nil filetype has no type to cache on and is
// charged at every install.
func (f *File) SetView(disp int64, filetype *Datatype) {
	f.disp = disp
	f.filetype = filetype
	if filetype != nil && !filetype.installed.add(f.comm) {
		return
	}
	t0 := f.comm.Now()
	f.sys.ChargeView(f.comm.Clock())
	if tr := f.sys.Tracer(); tr != nil {
		tr.Emit(obs.PidRank(f.comm.Rank()), "mpiio", "view", t0, f.comm.Now(),
			obs.KV{Key: "file", Val: f.name})
	}
}

// WriteAt writes data at logical offset off through the view,
// independently, as one vectored file-system request covering every
// physical segment, mapped as the independent fallback of
// WriteAtAllOps maps each op: the reference the collectives are tested
// against.
func (f *File) WriteAt(off int64, data []byte) error {
	h, err := f.handle()
	if err != nil {
		return err
	}
	_, err = h.WriteAtVec(data, f.opSegments(&BatchOp{Disp: f.disp, Type: f.filetype, Off: off, Data: data}))
	return err
}

// ReadAt fills data from logical offset off through the view,
// independently. Reads extending past EOF return io.EOF with the
// missing tail zero-filled, matching pfs vectored-read semantics.
func (f *File) ReadAt(off int64, data []byte) error {
	h, err := f.handle()
	if err != nil {
		return err
	}
	_, err = h.ReadAtVec(data, f.opSegments(&BatchOp{Disp: f.disp, Type: f.filetype, Off: off, Data: data}))
	return err
}
