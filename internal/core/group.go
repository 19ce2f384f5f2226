package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"sdm/internal/catalog"
	"sdm/internal/mpiio"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// Group is a data group: datasets produced by the application that
// share registration (SDM_set_attributes). The paper groups data sets
// "to experiment different ways of organizing data in files"; the
// group is the unit that level-3 organization maps to a single file.
type Group struct {
	s      *SDM
	idx    int
	attrs  []Attr
	byName map[string]int
	views  map[string]*View

	files     map[string]*mpiio.File
	appendOff map[string]int64 // per file: next byte offset
	index     placementIndex

	// fileNames resolves fileFor without formatting on the hot path: per
	// dataset, the whole name under levels 2 and 3 (fixed for the group's
	// lifetime) and the prefix up to the timestep under level 1.
	fileNames []string

	// spare is the last level-1 file the group closed after a successful
	// collective, which its next open reuses: a level-1 file is opened,
	// used by one collective and closed before the next one opens
	// (issueFiles), so one is enough. Nothing else keeps a pointer to a
	// closed file — the buffers other ranks read during a collective
	// belong to the rank's shared mpiio.Scratch, not to the file.
	spare *mpiio.File

	// stripeUnit and cbNodes are the layout the group's files are created
	// with and the aggregator-set size they open with, each used when the
	// caller left the matching Hints field at zero; stripes is how many
	// stripes one step's extent fills (see layout).
	stripeUnit int64
	cbNodes    int
	stripes    int

	// ep is the group's share of the open step (SDM.BeginStep/EndStep)
	// and its flush scratch.
	ep stepEpoch
}

type writeKey struct {
	dataset  string
	timestep int64
}

// placementIndex is a group's rank-local, catalog-free copy of its
// execution-table rows: where each (dataset, timestep) slab landed, and
// the distinct timesteps in ascending order. cacheWrites feeds it as
// the session writes and OpenGroup seeds it from the rows rank 0
// already broadcasts, so reads resolve placements — and a sequential
// reader's next checkpoint — from it alone, with no catalog statement.
// Every rank holds the same contents (both feeds are collective), which
// is what lets all ranks take the same read-ahead decisions.
type placementIndex struct {
	recs  map[writeKey]catalog.WriteRecord
	steps []int64
}

// indexRows is how many timesteps a placement index holds before it
// first grows.
const indexRows = 16

// add records rec, replacing an earlier placement of the same slab.
func (x *placementIndex) add(rec catalog.WriteRecord) {
	x.recs[writeKey{rec.Dataset, rec.Timestep}] = rec
	if i, found := slices.BinarySearch(x.steps, rec.Timestep); !found {
		x.steps = slices.Insert(x.steps, i, rec.Timestep)
	}
}

// successor reports the first recorded timestep after ts.
func (x *placementIndex) successor(ts int64) (int64, bool) {
	i, found := slices.BinarySearch(x.steps, ts)
	if found {
		i++
	}
	if i == len(x.steps) {
		return 0, false
	}
	return x.steps[i], true
}

// newGroup assembles a Group from attributes without touching the
// catalog — the shared construction beneath SetAttributes (which
// registers the datasets) and OpenGroup (which found them already
// registered).
func (s *SDM) newGroup(attrs []Attr) (*Group, error) {
	g := &Group{
		s:         s,
		idx:       len(s.groups),
		byName:    make(map[string]int),
		views:     make(map[string]*View),
		files:     make(map[string]*mpiio.File),
		appendOff: make(map[string]int64),
		attrs:     make([]Attr, 0, len(attrs)),
		// Sized for the run's first indexRows timesteps of every dataset.
		index: placementIndex{
			recs:  make(map[writeKey]catalog.WriteRecord, indexRows*len(attrs)),
			steps: make([]int64, 0, indexRows),
		},
	}
	for i := range attrs {
		a := attrs[i]
		a.fill()
		if a.GlobalSize <= 0 {
			return nil, fmt.Errorf("core: dataset %q has non-positive global size %d", a.Name, a.GlobalSize)
		}
		if _, dup := g.byName[a.Name]; dup {
			return nil, fmt.Errorf("core: duplicate dataset %q in group", a.Name)
		}
		g.byName[a.Name] = len(g.attrs)
		g.attrs = append(g.attrs, a)
	}
	g.ep = newStepEpoch(len(g.attrs))
	g.stripeUnit, g.cbNodes, g.stripes = g.layout()
	g.fileNames = make([]string, len(g.attrs))
	prefix := s.app + "_r" + strconv.FormatInt(s.runID, 10) + "_"
	switch s.opts.Organization {
	case Level1, Level2:
		suffix := "_t"
		if s.opts.Organization == Level2 {
			suffix = ".dat"
		}
		for i, a := range g.attrs {
			g.fileNames[i] = prefix + a.Name + suffix
		}
	default:
		name := prefix + "g" + strconv.Itoa(g.idx) + ".dat"
		for i := range g.fileNames {
			g.fileNames[i] = name
		}
	}
	return g, nil
}

// minStripeUnit is the smallest stripe unit layout chooses: the usual
// stripe granule, 2.3 times the default platform's sieve gap, so that a
// one-stripe request spends under a third of its service time on
// latency.
const minStripeUnit = 64 << 10

// stripeUnit is the layout rule for every file SDM creates: the unit
// that spreads the extent one access moves — a group's step, or the whole
// index history — evenly over the I/O servers. A caller's
// Hints.StripingUnit is used as given. Otherwise an extent E on N servers
// under the file system's default unit C is cut into the fewest whole
// rows of N stripes that keep the unit at or under C,
// rows = ceil(E / (N·C)), and the unit is ceil(E / (N·rows)), never below
// one 64 KiB granule nor above C: every server carries rows stripes of
// the extent, short by fewer than N·rows bytes in all, where C-sized
// stripes would leave some servers one more than others.
func (s *SDM) stripeUnit(extent int64) int64 {
	if unit := s.opts.Hints.StripingUnit; unit > 0 {
		return unit
	}
	cfg := s.env.FS.Config()
	n, c := int64(cfg.NumServers), cfg.StripeSize
	rows := max(ceilDiv(extent, n*c), 1)
	return min(max(ceilDiv(extent, n*rows), minStripeUnit), c)
}

func ceilDiv(n, d int64) int64 { return (n + d - 1) / d }

// layout chooses, from the attributes alone, the stripe unit the group's
// files are created with, the size of their aggregator set, and the
// number of stripes one step's extent fills — the servers a file takes
// in its step's placement (see Group.open).
//
// The unit is stripeUnit of the extent one step writes to a file — one
// slab under levels 1 and 2, the whole group's slabs under level 3 — so
// every server carries the same bytes of a step. Under the default unit
// a 2 MB step covers four of ten servers, and two files flushing
// together queue two stripes on some servers while others idle. Each
// step of an extent that is no multiple of its stripes starts a little
// earlier in its stripe than the last, so one server holds both of the
// step's ends, next to each other in its object. In a step of one row of
// stripes the collective sends both to one aggregator, which issues them
// as one request (mpiio's wrapped domain): every server takes one
// request of the step. A step of several rows leaves that server one
// extra request.
//
// The set is the number of stripes of that unit the extent can touch: a
// level-1 file holds one slab from offset zero; a level-2 slab and a
// level-3 step start anywhere in their file, hence the extra stripe.
// That many aggregators make every file domain one stripe, so each
// phase-2 run is one request to one server, and only the ranks issuing
// them open the file. A file below one granule keeps one stripe and one
// aggregator whatever the default unit is. A caller's
// Hints.StripingUnit replaces the chosen unit, and the set is sized over
// it.
func (g *Group) layout() (unit int64, set, stripes int) {
	var largest, sum int64
	for _, a := range g.attrs {
		slab := a.GlobalSize * a.Type.Size()
		largest = max(largest, slab)
		sum += slab
	}
	extent := largest
	if g.s.opts.Organization == Level3 {
		extent = sum
	}
	unit = g.s.stripeUnit(extent)
	stripes = int(ceilDiv(extent, unit))
	set = stripes
	if g.s.opts.Organization != Level1 {
		set++
	}
	return unit, min(set, g.s.env.Comm.Size()), stripes
}

// SetAttributes registers a data group: all dataset metadata goes to
// access_pattern_table and a group handle is returned (the paper's
// SDM_set_attributes returning the file handle). Collective.
func (s *SDM) SetAttributes(attrs []Attr) (*Group, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("core: SetAttributes with empty attribute list")
	}
	g, err := s.newGroup(attrs)
	if err != nil {
		return nil, err
	}
	err = s.catalogCall(func() error {
		for _, a := range g.attrs {
			info := catalog.DatasetInfo{
				RunID:         s.runID,
				Dataset:       a.Name,
				AccessPattern: a.Pattern,
				DataType:      a.Type.String(),
				StorageOrder:  a.Order,
				GlobalSize:    a.GlobalSize,
			}
			if err := s.env.Catalog.RegisterDataset(s.env.Comm.Clock(), info); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.groups = append(s.groups, g)
	return g, nil
}

// OpenGroup reopens datasets already registered for the attached run
// (Options.AttachRun), reconstructing their attributes from
// access_pattern_table instead of re-registering them. Rank 0 queries
// the catalog and broadcasts in one rendezvous; each file's append
// cursor is primed from the execution table and the file's size, so
// further writes extend the run's files rather than overwrite them, and
// the placement index holds each of the group's slabs at its latest
// write. Collective.
func (s *SDM) OpenGroup(names []string) (*Group, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("core: OpenGroup with no dataset names")
	}
	// One broadcast carries the attributes and the run's execution-table
	// rows: a 256-byte header and 64 bytes per row.
	type opened struct {
		attrs []Attr
		recs  []catalog.WriteRecord
	}
	res, err := onRoot(s, "core: OpenGroup", func(clk *sim.Clock) (opened, int64, error) {
		var o opened
		for _, n := range names {
			info, err := s.env.Catalog.LookupDataset(clk, s.runID, n)
			if err == nil && info == nil {
				err = fmt.Errorf("dataset %q not registered for run %d", n, s.runID)
			}
			if err != nil {
				return o, 0, err
			}
			t, err := ParseDataType(info.DataType)
			if err != nil {
				return o, 0, err
			}
			o.attrs = append(o.attrs, Attr{
				Name:       info.Dataset,
				Type:       t,
				GlobalSize: info.GlobalSize,
				Pattern:    info.AccessPattern,
				Order:      info.StorageOrder,
			})
		}
		recs, err := s.env.Catalog.WritesForRun(clk, s.runID)
		o.recs = recs
		return o, 256 + 64*int64(len(recs)), err
	})
	if err != nil {
		return nil, err
	}
	g, err := s.newGroup(res.attrs)
	if err != nil {
		return nil, err
	}
	g.primeAppendState(res.recs)
	// Seed the placement index with the group's own rows: the restart's
	// Get steps resolve from it alone (stageGets). WritesForRun
	// lists a rewritten slab's rows in write order, so the latest write
	// wins, as it does in the writing session and in Catalog.Slab.
	for _, rec := range res.recs {
		if _, ok := g.byName[rec.Dataset]; ok {
			g.index.add(rec)
		}
	}
	s.groups = append(s.groups, g)
	return g, nil
}

// primeAppendState sets each file's append cursor past everything the
// old run wrote, so a reattached group's new writes land after the
// existing data. Two signals are combined: exact slab ends from the
// execution table for datasets this group knows, and each file's current
// size as a floor — the latter protects datasets that share the file but
// were not named in OpenGroup (a level-3 group reopened as a subset must
// not clobber its siblings).
func (g *Group) primeAppendState(recs []catalog.WriteRecord) {
	if g.s.opts.Organization == Level1 {
		return // file per timestep: nothing to collide with
	}
	for _, rec := range recs {
		var end int64 // unknown slab size; the size floor below covers it
		if i, ok := g.byName[rec.Dataset]; ok {
			end = rec.FileOffset + g.attrs[i].GlobalSize*g.attrs[i].Type.Size()
		}
		g.appendOff[rec.FileName] = max(g.appendOff[rec.FileName], end)
	}
	for file, end := range g.appendOff {
		if sz, err := g.s.env.FS.FileSize(file); err == nil {
			g.appendOff[file] = max(end, sz)
		}
	}
}

// Attr returns a dataset's attributes.
func (g *Group) Attr(name string) (Attr, error) {
	i, ok := g.byName[name]
	if !ok {
		return Attr{}, fmt.Errorf("core: no dataset %q in group", name)
	}
	return g.attrs[i], nil
}

// View is an irregular data mapping: a map array assigning each local
// element a global index, compiled into a noncontiguous MPI-IO file
// view (the paper's SDM_data_view).
type View struct {
	mapArr   []int32
	perm     []int32 // perm[i] = local index of the i-th smallest global index
	dtype    *mpiio.Datatype
	elemSize int64
	globalN  int64
}

// LocalSize reports the number of local elements the view maps.
func (v *View) LocalSize() int { return len(v.mapArr) }

// DataView installs one shared view for the named datasets, mirroring
// the paper's SDM_data_view(handle, ndata, firstName, &map, &size)
// where one map array serves several datasets of the group. mapArr[i]
// is the global element index local element i occupies. Entries must
// be unique and within the datasets' global size.
func (g *Group) DataView(names []string, mapArr []int32) (*View, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("core: DataView with no dataset names")
	}
	var first Attr
	for i, n := range names {
		a, err := g.Attr(n)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = a
		} else if a.GlobalSize != first.GlobalSize || a.Type != first.Type {
			return nil, fmt.Errorf("core: datasets %q and %q cannot share a view (size/type differ)", names[0], n)
		}
	}
	v, err := newView(mapArr, first.Type.Size(), first.GlobalSize)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		g.views[n] = v
	}
	return v, nil
}

// NewView builds a standalone irregular view for use with
// Importer.QueueView — the paper's SDM_data_view over imported arrays
// (x through the partitioned-edge map, y through the node map).
func NewView(mapArr []int32, t DataType, globalSize int64) (*View, error) {
	return newView(mapArr, t.Size(), globalSize)
}

func newView(mapArr []int32, elemSize, globalN int64) (*View, error) {
	perm := make([]int32, len(mapArr))
	for i := range perm {
		perm[i] = int32(i)
	}
	// Equal keys are refused below, so their order never matters.
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(mapArr[a], mapArr[b]) })
	displs := make([]int, len(mapArr))
	for i, p := range perm {
		gidx := mapArr[p]
		if gidx < 0 || int64(gidx) >= globalN {
			return nil, fmt.Errorf("core: map entry %d out of range [0,%d)", gidx, globalN)
		}
		if i > 0 && displs[i-1] == int(gidx) {
			return nil, fmt.Errorf("core: duplicate global index %d in map array", gidx)
		}
		displs[i] = int(gidx)
	}
	dtype := mpiio.IndexedBlock(1, displs, mpiio.Bytes(elemSize))
	dtype = mpiio.Resized(dtype, globalN*elemSize)
	return &View{
		mapArr:   mapArr,
		perm:     perm,
		dtype:    dtype,
		elemSize: elemSize,
		globalN:  globalN,
	}, nil
}

// permuteBytesFromFile scatters file-order bytes (the sorted order the
// file view delivers) into map-array order. Pure data movement; the
// caller charges the memory-copy cost.
func permuteBytesFromFile(v *View, fileData, out []byte) {
	es := v.elemSize
	if es == 8 {
		for i, p := range v.perm {
			*(*[8]byte)(out[int(p)*8:]) = *(*[8]byte)(fileData[i*8:])
		}
	} else {
		for i, p := range v.perm {
			copy(out[int64(p)*es:(int64(p)+1)*es], fileData[int64(i)*es:(int64(i)+1)*es])
		}
	}
}

// fileFor determines which file a write of dataset di at timestep goes
// to under the group's organization level. Levels 2 and 3 return the
// name resolved at registration; level 1 appends the timestep to the
// dataset's prefix, a name the file system holds once for all ranks
// (pfs.System.Name) — enqueue resolves it once per queued put and the
// claim, the placement and the execution-table row share that.
func (g *Group) fileFor(di int, timestep int64) string {
	if g.s.opts.Organization != Level1 {
		return g.fileNames[di]
	}
	var buf [96]byte
	b := append(buf[:0], g.fileNames[di]...)
	b = strconv.AppendInt(b, timestep, 10)
	b = append(b, ".dat"...)
	return g.s.env.FS.Name(b)
}

// open returns the cached handle for a file, opening it on first use: a
// write creates the file if it is missing, a read opens it without
// creating it — read-only under level 1, where the file is closed after
// the read, read-write otherwise, where the handle stays for later
// writes — so a read of a missing file fails on every rank before any
// collective. Level 1 callers close immediately after the access; levels
// 2 and 3 keep handles open until Finalize, which is where the paper's
// open-cost differences between levels come from.
//
// Every file of a step takes its place from the step's cursor, opened
// here or not: the next aggregator set of ranks and, if this open creates
// the file, the next g.stripes servers from its first stripe on. A step
// of one file is where its name hash puts it, as mpiio.Open puts any
// file.
func (g *Group) open(name string, write bool, cur *mpiio.Cursor) (*mpiio.File, error) {
	hints := g.s.opts.Hints
	if hints.CBNodes == 0 {
		hints.CBNodes = g.cbNodes
	}
	hints.StripingUnit = g.stripeUnit
	at := cur.Next(name, hints.CBNodes, g.stripes)
	if f, ok := g.files[name]; ok {
		return f, nil
	}
	mode := pfs.CreateMode
	if !write {
		mode = pfs.ReadWrite
		if g.s.opts.Organization == Level1 {
			mode = pfs.ReadOnly
		}
	}
	f := g.spare
	g.spare = nil
	var err error
	if f != nil {
		err = f.Reopen(name, mode, hints, at)
	} else if f, err = mpiio.OpenAt(g.s.env.Comm, g.s.env.FS, name, mode, hints, at); err == nil {
		f.UseScratch(&g.s.scratch)
	}
	if err != nil {
		return nil, err
	}
	g.files[name] = f
	return f, nil
}

// closeFiles closes all cached handles (Finalize).
func (g *Group) closeFiles() error {
	var firstErr error
	for name, f := range g.files {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(g.files, name)
	}
	return firstErr
}

// place computes where one slab written to file lands: the byte offset
// the execution table records and the slab's view is displaced to — 0
// under level 1 (a file per timestep), the file's next free byte
// otherwise.
func (g *Group) place(file string, slabBytes int64) int64 {
	if g.s.opts.Organization == Level1 {
		return 0
	}
	off := g.appendOff[file]
	g.appendOff[file] = off + slabBytes
	return off
}
