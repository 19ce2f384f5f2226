package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"sdm/internal/catalog"
	"sdm/internal/mpiio"
	"sdm/internal/pfs"
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

	files      map[string]*openFile
	appendSlab map[string]int64 // per file: next slab index (uniform groups)
	appendOff  map[string]int64 // per file: next byte offset (mixed groups)
	index      placementIndex

	// fileNames resolves fileFor without formatting on the hot path: per
	// dataset, the whole name under levels 2 and 3 (fixed for the group's
	// lifetime) and the prefix up to the timestep under level 1.
	fileNames []string

	uniform  bool // all datasets same type and global size
	slabSize int64

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

	// Each open file checks its I/O scratch bundle out of the pool
	// (returned at close), so per-file collectives from different
	// in-flight epochs never share staging buffers.
	scratch mpiio.ScratchPool
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
// reader's next checkpoint — without a catalog round trip. Every rank
// holds the same contents (both feeds are collective), which is what
// lets all ranks take the same read-ahead decisions.
type placementIndex struct {
	recs  map[writeKey]catalog.WriteRecord
	steps []int64
}

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

type openFile struct {
	f  *mpiio.File
	sc *mpiio.Scratch // checked out of the group's pool until close
}

// newGroup assembles a Group from attributes without touching the
// catalog — the shared construction beneath SetAttributes (which
// registers the datasets) and OpenGroup (which found them already
// registered).
func (s *SDM) newGroup(attrs []Attr) (*Group, error) {
	g := &Group{
		s:          s,
		idx:        len(s.groups),
		byName:     make(map[string]int),
		views:      make(map[string]*View),
		files:      make(map[string]*openFile),
		appendSlab: make(map[string]int64),
		appendOff:  make(map[string]int64),
		index:      placementIndex{recs: make(map[writeKey]catalog.WriteRecord)},
	}
	g.uniform = true
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
		if a.GlobalSize != attrs[0].GlobalSize || a.Type != attrs[0].Type {
			g.uniform = false
		}
	}
	if g.uniform {
		g.slabSize = g.attrs[0].GlobalSize * g.attrs[0].Type.Size()
	}
	g.stripeUnit, g.cbNodes, g.stripes = g.layout()
	g.fileNames = make([]string, len(g.attrs))
	for i, a := range g.attrs {
		switch s.opts.Organization {
		case Level1:
			g.fileNames[i] = fmt.Sprintf("%s_r%d_%s_t", s.app, s.runID, a.Name)
		case Level2:
			g.fileNames[i] = fmt.Sprintf("%s_r%d_%s.dat", s.app, s.runID, a.Name)
		default:
			g.fileNames[i] = fmt.Sprintf("%s_r%d_g%d.dat", s.app, s.runID, g.idx)
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
// the catalog and broadcasts; append state is primed from the
// execution table so further writes extend the run's files rather
// than overwrite them. Collective.
func (s *SDM) OpenGroup(names []string) (*Group, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("core: OpenGroup with no dataset names")
	}
	// Two broadcasts, as a receiver needs the row count before it can
	// post the receive for the rows: a fixed-size header (attributes,
	// error, count) and then the run's execution-table rows at the 64
	// bytes per record lookupPlacements charges.
	type wire struct {
		Attrs []Attr
		NRecs int
		Err   string
	}
	var w wire
	var recs []catalog.WriteRecord
	if s.env.Comm.Rank() == 0 {
		for _, n := range names {
			info, err := s.env.Catalog.LookupDataset(s.env.Comm.Clock(), s.runID, n)
			if err != nil {
				w.Err = err.Error()
				break
			}
			if info == nil {
				w.Err = fmt.Sprintf("core: dataset %q not registered for run %d", n, s.runID)
				break
			}
			t, err := ParseDataType(info.DataType)
			if err != nil {
				w.Err = err.Error()
				break
			}
			w.Attrs = append(w.Attrs, Attr{
				Name:       info.Dataset,
				Type:       t,
				GlobalSize: info.GlobalSize,
				Pattern:    info.AccessPattern,
				Order:      info.StorageOrder,
			})
		}
		if w.Err == "" {
			var err error
			if recs, err = s.env.Catalog.WritesForRun(s.env.Comm.Clock(), s.runID); err != nil {
				w.Err = err.Error()
			}
			w.NRecs = len(recs)
		}
	}
	res := s.env.Comm.Bcast(0, w, 256).(wire)
	if res.Err != "" {
		return nil, fmt.Errorf("%s", res.Err)
	}
	recs = s.env.Comm.Bcast(0, recs, 64*int64(res.NRecs)).([]catalog.WriteRecord)
	g, err := s.newGroup(res.Attrs)
	if err != nil {
		return nil, err
	}
	g.primeAppendState(recs)
	// Seed the placement index with the group's own rows, so the
	// restart's Get steps resolve locally instead of paying a LookupWrites
	// round trip and a broadcast per step for rows that just arrived. The
	// first row of a rewritten slab wins, as it does in LookupWrites.
	for _, rec := range recs {
		if _, ok := g.byName[rec.Dataset]; !ok {
			continue
		}
		if _, dup := g.index.recs[writeKey{rec.Dataset, rec.Timestep}]; !dup {
			g.index.add(rec)
		}
	}
	s.groups = append(s.groups, g)
	return g, nil
}

// primeAppendState advances the per-file append cursors past
// everything the old run wrote, so a reattached group's new writes
// land after the existing data. Two signals are combined: exact slab
// ends from the execution table for datasets this group knows, and
// each file's current size as a floor — the latter protects datasets
// that share the file but were not named in OpenGroup (a level-3
// group reopened as a subset must not clobber its siblings).
func (g *Group) primeAppendState(recs []catalog.WriteRecord) {
	if g.s.opts.Organization == Level1 {
		return // file per timestep: nothing to collide with
	}
	ends := make(map[string]int64)
	note := func(file string, end int64) {
		if cur, ok := ends[file]; !ok || end > cur {
			ends[file] = end
		}
	}
	for _, rec := range recs {
		if i, ok := g.byName[rec.Dataset]; ok {
			a := g.attrs[i]
			note(rec.FileName, rec.FileOffset+a.GlobalSize*a.Type.Size())
		} else {
			note(rec.FileName, 0) // unknown slab size; the size floor below covers it
		}
	}
	for file := range ends {
		if sz, err := g.s.env.FS.FileSize(file); err == nil {
			note(file, sz)
		}
	}
	for file, end := range ends {
		if g.uniform {
			if slabs := (end + g.slabSize - 1) / g.slabSize; slabs > g.appendSlab[file] {
				g.appendSlab[file] = slabs
			}
		} else if end > g.appendOff[file] {
			g.appendOff[file] = end
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
	sort.Slice(perm, func(a, b int) bool { return mapArr[perm[a]] < mapArr[perm[b]] })
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
// dataset's prefix, one string per call — enqueuePut resolves it once
// per queued put and the claim and the placement share that.
func (g *Group) fileFor(di int, timestep int64) string {
	if g.s.opts.Organization != Level1 {
		return g.fileNames[di]
	}
	var buf [96]byte
	b := append(buf[:0], g.fileNames[di]...)
	b = strconv.AppendInt(b, timestep, 10)
	b = append(b, ".dat"...)
	return string(b)
}

// open returns the cached handle for a file, opening it on first use.
// Level 1 callers close immediately after the access; levels 2 and 3
// keep handles open until Finalize, which is where the paper's
// open-cost differences between levels come from.
//
// Every file of a step takes its place from the step's cursor, opened
// here or not: the next aggregator set of ranks and, if this open creates
// the file, the next g.stripes servers from its first stripe on. A step
// of one file is where its name hash puts it, as mpiio.Open puts any
// file.
func (g *Group) open(name string, cur *mpiio.Cursor) (*openFile, error) {
	hints := g.s.opts.Hints
	if hints.CBNodes == 0 {
		hints.CBNodes = g.cbNodes
	}
	hints.StripingUnit = g.stripeUnit
	at := cur.Next(name, hints.CBNodes, g.stripes)
	if of, ok := g.files[name]; ok {
		return of, nil
	}
	f, err := mpiio.OpenAt(g.s.env.Comm, g.s.env.FS, name, pfs.CreateMode, hints, at)
	if err != nil {
		return nil, err
	}
	// Check a staging-buffer bundle out of the group's pool for the
	// file's lifetime: level-1 open-per-access patterns keep reusing one
	// warmed-up bundle, while concurrently pipelined per-file flushes
	// each hold their own.
	sc := g.scratch.Get()
	f.UseScratch(sc)
	of := &openFile{f: f, sc: sc}
	g.files[name] = of
	return of, nil
}

// closeFiles closes all cached handles (Finalize), returning their
// scratch bundles to the pool.
func (g *Group) closeFiles() error {
	var firstErr error
	for name, of := range g.files {
		if err := of.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		g.scratch.Put(of.sc)
		of.sc = nil
		delete(g.files, name)
	}
	return firstErr
}

// place computes where one slab written to file lands: the physical
// byte offset of the slab, recorded in the execution table — the next
// slab of the grid in a uniform group, the next byte in a mixed one.
func (g *Group) place(file string, slabBytes int64) int64 {
	switch {
	case g.s.opts.Organization == Level1:
		return 0
	case g.uniform:
		slab := g.appendSlab[file]
		g.appendSlab[file] = slab + 1
		return slab * g.slabSize
	default:
		off := g.appendOff[file]
		g.appendOff[file] = off + slabBytes
		return off
	}
}
