// Package core implements SDM — the Scientific Data Manager of the
// paper — for irregular applications. It is the layer between the
// application and the substrates: it stores real data through MPI-IO
// style collective I/O (internal/mpiio) on a striped parallel file
// system (internal/pfs), and all metadata in a relational database
// (internal/metadb via internal/catalog).
//
// The API mirrors the paper's C interface:
//
//	SDM_initialize            -> Initialize
//	SDM_make_datalist /
//	SDM_associate_attributes /
//	SDM_set_attributes        -> MakeDatalist, SetAttributes -> *Group
//	SDM_data_view             -> Group.DataView
//	SDM_write / SDM_read      -> Dataset[T].Put / Get inside BeginStep/EndStep
//	                             (PutAt / GetAt: the one-call form)
//	SDM_make_importlist       -> MakeImportlist -> *Importer
//	SDM_import                -> Importer.QueueContiguous / QueueView + Flush
//	SDM_partition_table       -> PartitionTable
//	SDM_partition_index       -> PartitionIndex (history-aware)
//	SDM_partition_index_size  -> IndexPartition.NumEdges
//	SDM_partition_data_size   -> IndexPartition.NumNodes
//	SDM_index_registry        -> IndexRegistry
//	SDM_release_importlist    -> Importer.Release
//	SDM_finalize              -> Finalize
//
// Every call is collective over the communicator unless noted. Database
// access happens on rank 0 and results are broadcast (onRoot), as the
// paper's design (process 0 records offsets in the execution table)
// prescribes.
package core

import (
	"fmt"
	"time"

	"sdm/internal/catalog"
	"sdm/internal/mpi"
	"sdm/internal/mpiio"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
	"sdm/internal/wire"
)

// DataType enumerates the element types SDM stores, matching the
// paper's metadata values.
type DataType int

// Supported element types.
const (
	Double  DataType = iota // 8-byte float64, metadata value "DOUBLE"
	Integer                 // 4-byte int32, metadata value "INTEGER"
	Long                    // 8-byte int64, metadata value "LONG"
)

// entry is the type's row in the one table of element types,
// wire.DataTypes, which this enumeration indexes; a value outside it
// reads as Double.
func (d DataType) entry() (name string, size int64) {
	if d < 0 || int(d) >= len(wire.DataTypes) {
		d = Double
	}
	return wire.DataTypes[d].Name, wire.DataTypes[d].Size
}

// Size reports the element size in bytes.
func (d DataType) Size() int64 {
	_, size := d.entry()
	return size
}

func (d DataType) String() string {
	name, _ := d.entry()
	return name
}

// ParseDataType maps a metadata value ("DOUBLE", "INTEGER", "LONG")
// back to its DataType, for reconstructing attributes from the
// catalog.
func ParseDataType(s string) (DataType, error) {
	for i, t := range wire.DataTypes {
		if t.Name == s {
			return DataType(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown data type %q", s)
}

// FileOrganization selects among the paper's three ways of organizing
// data in files.
type FileOrganization int

const (
	// Level1 writes each dataset of each timestep to its own file:
	// simple, but pays file-open and file-close costs at every step.
	Level1 FileOrganization = iota + 1
	// Level2 appends all timesteps of one dataset to one file.
	Level2
	// Level3 stores every timestep of every dataset of a group in a
	// single file, with offsets tracked in the execution table.
	Level3
)

func (l FileOrganization) String() string {
	return fmt.Sprintf("level%d", int(l))
}

// The processor model behind every ComputeItems charge: fixed, because
// the figures are calibrated against them and nothing ever set another.
const (
	// edgeScanRate is the simulated rate (edges/second) at which a rank
	// examines edges during index partitioning, an R10000-era processing
	// rate. It determines the computation share of the paper's "index
	// distri." cost.
	edgeScanRate = 4e6
	// memCopyRate is the simulated memory bandwidth (bytes/second) for
	// buffer assembly, era-appropriate.
	memCopyRate = 150e6
)

// Options tunes an SDM instance: its file layout, its collective-I/O
// hints, its step pipeline and the run it attaches to. Observability is
// the machine's, not an option: the tracer and the metrics registry come
// in through Env.
type Options struct {
	// Organization selects the file layout (default Level3).
	Organization FileOrganization
	// Hints passes MPI-IO hints through to collective I/O. CBNodes and
	// StripingUnit left at zero are chosen per data group from its
	// dataset attributes (see Group.layout).
	Hints mpiio.Hints
	// StepPipelineDepth bounds how many asynchronous step flushes
	// (unwaited StepTokens) may be in flight at once across the
	// manager. EndStepAsync drains the earliest-completing tokens down
	// to the bound before issuing a new flush; a step that queued
	// nothing issues none, so it neither drains nor counts. Depth 1 (the
	// default) keeps the classic one-outstanding-flush schedule; deeper
	// pipelines let file-per-timestep layouts stream checkpoints
	// back-to-back over disjoint files. The bound counts read-ahead
	// too: a sequential reader closing its Get steps with the
	// synchronous EndStep has the following timesteps' reads issued
	// ahead until this many tokens are outstanding — from its first
	// step when that step reads the run's first checkpoint, from its
	// second sequential step otherwise.
	StepPipelineDepth int
	// AttachRun, when positive, attaches to an existing run_table row
	// instead of registering a new run — the restart path: a process
	// reopening a saved bundle can re-read (or extend) an earlier run's
	// datasets by name through the execution table. The run must exist,
	// and the file organization should match the one the run was
	// written with. See SDM.OpenGroup.
	AttachRun int64
}

func (o *Options) fill() {
	if o.Organization == 0 {
		o.Organization = Level3
	}
	if o.StepPipelineDepth <= 0 {
		o.StepPipelineDepth = 1
	}
}

// runStamp is the wall-clock time every run records in run_table: a
// fixed date, so a run's catalog is reproducible byte for byte.
var runStamp = time.Date(2001, 2, 20, 12, 0, 0, 0, time.UTC)

// Env bundles the substrate an SDM instance runs on. The file system
// and catalog are shared across ranks; the communicator is per rank.
// Trace and Metrics are the machine's observability (sdm's
// Proc.Initialize fills them from Cluster.SetTracer/SetMetrics); nil
// turns it off at zero cost, and a tracer only observes clock values, so
// a traced run's simulated metrics are bit-identical to an untraced one.
type Env struct {
	Comm    *mpi.Comm
	FS      *pfs.System
	Catalog *catalog.Catalog
	Trace   *obs.Tracer   // spans: staging, per-file flushes, catalog batches
	Metrics *obs.Registry // counters: steps, flushed files, staged bytes, history fallbacks
}

// SDM is one rank's handle on the data manager (the result of
// SDM_initialize).
type SDM struct {
	env   Env
	app   string
	runID int64
	opts  Options

	groups    []*Group
	importers []*Importer

	// asyncDone tracks completion times of asynchronous history writes
	// to be joined at Finalize.
	asyncDone []sim.Time

	// step is the open step (SDM.BeginStep): its timestep and the groups
	// registered when it opened, whose epochs it merges into one
	// rendezvous.
	step struct {
		open     bool
		timestep int64
		groups   []*Group
	}
	// tokens holds every unwaited token (bounded by
	// Options.StepPipelineDepth) in issue order: EndStepAsync and Finalize
	// drain them in completion order, and they are the one record of which
	// files a flush in flight writes or has read ahead (see step.go).
	// spares lists the flights waited tokens handed back.
	// recScratch is the cross-group RecordWrites merge buffer. arenaPool
	// recycles staging arenas: a flush runs in host time inside
	// EndStepAsync, so its arenas come back when it returns, and only a
	// read-ahead token, whose bytes wait for the Get step that consumes
	// them, holds arenas across calls.
	tokens     []*StepToken
	tokenSeq   int64
	spares     *flight
	recScratch []catalog.WriteRecord
	arenaPool  [][]byte
	// scratch is the rank's one mpiio staging bundle, installed on every
	// file the Manager opens — group files, import files, the history
	// replay. The rank runs their collectives one after another, so one
	// bundle serves them all.
	scratch mpiio.Scratch

	// reader is the sequential-read detector behind read-ahead: the
	// timestep and a copy of the dataset list of the previous get-only
	// step. getParts is the current step's list; both keep their backing
	// arrays across steps.
	reader struct {
		armed    bool // the step read the first checkpoint or its predecessor's successor: issue ahead
		timestep int64
		parts    []getPart // empty before the first get-only step
	}
	getParts []getPart
	// readOrd is readOrder's result, in readOrdBuf while a step reads
	// that few groups: a Manager's first get flush allocates nothing.
	readOrd    []int
	readOrdBuf [4]int

	// The manager-level counters, registered with env.Metrics. All stay
	// nil when observability is off (as env.Trace does); obs methods no-op
	// on nil receivers, so the hot paths need no second flag.
	stepCount    *obs.Counter
	flushedFiles *obs.Counter
	stagedBytes  *obs.Counter
	// historyFallbacks counts PartitionIndex calls that found a
	// registered history but could not trust it: its file is damaged, or
	// it was computed from another partition or another edge import.
	historyFallbacks *obs.Counter
}

// pid is this rank's trace track.
func (s *SDM) pid() int { return obs.PidRank(s.env.Comm.Rank()) }

// takeArena checks a staging arena of at least n bytes out of the
// pool: the first pooled buffer large enough is reused; otherwise one
// pooled buffer is replaced by a fresh allocation, keeping the pool no
// larger than the most arenas ever live at once.
func (s *SDM) takeArena(n int64) []byte {
	for i, buf := range s.arenaPool {
		if int64(cap(buf)) >= n {
			last := len(s.arenaPool) - 1
			s.arenaPool[i] = s.arenaPool[last]
			s.arenaPool[last] = nil
			s.arenaPool = s.arenaPool[:last]
			return buf[:n]
		}
	}
	if last := len(s.arenaPool) - 1; last >= 0 {
		s.arenaPool[last] = nil
		s.arenaPool = s.arenaPool[:last]
	}
	return make([]byte, n)
}

// putArena returns a staging arena to the pool: when a step closes, when
// a read-ahead token is joined, and when an import epoch ends.
func (s *SDM) putArena(buf []byte) {
	if cap(buf) > 0 {
		s.arenaPool = append(s.arenaPool, buf)
	}
}

// Initialize establishes the database connection, creates the six
// metadata tables if needed, and registers this run. Collective.
func Initialize(env Env, app string, opts Options) (*SDM, error) {
	opts.fill()
	if env.Comm == nil || env.FS == nil || env.Catalog == nil {
		return nil, fmt.Errorf("core: Env requires Comm, FS and Catalog")
	}
	s := &SDM{env: env, app: app, opts: opts}
	if env.Trace != nil {
		env.Trace.NameProcess(s.pid(), fmt.Sprintf("rank %d", env.Comm.Rank()))
	}
	if r := env.Metrics; r != nil {
		s.stepCount = r.Counter("core.steps")
		s.flushedFiles = r.Counter("core.flushed-files")
		s.stagedBytes = r.Counter("core.staged-bytes")
		s.historyFallbacks = r.Counter("core.history-fallbacks")
	}
	runID, err := onRoot(s, "core: Initialize", func(clk *sim.Clock) (int64, int64, error) {
		if err := env.Catalog.EnsureSchema(); err != nil {
			return 0, 8, err
		}
		if opts.AttachRun <= 0 {
			id, err := env.Catalog.RegisterRun(clk, app, 3, 0, 0, runStamp)
			return id, 8, err
		}
		run, err := env.Catalog.FindRun(clk, opts.AttachRun)
		if err != nil {
			return 0, 8, fmt.Errorf("core: cannot attach: %w", err)
		}
		return run.RunID, 8, nil
	})
	if err != nil {
		return nil, err
	}
	s.runID = runID
	return s, nil
}

// RunID reports the run identifier allocated in run_table.
func (s *SDM) RunID() int64 { return s.runID }

// Comm exposes the communicator (for applications layering extra
// communication on SDM's).
func (s *SDM) Comm() *mpi.Comm { return s.env.Comm }

// Attr describes one dataset of a data group (the result of
// SDM_make_datalist plus SDM_associate_attributes).
type Attr struct {
	Name       string
	Type       DataType
	GlobalSize int64 // elements in the global array
	// Pattern is the registered access pattern (default "IRREGULAR").
	Pattern string
	// Order is the storage order (default "ROW_MAJOR").
	Order string
}

func (a *Attr) fill() {
	if a.Pattern == "" {
		a.Pattern = "IRREGULAR"
	}
	if a.Order == "" {
		a.Order = "ROW_MAJOR"
	}
}

// MakeDatalist builds a default attribute list for the named datasets,
// to be adjusted and passed to SetAttributes — the paper's
// SDM_make_datalist idiom.
func MakeDatalist(names ...string) []Attr {
	out := make([]Attr, len(names))
	for i, n := range names {
		out[i] = Attr{Name: n, Type: Double}
	}
	return out
}

// Finalize joins outstanding asynchronous writes, closes group files,
// and synchronizes. Collective. A step still open is cancelled, its
// queued operations dropped, and reported as an error.
func (s *SDM) Finalize() error {
	var firstErr error
	if s.step.open {
		firstErr = fmt.Errorf("core: Finalize with step %d open; its queued puts and gets were dropped", s.step.timestep)
		s.cancelStep()
	}
	// Join asynchronous history writes: the rank blocks until its async
	// I/O has drained, the virtual-time analogue of waiting on an
	// MPI_Request from a split-collective write.
	for _, done := range s.asyncDone {
		s.env.Comm.Clock().AdvanceTo(done)
	}
	s.asyncDone = nil
	// Drain unwaited split-collective step tokens, so an application
	// that issued EndStepAsync without a matching Wait still charges the
	// flush before its files close.
	if err := s.DrainSteps(); err != nil && firstErr == nil {
		firstErr = err
	}
	for _, g := range s.groups {
		if err := g.closeFiles(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, imp := range s.importers {
		if !imp.released {
			if err := imp.Release(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	s.env.Comm.Barrier()
	return firstErr
}
