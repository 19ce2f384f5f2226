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
// access happens on rank 0 and results are broadcast, as the paper's
// design (process 0 records offsets in the execution table) prescribes.
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

// Options tunes an SDM instance.
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
	// ahead until this many tokens are outstanding.
	StepPipelineDepth int
	// AttachRun, when positive, attaches to an existing run_table row
	// instead of registering a new run — the restart path: a process
	// reopening a saved bundle can re-read (or extend) an earlier run's
	// datasets by name through the execution table. The run must exist,
	// and the file organization should match the one the run was
	// written with. See SDM.OpenGroup.
	AttachRun int64
	// Trace, when non-nil, records virtual-time spans for the rank's
	// step pipeline (staging, per-file collective flushes, catalog
	// batches) alongside whatever the substrates emit. The tracer only
	// observes clock values — it never advances them — so enabling it
	// leaves every simulated metric bit-identical. Nil disables tracing
	// at zero cost.
	Trace *obs.Tracer
	// Metrics, when non-nil, registers the manager's counters (steps,
	// flushed files, staged bytes, history fallbacks) with the registry.
	// Nil disables collection.
	Metrics *obs.Registry
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
type Env struct {
	Comm    *mpi.Comm
	FS      *pfs.System
	Catalog *catalog.Catalog
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
	// pending is the per-file dependency registry: it maps file names
	// to the asynchronous step flush still in flight over them. Any
	// number of tokens may be live as long as their target-file sets
	// are disjoint; a flush (or read) that would touch a pending file
	// implicitly Waits on just the conflicting token. tokens holds every
	// unwaited token (bounded by Options.StepPipelineDepth) so
	// EndStepAsync and Finalize can drain them in completion order.
	// recScratch is the
	// cross-group RecordWrites merge buffer. arenaPool recycles flush
	// staging arenas across epochs: each in-flight token owns the
	// arenas its flush staged through and returns them at Wait, so an
	// N-deep pipeline reaches a steady state of ~N arenas instead of
	// allocating one per step.
	pending    map[string]*StepToken
	tokens     []*StepToken
	tokenSeq   int64
	recScratch []catalog.WriteRecord
	arenaPool  [][]byte

	// reader is the sequential-read detector behind read-ahead: the
	// timestep and dataset list of the previous get-only step. getParts
	// is the current step's list; the two swap at every get-only step, so
	// their backing arrays are reused.
	reader struct {
		armed    bool // the step read its predecessor's successor: issue ahead
		timestep int64
		parts    []getPart // empty before the first get-only step
	}
	getParts []getPart
	// readOrd is readOrder's result, in readOrdBuf while a step reads
	// that few groups: a Manager's first get flush allocates nothing.
	readOrd    []int
	readOrdBuf [4]int

	// tracer and the manager-level counters. All stay nil when
	// observability is off; obs methods no-op on nil receivers, so the
	// hot paths need no second flag.
	tracer       *obs.Tracer
	stepCount    *obs.Counter
	flushedFiles *obs.Counter
	stagedBytes  *obs.Counter
	// historyFallbacks counts PartitionIndex calls that found a
	// registered history but could not trust its file.
	historyFallbacks *obs.Counter
}

// pid is this rank's trace track.
func (s *SDM) pid() int { return obs.PidRank(s.env.Comm.Rank()) }

// takeArena checks a staging arena of at least n bytes out of the
// pool: the first pooled buffer large enough is reused; otherwise one
// pooled buffer is replaced by a fresh allocation, keeping the pool
// bounded by the pipeline depth.
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

// putArena returns a staging arena to the pool (Wait and Finalize call
// it when a token's flush is joined).
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
	s := &SDM{env: env, app: app, opts: opts, pending: make(map[string]*StepToken)}
	s.tracer = opts.Trace
	if s.tracer != nil {
		s.tracer.NameProcess(s.pid(), fmt.Sprintf("rank %d", env.Comm.Rank()))
	}
	if r := opts.Metrics; r != nil {
		s.stepCount = r.Counter("core.steps")
		s.flushedFiles = r.Counter("core.flushed-files")
		s.stagedBytes = r.Counter("core.staged-bytes")
		s.historyFallbacks = r.Counter("core.history-fallbacks")
	}
	var runID int64
	var initErr error
	if env.Comm.Rank() == 0 {
		if err := env.Catalog.EnsureSchema(); err != nil {
			initErr = err
		} else if opts.AttachRun > 0 {
			run, err := env.Catalog.LookupRun(env.Comm.Clock(), opts.AttachRun)
			switch {
			case err != nil:
				initErr = err
			case run == nil:
				initErr = fmt.Errorf("core: no run %d in run_table to attach to", opts.AttachRun)
			default:
				runID = run.RunID
			}
		} else {
			runID, initErr = env.Catalog.RegisterRun(env.Comm.Clock(), app, 3, 0, 0, runStamp)
		}
	}
	errFlag := int64(0)
	if initErr != nil {
		errFlag = 1
	}
	if env.Comm.AllreduceInt64(errFlag, mpi.OpMax) != 0 {
		return nil, fmt.Errorf("core: Initialize: %v", initErr)
	}
	s.runID = env.Comm.Bcast(0, runID, 8).(int64)
	return s, nil
}

// RunID reports the run identifier allocated in run_table.
func (s *SDM) RunID() int64 { return s.runID }

// Comm exposes the communicator (for applications layering extra
// communication on SDM's).
func (s *SDM) Comm() *mpi.Comm { return s.env.Comm }

// catalogCall runs fn on rank 0 only and broadcasts success; other
// ranks wait. fn may be nil on non-zero ranks.
func (s *SDM) catalogCall(fn func() error) error {
	var err error
	if s.env.Comm.Rank() == 0 {
		err = fn()
	}
	flag := int64(0)
	if err != nil {
		flag = 1
	}
	if s.env.Comm.AllreduceInt64(flag, mpi.OpMax) != 0 {
		return fmt.Errorf("core: metadata operation failed: %v", err)
	}
	return nil
}

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
