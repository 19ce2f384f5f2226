// Package sdm is the public API of this reproduction of "A Scientific
// Data Management System for Irregular Applications" (No, Thakur,
// Kaushik, Freitag, Choudhary; IPDPS 2001).
//
// SDM (Scientific Data Manager) combines parallel file I/O with
// database-resident metadata behind a small high-level interface. For
// irregular (unstructured-mesh) applications it handles importing
// externally created mesh files, partitioning index (edge) arrays with
// a ring distribution driven by a partitioning vector, distributing the
// physical data attached to nodes and edges through noncontiguous
// collective I/O, writing results ordered by global node number under
// three selectable file organizations, and replaying index
// distributions from history files registered in the database.
//
// Everything the paper's system needed from its environment — MPI,
// MPI-IO, a striped parallel file system, MySQL, MeTis, and the two
// applications (a FUN3D-like CFD code and a Rayleigh–Taylor instability
// code) — is implemented in this module's internal packages; package
// sdm re-exports the user-facing surface.
//
// # Quick start
//
//	cluster := sdm.NewCluster(sdm.ClusterConfig{Procs: 4})
//	err := cluster.Run(func(p *sdm.Proc) {
//		s, _ := p.Initialize("myapp", sdm.Options{Organization: sdm.Level3})
//		defer s.Finalize()
//
//		attrs := sdm.MakeDatalist("density", "energy")
//		for i := range attrs {
//			attrs[i].GlobalSize = 1_000_000
//		}
//		g, _ := s.SetAttributes(attrs)
//		g.DataView([]string{"density", "energy"}, myMapArray)
//		density, _ := sdm.DatasetOf[float64](g, "density")
//		energy, _ := sdm.DatasetOf[float64](g, "energy")
//		for ts := int64(0); ts < steps; ts++ {
//			s.BeginStep(ts)        // open the step
//			density.Put(myDensity) // queued zero-copy
//			energy.Put(myEnergy)
//			s.EndStep()            // one merged collective for the whole step
//		}
//	})
//
// See examples/ for complete irregular-application walkthroughs.
package sdm

import (
	"sdm/internal/core"
	"sdm/internal/mpiio"
	"sdm/internal/obs"
)

// Re-exported core types. Manager is one rank's handle on the data
// manager (the paper's SDM handle).
type (
	// Manager is the per-process SDM instance (SDM_initialize result).
	Manager = core.SDM
	// Options tunes a Manager (file organization, hints, step pipeline,
	// attach); observability is the cluster's (SetTracer/SetMetrics).
	Options = core.Options
	// Attr describes one dataset of a data group.
	Attr = core.Attr
	// Group is a registered data group (SDM_set_attributes result).
	Group = core.Group
	// View is a compiled irregular data mapping (SDM_data_view result).
	View = core.View
	// ImportSpec describes one array in an externally created file.
	ImportSpec = core.ImportSpec
	// Importer is an active import list (SDM_make_importlist result).
	Importer = core.Importer
	// ImportHandle is one array queued on an Importer's epoch; its
	// result is valid after Importer.Flush.
	ImportHandle = core.ImportHandle
	// IndexPartition is a distributed edge set (SDM_partition_index
	// result), including ghost edges and the node map arrays.
	IndexPartition = core.IndexPartition
	// DataType enumerates storable element types.
	DataType = core.DataType
	// FileOrganization selects the paper's level 1/2/3 file layouts.
	FileOrganization = core.FileOrganization
	// OriginalPartitionResult carries the non-SDM baseline's result.
	OriginalPartitionResult = core.OriginalPartitionResult
	// Hints passes MPI-IO tuning knobs (aggregator count, stripe unit of
	// created files, collective on/off) through Options.
	Hints = mpiio.Hints
)

// Element types.
const (
	Double  = core.Double
	Integer = core.Integer
	Long    = core.Long
)

// File organization levels (paper Section 3.2).
const (
	Level1 = core.Level1
	Level2 = core.Level2
	Level3 = core.Level3
)

// MakeDatalist builds a default attribute list for the named datasets
// (the paper's SDM_make_datalist idiom).
func MakeDatalist(names ...string) []Attr { return core.MakeDatalist(names...) }

// NewView builds a standalone irregular view from a map array, for use
// with Importer.QueueView.
func NewView(mapArr []int32, t DataType, globalSize int64) (*View, error) {
	return core.NewView(mapArr, t, globalSize)
}

// StepToken is the handle of an asynchronous (split-collective) step
// flush, returned by Manager.EndStepAsync: the step's collectives have
// been issued on a forked virtual sub-timeline and Wait joins the
// completion back into the rank's clock, charging only whatever
// subsequent computation did not overlap — the paper's asynchronous
// history-file write generalized to every dataset. A step is the
// Manager's: Manager.BeginStep opens it over every registered group,
// and EndStep or EndStepAsync flushes what every group queued in one
// rendezvous with a single execution-table batch.
//
// Flush dependencies are tracked per file: up to
// Options.StepPipelineDepth tokens stay in flight as long as their
// target-file sets are disjoint, conflicts implicitly join just the
// conflicting token, and Manager.DrainSteps (or Finalize) joins
// whatever is still outstanding in completion order — so checkpoint
// loops can pipeline without holding tokens at all.
type StepToken = core.StepToken

// Observability (see internal/obs): a Tracer records spans of virtual
// time — application steps, per-file collective flushes, PFS server
// busy windows, catalog calls — against the simulated clocks, and a
// Registry collects counters/gauges/histograms plus snapshots of the
// substrates' existing statistics. Both are nil-safe no-ops when
// disabled, and tracing never perturbs a simulated timestamp. Install
// with Cluster.SetTracer/SetMetrics before Run; export with
// Tracer.WriteChromeFile (Perfetto/chrome://tracing) and analyze with
// cmd/sdmtrace.
type (
	// Tracer records virtual-time spans for Chrome-trace export.
	Tracer = obs.Tracer
	// Registry holds named metrics and subsystem snapshot sources.
	Registry = obs.Registry
)

// NewTracer returns an empty span tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Element constrains the Go element types typed dataset handles store:
// float64 (DOUBLE), int32 (INTEGER), int64 (LONG).
type Element = core.Element

// Dataset is a typed handle on one dataset of a group. Inside a
// Manager.BeginStep/EndStep step, Put and Get queue operations
// zero-copy against the caller's slices and EndStep flushes the whole
// timestep as one merged collective; PutAt/GetAt wrap one-operation
// steps.
type Dataset[T Element] = core.Dataset[T]

// DatasetOf builds a typed handle on a registered dataset; the element
// type must match the dataset's registered DataType.
func DatasetOf[T Element](g *Group, name string) (*Dataset[T], error) {
	return core.DatasetOf[T](g, name)
}
