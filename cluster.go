package sdm

import (
	"sdm/internal/catalog"
	"sdm/internal/core"
	"sdm/internal/metadb"
	"sdm/internal/mpi"
	"sdm/internal/obs"
	"sdm/internal/pfs"
	"sdm/internal/sim"
)

// ClusterConfig assembles a simulated parallel machine: the process
// count, the interconnect, the striped storage system, and the metadata
// database cost.
type ClusterConfig struct {
	// Procs is the number of ranks (default 4).
	Procs int
	// Network configures the simulated interconnect (default
	// mpi.DefaultConfig: 10us latency, 200 MB/s links).
	Network mpi.Config
	// Storage configures the parallel file system (default
	// pfs.DefaultConfig: 10 servers, 35 MB/s each, XFS-like cheap
	// opens).
	Storage pfs.Config
	// DBAccessCost is the virtual time per metadata query (default
	// catalog.AccessCost, ~2ms).
	DBAccessCost sim.Duration
}

func (c *ClusterConfig) fill() {
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.Network == (mpi.Config{}) {
		c.Network = mpi.DefaultConfig()
	}
	if c.Storage.NumServers == 0 {
		c.Storage = pfs.DefaultConfig()
	}
	if c.DBAccessCost == 0 {
		c.DBAccessCost = catalog.AccessCost
	}
}

// Origin2000Config is the calibrated profile of the paper's evaluation
// platform: a 128-processor SGI Origin2000 with XFS striped over 10
// Fibre Channel controllers, MySQL for metadata. Absolute numbers are
// approximations; the benchmark claims shape, not magnitude.
func Origin2000Config(procs int) ClusterConfig {
	return ClusterConfig{
		Procs:        procs,
		Network:      mpi.Config{Latency: 12_000, Bandwidth: 160e6},
		Storage:      pfs.DefaultConfig(),
		DBAccessCost: catalog.AccessCost,
	}
}

// Cluster is a fully assembled simulated machine: ranks, file system,
// and metadata database. Create one per application run (or reuse
// across runs to model persistent storage and metadata, as the history
// experiments do).
type Cluster struct {
	cfg     ClusterConfig
	World   *mpi.World
	FS      *pfs.System
	DB      *metadb.DB
	Catalog *catalog.Catalog

	tracer  *obs.Tracer
	metrics *obs.Registry
}

// NewCluster builds a cluster from the config.
func NewCluster(cfg ClusterConfig) *Cluster {
	cfg.fill()
	db := metadb.New()
	cat := catalog.New(db)
	cat.SetAccessCost(cfg.DBAccessCost)
	return &Cluster{
		cfg:     cfg,
		World:   mpi.NewWorld(cfg.Procs, cfg.Network),
		FS:      pfs.NewSystem(cfg.Storage),
		DB:      db,
		Catalog: cat,
	}
}

// Procs reports the rank count.
func (cl *Cluster) Procs() int { return cl.cfg.Procs }

// SetTracer installs a virtual-time span tracer across the cluster's
// substrates (PFS server busy windows, catalog calls) and every
// Manager subsequently created through Proc.Initialize. The tracer
// only observes clock values — it never advances them — so a traced
// run's simulated metrics are bit-identical to an untraced one. Call
// before Run; pass nil to disable.
func (cl *Cluster) SetTracer(t *obs.Tracer) {
	cl.tracer = t
	cl.FS.SetTracer(t)
	cl.Catalog.SetTracer(t)
}

// SetMetrics registers the substrates' statistics (pfs, catalog,
// metadb) as snapshot sources of r and threads the registry into every
// Manager subsequently created through Proc.Initialize. Call before
// Run; pass nil to disable.
func (cl *Cluster) SetMetrics(r *obs.Registry) {
	cl.metrics = r
	if r == nil {
		return
	}
	cl.FS.RegisterMetrics(r)
	cl.Catalog.RegisterMetrics(r)
}

// Proc is one rank's context inside Cluster.Run.
type Proc struct {
	Comm    *mpi.Comm
	cluster *Cluster
}

// Initialize creates this rank's Manager (the paper's SDM_initialize).
// The cluster's tracer and metrics registry (SetTracer/SetMetrics) are
// threaded into the Manager unless opts overrides them.
func (p *Proc) Initialize(app string, opts Options) (*Manager, error) {
	if opts.Trace == nil {
		opts.Trace = p.cluster.tracer
	}
	if opts.Metrics == nil {
		opts.Metrics = p.cluster.metrics
	}
	return core.Initialize(core.Env{Comm: p.Comm, FS: p.cluster.FS, Catalog: p.cluster.Catalog}, app, opts)
}

// Rank reports this process's rank.
func (p *Proc) Rank() int { return p.Comm.Rank() }

// Size reports the world size.
func (p *Proc) Size() int { return p.Comm.Size() }

// Run executes fn once per rank, the ranks taking turns (see
// mpi.World.Run), and waits for completion. It may be called repeatedly
// on one cluster; virtual clocks carry over, modelling successive phases
// or application runs on the same machine.
func (cl *Cluster) Run(fn func(*Proc)) error {
	return cl.World.Run(func(c *mpi.Comm) {
		fn(&Proc{Comm: c, cluster: cl})
	})
}

// StageFile places data into the simulated file system without cost
// accounting — the mechanism for providing externally created input
// files (the paper's uns3d.msh).
func (cl *Cluster) StageFile(name string, data []byte) error {
	return cl.FS.WriteFile(name, data)
}

// ReadFile returns a stored file's contents without cost accounting,
// for verification.
func (cl *Cluster) ReadFile(name string) ([]byte, error) {
	return cl.FS.ReadFile(name)
}

// ListFiles lists the simulated file system's contents.
func (cl *Cluster) ListFiles() []string { return cl.FS.List() }

// Elapsed reports the virtual makespan so far: the latest rank clock.
func (cl *Cluster) Elapsed() sim.Duration {
	return sim.Duration(cl.World.MaxTime())
}

// SaveBundle persists the cluster as a self-contained run bundle:
// metadata catalog plus every simulated file's bytes under dir, so a
// later OS process can OpenBundle and read earlier results by name
// through the database (replay an index history, re-read datasets via
// the execution table). The default layout stores one host file per
// simulated file; see SaveBundleOpts for content-addressed storage.
func (cl *Cluster) SaveBundle(dir string) error {
	return saveBundle(cl, dir, BundleOptions{})
}

// SaveBundleOpts is SaveBundle with an explicit storage choice —
// BundleOptions{Backend: "cas", Compress: true} stores deduplicated,
// compressed SHA-256 chunks. Re-saving into the same directory is
// incremental: unchanged chunks are reused.
func (cl *Cluster) SaveBundleOpts(dir string, opts BundleOptions) error {
	return saveBundle(cl, dir, opts)
}

// OpenBundle assembles a fresh cluster (new ranks, idle I/O servers)
// on top of a saved bundle: any interrupted save is first rolled
// forward or back through the write-ahead log, then the metadata
// catalog is loaded from the bundle's snapshot and the file system
// serves the bundle's bytes through its storage backend.
// Options.AttachRun plus Manager.OpenGroup then reopen an earlier
// run's datasets for reading or appending.
func OpenBundle(dir string, cfg ClusterConfig) (*Cluster, error) {
	return openBundle(dir, cfg, BundleOptions{})
}

// OpenBundleOpts is OpenBundle with storage-stack decorators: a
// non-nil opts.Retry wraps the bundle's backend in store.Retry so
// transient faults are masked on the read path, and opts.Faults
// injects faults beneath it (tests). The bundle's own format fields
// (Backend, Compress, ChunkSize) are taken from the saved manifest and
// ignored here.
func OpenBundleOpts(dir string, cfg ClusterConfig, opts BundleOptions) (*Cluster, error) {
	return openBundle(dir, cfg, opts)
}

// AttachStorage shares another cluster's file system and metadata
// catalog with this one, modelling a new job launched on the same
// machine: files and database contents persist, but the I/O servers
// start idle (their virtual schedules are reset to match this
// cluster's fresh clocks). Call before Run.
func (cl *Cluster) AttachStorage(from *Cluster) {
	cl.FS = from.FS
	cl.DB = from.DB
	cl.Catalog = from.Catalog
	cl.FS.ResetSchedules()
	// Re-wire observability onto the adopted substrates (sources replace
	// by name, so nothing double-reports).
	if cl.tracer != nil {
		cl.FS.SetTracer(cl.tracer)
		cl.Catalog.SetTracer(cl.tracer)
	}
	if cl.metrics != nil {
		cl.FS.RegisterMetrics(cl.metrics)
		cl.Catalog.RegisterMetrics(cl.metrics)
	}
}
