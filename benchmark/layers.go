package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"sdm"
	"sdm/internal/catalog"
	"sdm/internal/metadb"
	"sdm/internal/obs"
	"sdm/internal/store/objstore"
	"sdm/internal/wire"
	"sdm/internal/workloads"
)

// Per-layer metrics come from three places, all outside the program:
//
//	(c) counters and virtual-clock spans the packages already export,
//	    read around the phases of the traced rounds (this file);
//	(p) probes: direct calls into a layer's public functions with the
//	    shapes the workload produced, timed in CPU seconds (probes.go);
//	(s) CPU-profile samples of the traced rounds by package (cpuprof.go).
//
// Odd rounds of a traced run have cl.SetTracer/SetMetrics installed and
// even rounds do not, so the two kinds interleave in one process and
// their checkpoint-phase cost gives obs.trace_overhead_pct.

// layerState gathers the per-layer numbers of a traced run. Every hook
// is a no-op on a nil receiver, which is what end-to-end runs pass.
type layerState struct {
	m     map[string]float64
	units map[string]string

	traced  bool // the current round has the tracer installed
	stepCPU [2][]float64

	tracer   *obs.Tracer
	coreReg  *obs.Registry
	analysed bool

	nohistHost float64 // CPU seconds of the no-history import
	openCPU    []float64
	attachCPU  []float64

	fs0        pfsSnap
	cache0     wire.CacheStats
	served0    int64 // backend bytes read before the serve phase
	gets0      int64
	out0       int64
	db0        metadb.Stats
	ticks0     [2]int64 // stolen and total CPU ticks when the run began
	profile    bytes.Buffer
	profiling  bool
	profileErr error
}

type pfsSnap struct{ opens, views, wreqs, rreqs, bytes int64 }

func newLayerState() *layerState {
	l := &layerState{m: make(map[string]float64), units: make(map[string]string)}
	l.ticks0[0], l.ticks0[1] = stolenTicks()
	return l
}

func (l *layerState) put(name, unit string, v float64) {
	l.m[name], l.units[name] = v, unit
}

// beginRound decides whether the round is traced.
func (l *layerState) beginRound(n int) {
	if l != nil {
		l.traced = n%2 == 1
	}
}

// tracing says whether the current round has the tracer installed.
func (l *layerState) tracing() bool { return l != nil && l.traced }

func (l *layerState) startProfile() {
	if l == nil {
		return
	}
	if l.profileErr = pprof.StartCPUProfile(&l.profile); l.profileErr == nil {
		l.profiling = true
	}
}

func (l *layerState) stopProfile() {
	if l != nil && l.profiling {
		pprof.StopCPUProfile()
		l.profiling = false
	}
}

func (l *layerState) afterImport(r *runner, st *workloads.PartitionStats) {
	if l == nil {
		return
	}
	l.put("core.sim_import_nohist_s", "s", r.nohist.ImportSec)
	l.put("core.sim_distri_nohist_s", "s", r.nohist.DistributeSec)
	l.put("core.sim_distri_hist_s", "s", st.DistributeSec)
	l.put("core.import_nohist_host_s", "cpu-s", l.nohistHost*r.refScale())
	l.put("mpi.import_ring_bytes", "B", float64(r.nohist.CommBytesDelta))
}

func snapPFS(cl *sdm.Cluster) pfsSnap {
	st := cl.FS.Stats()
	return pfsSnap{opens: st.Opens, views: st.Views, wreqs: st.WriteReqs, rreqs: st.ReadRequests,
		bytes: st.BytesRead + st.BytesWritten}
}

func (l *layerState) beforeSteps(cc *sdm.Cluster) {
	if l == nil {
		return
	}
	l.tracer, l.coreReg = nil, nil
	if l.traced {
		l.tracer, l.coreReg = obs.NewTracer(), obs.NewRegistry()
		cc.SetTracer(l.tracer)
		cc.SetMetrics(l.coreReg)
	}
	l.fs0 = snapPFS(cc)
}

func (l *layerState) afterSteps(r *runner, cc *sdm.Cluster, c cost) {
	if l == nil {
		return
	}
	steps := float64(r.su.shape.steps)
	k := 0
	if l.traced {
		k = 1
	}
	l.stepCPU[k] = append(l.stepCPU[k], c.cpu)

	fs := snapPFS(cc)
	reqs := float64(fs.wreqs - l.fs0.wreqs + fs.rreqs - l.fs0.rreqs)
	l.put("pfs.write_reqs_per_step", "1/step", float64(fs.wreqs-l.fs0.wreqs)/steps)
	l.put("pfs.read_reqs_per_step", "1/step", float64(fs.rreqs-l.fs0.rreqs)/steps)
	l.put("pfs.opens_per_step", "1/step", float64(fs.opens-l.fs0.opens)/steps)
	l.put("pfs.views_per_step", "1/step", float64(fs.views-l.fs0.views)/steps)
	l.put("pfs.bytes_per_req", "B", float64(fs.bytes-l.fs0.bytes)/reqs)

	if !l.traced || l.analysed {
		return
	}
	l.analysed = true
	ranks := float64(r.wl.procs)
	a := obs.Analyze(l.tracer.ChromeTrace())
	var coreSelf, coreWait, p1, p2 float64
	for _, st := range a.SelfTimes {
		switch {
		case st.Cat == "core" && st.Name == "wait":
			coreWait += st.Total.Seconds()
		case st.Cat == "core":
			coreSelf += st.Self.Seconds()
		case st.Cat == "mpiio" && strings.HasPrefix(st.Name, "phase1"):
			p1 += st.Self.Seconds()
		case st.Cat == "mpiio" && strings.HasPrefix(st.Name, "phase2"):
			p2 += st.Self.Seconds()
		}
	}
	// Span times are summed over ranks; report the mean rank's.
	l.put("core.sim_self_s", "s", coreSelf/ranks)
	l.put("core.sim_wait_s", "s", coreWait/ranks)
	l.put("mpiio.sim_phase1_s", "s", p1/ranks)
	l.put("mpiio.sim_phase2_s", "s", p2/ranks)
	var busy, span, busiest float64
	for _, s := range a.Servers {
		busy += s.Busy.Seconds()
		span += s.Span.Seconds()
		busiest = max(busiest, s.Busyness())
	}
	frac := 0.0
	if span > 0 {
		frac = busy / span
	}
	l.put("pfs.server_busy_frac", "1", frac)
	l.put("pfs.server_busy_max_frac", "1", busiest)
	l.put("obs.spans_per_step", "1/step", float64(a.Spans)/steps)
	l.put("core.staged_bytes_per_step", "B/step", float64(l.coreReg.Snapshot()["core.staged-bytes"])/steps)
}

func (l *layerState) afterSave(reg *obs.Registry, svc *objstore.Service, dir string, wrote int64) {
	if l == nil {
		return
	}
	snap := reg.Snapshot()
	l.put("store.ops_per_save", "count", float64(snap["bundle.store.ops"]))
	l.put("store.bytes_written_per_save", "B", float64(snap["bundle.store.bytes-written"]))
	held, err := storedBytes(filepath.Join(dir, "data"), svc)
	if err != nil || held == 0 {
		held = 1
	}
	l.put("store.cas_dedup_ratio", "B/B", float64(snap["bundle.store.bytes-written"])/float64(held))
	var st objstore.Stats
	if svc != nil {
		st = svc.Stats()
	}
	l.put("objstore.requests_per_save", "count", float64(st.Requests))
	l.put("objstore.parts_per_save", "count", float64(st.Parts))
	// Everything a save writes to the host stays in the bundle except
	// the write-ahead log, which the save removes at the end.
	hostHeld, err := storedBytes(dir, nil)
	if err != nil {
		hostHeld = wrote
	}
	l.put("sdm.wal_bytes", "B", float64(max(wrote-hostHeld, 0)))
}

// openRegistry is the registry a traced round opens its bundle with, so
// the backend beneath the served file system keeps counting.
func (l *layerState) openRegistry() *obs.Registry {
	if l == nil {
		return nil
	}
	return obs.NewRegistry()
}

func (l *layerState) noteOpen(cpu float64) {
	if l != nil {
		l.openCPU = append(l.openCPU, cpu)
	}
}

func (l *layerState) afterRestart(r *runner, reg *obs.Registry, c cost) {
	if l == nil {
		return
	}
	l.attachCPU = append(l.attachCPU, c.cpu-l.openCPU[len(l.openCPU)-1])
	l.put("store.bytes_read_per_restart", "B", float64(reg.Snapshot()["bundle.store.bytes-read"]))
	l.put("sdm.open_s", "cpu-s", hostCost(l.openCPU, r.refCPU))
	l.put("sdm.attach_read_s", "cpu-s", hostCost(l.attachCPU, r.refCPU))
}

func (l *layerState) beforeServe(sv *servedBundle, reg *obs.Registry, svc *objstore.Service) {
	if l == nil {
		return
	}
	l.cache0 = sv.srv.CacheStats()
	l.served0 = reg.Snapshot()["bundle.store.bytes-read"]
	if svc != nil {
		st := svc.Stats()
		l.gets0, l.out0 = st.Gets, st.BytesOut
	}
}

func (l *layerState) afterServe(sv *servedBundle, reg *obs.Registry, svc *objstore.Service, served int64, mounts int) {
	if l == nil {
		return
	}
	cs := sv.srv.CacheStats()
	hits, misses := float64(cs.Hits-l.cache0.Hits), float64(cs.Misses-l.cache0.Misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	l.put("server.cache_hit_ratio", "1", ratio)
	l.put("server.cache_evictions", "count", float64(cs.Evictions-l.cache0.Evictions))
	l.put("server.cache_waits", "count", float64(cs.Waits-l.cache0.Waits))
	l.put("server.backend_bytes_per_served_byte", "B/B",
		float64(reg.Snapshot()["bundle.store.bytes-read"]-l.served0)/float64(served))
	var st objstore.Stats
	var gets, out int64
	if svc != nil {
		st = svc.Stats()
		gets, out = st.Gets-l.gets0, st.BytesOut-l.out0
	}
	l.put("objstore.gets_per_cold_pass", "count", float64(gets)/float64(mounts))
	l.put("objstore.bytes_out_per_served_byte", "B/B", float64(out)/float64(served))
	l.put("objstore.remote_time_s", "s", st.RemoteTime.Seconds())
	l.put("objstore.microcents", "count", float64(st.CostMicrocents))
}

func (l *layerState) beforeCatalog(rc *sdm.Cluster) {
	if l == nil {
		return
	}
	l.db0 = rc.DB.StatsSnapshot()
	rows := 0.0
	if row, err := rc.DB.QueryRow(`SELECT COUNT(*) FROM execution_table`); err == nil && row != nil {
		rows = float64(row[0].AsInt())
	}
	l.put("catalog.rows", "count", rows)
}

func (l *layerState) afterCatalog(rc *sdm.Cluster, cat catalogResult) {
	if l == nil {
		return
	}
	d := rc.DB.StatsSnapshot()
	keys := float64(max(cat.keys, 1))
	l.put("metadb.rows_scanned_per_key", "1", float64(d.RowsScanned-l.db0.RowsScanned)/keys)
	l.put("metadb.index_hits_per_key", "1", float64(d.IndexHits-l.db0.IndexHits)/keys)
	single := float64(d.PlanSingleShard - l.db0.PlanSingleShard)
	scatter := float64(d.PlanScatter - l.db0.PlanScatter)
	frac := 0.0
	if single+scatter > 0 {
		frac = single / (single + scatter)
	}
	l.put("metadb.single_shard_frac", "1", frac)
	l.put("metadb.shard_waits", "count", float64(d.ShardWaits-l.db0.ShardWaits))
}

// layerNames is every per-layer metric a traced run prints, in print
// order; BENCHMARK.json lists the same names.
var layerNames = []string{
	// Host figures of the lifecycle phases: see hostNames for why these
	// are here and not end-to-end.
	"step_host_MBps", "import_host_s", "save_MBps", "restart_s",
	"serve_read_MBps", "req_p50_us", "lookup_keys_per_s", "record_rows_per_s",
	"import_allocs", "step_alloc_MB", "save_allocs", "restart_allocs", "serve_allocs_per_req",
	"mesh.generate_s", "mesh.encode_s", "partition.partvec_s", "partition.edge_cut",
	"core.sim_self_s", "core.sim_wait_s", "core.sim_import_nohist_s", "core.sim_distri_nohist_s",
	"core.sim_distri_hist_s", "core.staged_bytes_per_step", "core.import_nohist_host_s", "core.host_share",
	"mpiio.sim_phase1_s", "mpiio.sim_phase2_s", "mpiio.collective_host_MBps", "mpiio.allocs_per_collective",
	"mpi.import_ring_bytes", "mpi.alltoall_host_MBps",
	"pfs.write_reqs_per_step", "pfs.read_reqs_per_step", "pfs.opens_per_step", "pfs.views_per_step",
	"pfs.bytes_per_req", "pfs.server_busy_frac", "pfs.server_busy_max_frac", "pfs.vec_host_MBps",
	"store.write_host_MBps", "store.read_host_MBps", "store.ops_per_save", "store.bytes_written_per_save",
	"store.bytes_read_per_restart", "store.cas_dedup_ratio",
	"objstore.requests_per_save", "objstore.parts_per_save", "objstore.gets_per_cold_pass",
	"objstore.bytes_out_per_served_byte", "objstore.remote_time_s", "objstore.microcents",
	"sdm.wal_overhead_pct", "sdm.wal_bytes", "sdm.open_s", "sdm.attach_read_s", "sdm.migrate_MBps",
	"sdm.migrate_files_copied", "sdm.fsck_s",
	"catalog.lookup_keys_per_s", "catalog.record_rows_per_s", "catalog.rows",
	"metadb.rows_scanned_per_key", "metadb.index_hits_per_key", "metadb.single_shard_frac",
	"metadb.shard_waits", "metadb.snapshot_bytes", "metadb.select_keys_per_s", "metadb.insert_rows_per_s",
	"metadb.load_s",
	"server.cache_hit_ratio", "server.cache_evictions", "server.cache_waits",
	"server.backend_bytes_per_served_byte", "server.handler_p50_us", "server.cache_hit_host_MBps",
	"server.req_p95_us", "server.req_p99_us",
	"sdmclient.overhead_us", "wire.lookup_bytes_per_key",
	"obs.trace_overhead_pct", "obs.spans_per_step",
	"host.ref_speed", "host.steal_frac", "host.cpu_s", "host.gc_cpu_frac",
	"cpu.core_pct", "cpu.mpiio_pct", "cpu.mpi_pct", "cpu.pfs_pct", "cpu.store_pct", "cpu.metadb_pct",
	"cpu.catalog_pct", "cpu.server_pct", "cpu.nethttp_pct", "cpu.runtime_pct", "cpu.bench_pct",
}

// layerMetrics finishes a traced run: the stand-alone probes, the CPU
// attribution, the host figures, the span file, and the result line.
func (r *runner) layerMetrics(res *result, spanFile string, logf func(string, ...any)) error {
	l := r.layer
	if l.profileErr != nil {
		return fmt.Errorf("CPU profile: %w", l.profileErr)
	}
	if err := r.standaloneProbes(); err != nil {
		return fmt.Errorf("probes: %w", err)
	}

	samples, err := parseProfile(l.profile.Bytes())
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	for b, pct := range attributeCPU(samples) {
		l.put("cpu."+b+"_pct", "%", pct)
	}

	if len(l.stepCPU[0]) > 0 && len(l.stepCPU[1]) > 0 {
		l.put("obs.trace_overhead_pct", "%", 100*(quantile(l.stepCPU[1], 0.25)/max(quantile(l.stepCPU[0], 0.25), 1e-6)-1))
	}
	for name, v := range r.hostFigures(logf) {
		l.put(name, v.Unit, v.Value)
	}
	p95, _ := percentile(r.reqLat, 95)
	p99, _ := percentile(r.reqLat, 99)
	l.put("server.req_p95_us", "us", p95)
	l.put("server.req_p99_us", "us", p99)
	l.put("sdmclient.overhead_us", "us", l.m["req_p50_us"]-l.m["server.handler_p50_us"])

	l.put("host.ref_speed", "1/cpu-s", 1/quantile(r.refCPU, 0.25))
	steal, total := stolenTicks()
	frac := 0.0
	if total > l.ticks0[1] {
		frac = float64(steal-l.ticks0[0]) / float64(total-l.ticks0[1])
	}
	l.put("host.steal_frac", "1", frac)
	l.put("host.cpu_s", "cpu-s", cpuSeconds())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l.put("host.gc_cpu_frac", "1", ms.GCCPUFraction)

	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return err
	}
	if err := r.rec.writeChrome(spanFile); err != nil {
		return err
	}
	logf("span_file=%s spans=%d", spanFile, len(r.rec.spans))

	for _, name := range layerNames {
		v, ok := l.m[name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", name)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: l.units[name]}
		logf("  %-38s %.9g %s", name, v, l.units[name])
	}
	if len(l.m) != len(layerNames) {
		return fmt.Errorf("measured %d per-layer metrics, the list names %d", len(l.m), len(layerNames))
	}
	return nil
}

// lookupWireBytes is the JSON a 64-key lookup puts on the wire, request
// plus response, per key.
func lookupWireBytes(keys []wire.WriteKey, recs []*wire.WriteRecord) (float64, error) {
	req, err := json.Marshal(wire.LookupRequest{Keys: keys})
	if err != nil {
		return 0, err
	}
	resp, err := json.Marshal(wire.LookupResponse{Records: recs})
	if err != nil {
		return 0, err
	}
	return float64(len(req)+len(resp)) / float64(len(keys)), nil
}

// roundCtx is what a round still holds open when the in-round probes
// run: the probes that need a live cluster, bundle and server.
type roundCtx struct {
	cc      *sdm.Cluster
	rc      *sdm.Cluster
	sv      *servedBundle
	dir     string
	runID   int64
	ownRows []catalog.WriteRecord
	plans   [][]readReq
}
