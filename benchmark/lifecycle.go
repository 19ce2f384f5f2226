package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdm"
	"sdm/internal/catalog"
	"sdm/internal/metadb"
	"sdm/internal/obs"
	"sdm/internal/server"
	"sdm/internal/store/objstore"
	"sdm/internal/wire"
	"sdm/internal/workloads"
	"sdm/sdmclient"
)

// The run lifecycle, executed once per round in this order:
//
//	import   history-path mesh import + index distribution
//	step     checkpoint steps written and read back
//	save     SaveBundleOpts into a fresh directory
//	restart  OpenBundle -> attach -> every rank reads the last checkpoint
//	serve    ranged reads through an in-process sdmd over TCP loopback
//	catalog  batched lookups over HTTP beside a catalog writer
//
// A round runs every phase once so that a slow window of the machine
// hits each phase in a couple of rounds at most; every phase of every
// round is one repetition for the estimator in stats.go. A phase whose
// body is short executes it several times (workload.*Reps); the
// repetition is the sum, and what the benchmark does in between — fresh
// clusters, verification — stays outside the clocks.

// clients is the closed-loop client count of the serve and catalog
// phases: analysis clients wait for each reply, and the load comes
// from this one process.
func clientCount() int { return min(runtime.NumCPU(), 2) }

// runner holds one workload run's state across rounds.
type runner struct {
	wl   workload
	su   *setup
	seed uint64
	root string // storage root for bundles, inside the checkout
	cfg  sdm.ClusterConfig

	bundles []savedBundle // what the latest round saved, kept until the next round saves

	importBase *sdm.Cluster              // staged mesh + registered history
	nohist     *workloads.PartitionStats // the ring-distribution result the history path must reproduce
	preload    []byte                    // catalog snapshot holding the preloaded rows
	preRows    []runRows                 // what the preloaded rows say, by run

	rec   *spanRecorder // nil unless tracing
	layer *layerState   // nil unless tracing

	// series holds, per metric, one cost per recorded round: CPU seconds
	// (per MB for the rates), or a count. refCPU holds every reference
	// kernel run of the recorded rounds.
	series map[string][]float64
	refCPU []float64
	// phase keeps every repetition's wall and CPU seconds by span name,
	// for the log.
	phase map[string][]cost
	// Wall latencies in microseconds of every served request, lookup
	// batch and writer batch of the recorded rounds.
	reqLat, lookupLat, recordLat []float64
	simVals                      map[string]float64
	// Byte ratios of the last save (they repeat exactly).
	storedPerUserByte, saveWriteAmp float64

	// roundRSS is the largest resident set seen at the end of a timed
	// execution of the current round (the runtime hands memory back to
	// the system lazily, so that is close to the execution's own peak);
	// peakRSS keeps it for every recorded round.
	roundRSS float64
	peakRSS  []float64

	attempted, failed int64
}

// runRows is the execution-table rows of one run that lookups may ask
// for.
type runRows struct {
	run  int64
	recs []catalog.WriteRecord
}

// preRow is the preloaded row of (run, dataset, timestep); the seed
// decides where it says the slab lies.
func (r *runner) preRow(run int64, ds int, ts int64) catalog.WriteRecord {
	h := (uint64(run)*1_000_003+uint64(ds))*1_000_033 + uint64(ts) + r.seed*7919
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	name := fmt.Sprintf("pre%02d", ds)
	return catalog.WriteRecord{
		RunID: run, Dataset: name, Timestep: ts,
		FileOffset: int64(h%(1<<28)) * 8,
		FileName:   fmt.Sprintf("pre_r%d_%s_t%d.dat", run, name, ts),
	}
}

// buildPreload records the workload's preloaded catalog rows in a
// fresh database and snapshots it; each round loads the snapshot into
// its checkpoint cluster before the application's own run registers.
func (r *runner) buildPreload() error {
	if r.wl.preRuns == 0 {
		return nil
	}
	db := metadb.New()
	cat := catalog.New(db)
	if err := cat.EnsureSchema(); err != nil {
		return err
	}
	stamp := time.Date(2001, 2, 19, 12, 0, 0, 0, time.UTC)
	for run := 1; run <= r.wl.preRuns; run++ {
		id, err := cat.RegisterRun(nil, "preload", 3, 0, int64(r.wl.preSteps), stamp)
		if err != nil {
			return err
		}
		rows := runRows{run: id}
		for ds := 0; ds < r.wl.preDatasets; ds++ {
			recs := make([]catalog.WriteRecord, r.wl.preSteps)
			for ts := range recs {
				recs[ts] = r.preRow(id, ds, int64(ts))
			}
			if err := cat.RecordWrites(nil, recs); err != nil {
				return err
			}
			rows.recs = append(rows.recs, recs...)
		}
		r.preRows = append(r.preRows, rows)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		return err
	}
	r.preload = buf.Bytes()
	return nil
}

func newRunner(wl workload, su *setup, seed uint64, root string) *runner {
	return &runner{
		wl: wl, su: su, seed: seed, root: root,
		cfg:     sdm.Origin2000Config(wl.procs),
		series:  make(map[string][]float64),
		phase:   make(map[string][]cost),
		simVals: make(map[string]float64),
	}
}

// savedBundle names one saved bundle: its directory and, on the remote
// tier, its endpoint.
type savedBundle struct{ dir, endpoint string }

// dropBundles deletes the bundles the last round saved, and their
// remotes.
func (r *runner) dropBundles() {
	for _, b := range r.bundles {
		os.RemoveAll(b.dir)
		if b.endpoint != "" {
			objstore.Drop(b.endpoint)
		}
	}
	r.bundles = nil
}

// check counts one verified operation.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(os.Stderr, "MISMATCH: "+format+"\n", args...)
		}
	}
}

func (r *runner) checkN(attempted, failed int, what string) {
	r.attempted += int64(attempted)
	if failed > 0 {
		r.failed += int64(failed)
		fmt.Fprintf(os.Stderr, "MISMATCH: %s: %d of %d differ\n", what, failed, attempted)
	}
}

// simValue records a virtual-clock quantity, which must repeat bit for
// bit from round to round.
func (r *runner) simValue(name string, v float64) {
	if old, ok := r.simVals[name]; ok {
		r.check(old == v, "%s changed between rounds: %v then %v", name, old, v)
	}
	r.simVals[name] = v
}

// cost is what one repetition of a phase took: seconds of wall clock
// and of process CPU time, heap objects and bytes allocated.
type cost struct {
	wall, cpu      float64
	mallocs, bytes float64
}

func (c *cost) add(d cost) {
	c.wall += d.wall
	c.cpu += d.cpu
	c.mallocs += d.mallocs
	c.bytes += d.bytes
}

// quiesce opens a phase: collect garbage (which also empties every
// sync.Pool, so each repetition starts from the same state) and run the
// reference kernel, both outside the clocks.
func (r *runner) quiesce(record bool) {
	runtime.GC()
	if ref := refKernel(); record {
		r.refCPU = append(r.refCPU, ref)
	}
}

// timed runs fn under the clocks and the allocation counters.
func (r *runner) timed(span string, fn func() error) (cost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := r.rec.begin(span)
	t0, cpu0 := time.Now(), cpuSeconds()
	err := fn()
	c := cost{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	end()
	runtime.ReadMemStats(&m1)
	c.mallocs, c.bytes = float64(m1.Mallocs-m0.Mallocs), float64(m1.TotalAlloc-m0.TotalAlloc)
	r.roundRSS = max(r.roundRSS, statusMB("VmRSS"))
	return c, err
}

// repetition keeps one phase's cost of one recorded round, for the log.
func (r *runner) repetition(span string, record bool, c cost) {
	if record {
		r.phase[span] = append(r.phase[span], c)
	}
}

// refScale converts raw CPU seconds measured in this run into
// reference-normalised ones (see hostCost).
func (r *runner) refScale() float64 {
	return refNominalCPU / quantile(r.refCPU, 0.25)
}

func (r *runner) add(name string, v float64) {
	r.series[name] = append(r.series[name], v)
}

// prepare does the once-per-run work that is not part of set-up time:
// run the no-history import once on the cluster the mesh was staged on,
// so a history file exists for the rounds to replay, and build the
// catalog preload.
func (r *runner) prepare() error {
	if err := os.MkdirAll(r.root, 0o755); err != nil {
		return err
	}
	end := r.rec.begin("workloads.ImportAndPartition(nohist)")
	cpu0 := cpuSeconds()
	st, err := r.su.f3d.ImportAndPartition(r.importBase, workloads.ModeSDM, true)
	host := cpuSeconds() - cpu0
	end()
	if err != nil {
		return err
	}
	r.check(!st.FromHistory, "first import found a history it should have had to create")
	r.nohist = st
	if r.layer != nil {
		r.layer.nohistHost = host
	}
	return r.buildPreload()
}

// round runs the lifecycle once. When record is false (the warm-up
// round) everything runs and is verified but nothing is kept.
func (r *runner) round(n int, record, last bool) error {
	r.rec.setRound(n)
	r.layer.beginRound(n)
	r.roundRSS = 0
	defer func() {
		if record {
			r.peakRSS = append(r.peakRSS, r.roundRSS)
		}
	}()
	su, wl := r.su, r.wl
	sh := &su.shape
	userBytes := float64(sh.steps) * float64(sh.userBytesPerStep())

	// ---- import ---------------------------------------------------
	// Each import is a new job on the machine that holds the mesh file
	// and the history: fresh ranks, idle I/O servers, shared storage.
	var imp *workloads.PartitionStats
	r.quiesce(record)
	c, err := r.timed("workloads.ImportAndPartition(history)", func() error {
		for i := 0; i < wl.importReps; i++ {
			ic := sdm.NewCluster(r.cfg)
			ic.AttachStorage(r.importBase) // resets the server schedules for the new job
			var err error
			if imp, err = su.f3d.ImportAndPartition(ic, workloads.ModeSDM, false); err != nil {
				return err
			}
			r.simValue("sim_import_s", imp.TotalSec)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("import: %w", err)
	}
	r.repetition("import", record, c)
	r.check(imp.FromHistory, "import did not take the history path")
	r.check(imp.LocalEdges == r.nohist.LocalEdges && imp.LocalNodes == r.nohist.LocalNodes,
		"history replay gave rank 0 %d edges/%d nodes, ring distribution gave %d/%d",
		imp.LocalEdges, imp.LocalNodes, r.nohist.LocalEdges, r.nohist.LocalNodes)
	if record {
		r.add("import_host_s", c.cpu/float64(wl.importReps))
		r.add("import_allocs", c.mallocs/float64(wl.importReps))
	}
	r.layer.afterImport(r, imp)

	// ---- checkpoint steps ------------------------------------------
	var cc *sdm.Cluster
	var ck ckptResult
	var ckpt cost
	r.quiesce(record)
	for i := 0; i < wl.ckptReps; i++ {
		cc = sdm.NewCluster(r.cfg)
		if r.preload != nil {
			if err := cc.DB.Load(bytes.NewReader(r.preload)); err != nil {
				return fmt.Errorf("loading preload: %w", err)
			}
		}
		r.layer.beforeSteps(cc)
		c, err := r.timed("app.runCheckpoints", func() error {
			var err error
			ck, err = runCheckpoints(cc, su, true)
			return err
		})
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		ckpt.add(c)
		att, bad := verifyReadBack(su, 0)
		r.checkN(att, bad, "checkpoint read-back")
		r.simValue("sim_write_MBps", ck.simWriteMBps)
		r.simValue("sim_read_MBps", ck.simReadMBps)
		r.layer.afterSteps(r, cc, c)
	}
	r.repetition("checkpoint", record, ckpt)
	if record && !r.layer.tracing() { // a traced run's step figures rest on its untraced rounds
		perStep := float64(wl.ckptReps * sh.steps)
		r.add("step_host_MBps", ckpt.cpu/(float64(wl.ckptReps)*2*userBytes/1e6))
		r.add("step_allocs", ckpt.mallocs/perStep)
		r.add("step_alloc_MB", ckpt.bytes/1e6/perStep)
	}
	ownRows, err := cc.Catalog.WritesForRun(nil, ck.runID)
	if err != nil {
		return err
	}
	r.check(len(ownRows) == sh.steps*sh.datasets(), "run recorded %d rows", len(ownRows))

	// ---- save -------------------------------------------------------
	// The previous round's bundles are deleted only now, immediately
	// before this round's saves, so that the file system reuses the
	// blocks and page-cache pages it has just freed. Deleted earlier (or
	// never), the kernel half of the same save costs 150 ms instead of
	// 10 ms, at random.
	r.dropBundles()
	var (
		dir  string
		svc  *objstore.Service
		save cost
	)
	r.quiesce(record)
	for i := 0; i < wl.saveReps; i++ {
		dir = filepath.Join(r.root, fmt.Sprintf("round-%03d-%d", n, i))
		opts := wl.bundle
		reg := obs.NewRegistry()
		opts.Metrics = reg
		svc = nil
		if opts.Backend == "obj" {
			opts.Endpoint = fmt.Sprintf("sim://benchmark/%d/%d/%d", os.Getpid(), n, i)
			svc = objstore.Dial(opts.Endpoint)
		}
		r.bundles = append(r.bundles, savedBundle{dir, opts.Endpoint})
		host0, remote0 := processWriteBytes(), remoteBytesIn(svc)
		c, err := r.timed("Cluster.SaveBundleOpts", func() error {
			return cc.SaveBundleOpts(dir, opts)
		})
		hostWrote, remoteWrote := processWriteBytes()-host0, remoteBytesIn(svc)-remote0
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
		save.add(c)
		r.layer.afterSave(reg, svc, dir, hostWrote)
		stored, err := storedBytes(dir, svc)
		if err != nil {
			return err
		}
		r.storedPerUserByte = float64(stored) / userBytes
		r.saveWriteAmp = float64(hostWrote+remoteWrote) / userBytes
	}
	r.repetition("save", record, save)
	if record {
		r.add("save_MBps", save.cpu/(float64(wl.saveReps)*userBytes/1e6))
		r.add("save_allocs", save.mallocs/float64(wl.saveReps))
	}

	// ---- restart ----------------------------------------------------
	var rc *sdm.Cluster
	var openReg *obs.Registry
	var restart cost
	r.quiesce(record)
	for i := 0; i < wl.restartReps; i++ {
		openReg = r.layer.openRegistry()
		c, err := r.timed("restart", func() error {
			cpu0 := cpuSeconds()
			end := r.rec.begin("sdm.OpenBundleOpts")
			var err error
			rc, err = sdm.OpenBundleOpts(dir, r.cfg, sdm.BundleOptions{Metrics: openReg})
			end()
			r.layer.noteOpen(cpuSeconds() - cpu0)
			if err != nil {
				return err
			}
			end = r.rec.begin("app.restartRead")
			err = restartRead(rc, su, ck.runID)
			end()
			return err
		})
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		restart.add(c)
		att, bad := verifyReadBack(su, sh.steps-wl.restartSteps)
		r.checkN(att, bad, "restart read")
		r.layer.afterRestart(r, openReg, c)
	}
	r.repetition("restart", record, restart)
	if record {
		r.add("restart_s", restart.cpu/float64(wl.restartReps))
		r.add("restart_allocs", restart.mallocs/float64(wl.restartReps))
	}

	// ---- serve ------------------------------------------------------
	sv, err := r.startServer(rc)
	if err != nil {
		return err
	}
	defer sv.stop()
	if wl.cache == cacheWarm {
		end := r.rec.begin("serve.warm")
		err := r.warmCache(sv, ck.runID)
		end()
		if err != nil {
			return fmt.Errorf("warming cache: %w", err)
		}
	}
	plans := r.servePlans(n)
	r.layer.beforeServe(sv, openReg, svc)
	var served int64
	lat := make([][]float64, len(plans))
	r.quiesce(record)
	c, err = r.timed("serve", func() error {
		var err error
		served, err = r.serve(sv, ck.runID, plans, lat)
		return err
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	r.repetition("serve", record, c)
	if record {
		all := flatten(lat)
		r.add("serve_read_MBps", c.cpu/(float64(served)/1e6))
		r.add("serve_allocs_per_req", c.mallocs/float64(len(all)))
		r.reqLat = append(r.reqLat, all...)
	}
	r.layer.afterServe(sv, openReg, svc, served, len(sv.clients))

	// ---- catalog ----------------------------------------------------
	r.layer.beforeCatalog(rc)
	var cat catalogResult
	r.quiesce(record)
	c, err = r.timed("catalog", func() error {
		var err error
		cat, err = r.catalogPhase(sv, rc.Catalog, ck.runID, ownRows, n)
		return err
	})
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	r.repetition("catalog", record, c)
	if record {
		r.lookupLat = append(r.lookupLat, cat.lookupLat...)
		r.recordLat = append(r.recordLat, cat.recordLat...)
	}
	r.layer.afterCatalog(rc, cat)
	if last && r.layer != nil {
		r.layer.stopProfile()
		return r.roundProbes(roundCtx{cc: cc, rc: rc, sv: sv, dir: dir, runID: ck.runID, ownRows: ownRows, plans: plans})
	}
	return nil
}

// ---------------------------------------------------------------------
// Byte accounting
// ---------------------------------------------------------------------

// processWriteBytes is the number of bytes this process has passed to
// write system calls (/proc/self/io wchar): what a save really pushed
// at the file system, whatever the storage format does. Zero where
// procfs does not say.
func processWriteBytes() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var n int64
		if _, err := fmt.Sscanf(string(line), "wchar: %d", &n); err == nil {
			return n
		}
	}
	return 0
}

// remoteBytesIn is the payload the simulated remote has received.
func remoteBytesIn(svc *objstore.Service) int64 {
	if svc == nil {
		return 0
	}
	return svc.Stats().BytesIn
}

// storedBytes is what a saved bundle holds: every host file under its
// directory plus, for a remote bundle, every object at its endpoint.
func storedBytes(dir string, svc *objstore.Service) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == dir && errors.Is(err, fs.ErrNotExist) {
				return filepath.SkipAll // a remote bundle keeps no data directory
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if err != nil || svc == nil {
		return total, err
	}
	after := ""
	for {
		keys, more, err := svc.List("", after, 1000)
		if err != nil {
			return 0, err
		}
		for _, k := range keys {
			size, _, err := svc.Head(k)
			if err != nil {
				return 0, err
			}
			total += size
			after = k
		}
		if !more {
			return total, nil
		}
	}
}

// statusMB reads one memory line of /proc/self/status ("VmHWM", the
// resident-set high-water mark, or "VmRSS", the resident set now) in
// megabytes; zero where procfs does not say.
func statusMB(key string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if name, rest, ok := bytes.Cut(line, []byte(":")); ok && string(name) == key {
			var kb float64
			if _, err := fmt.Sscanf(string(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// ---------------------------------------------------------------------
// Serve phase
// ---------------------------------------------------------------------

// servedBundle is an in-process sdmd over TCP loopback plus its
// clients.
type servedBundle struct {
	srv     *server.Server
	hs      *http.Server
	done    chan struct{}
	clients [][]*sdmclient.Client // [mount][client]; mount 0 is the daemon's default
	trs     []*http.Transport
}

// mountName is the name the bundle's k-th mount goes by.
func mountName(k int) string { return fmt.Sprintf("run%d", k) }

func (r *runner) cacheBytes() int64 {
	total := int64(r.su.shape.steps) * r.su.shape.userBytesPerStep()
	if r.wl.cache == cacheQuarter {
		return max(total/4, 2*server.DefaultBlockSize)
	}
	return 2*total + 4*server.DefaultBlockSize
}

func (r *runner) startServer(rc *sdm.Cluster) (*servedBundle, error) {
	srv := server.New(server.Config{CacheBytes: r.cacheBytes()})
	mounts := max(r.wl.coldMounts, 1)
	for k := 0; k < mounts; k++ {
		if err := srv.Mount(mountName(k), server.Source{Catalog: rc.Catalog, FS: rc.FS}); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv := &servedBundle{srv: srv, hs: &http.Server{Handler: srv}, done: make(chan struct{})}
	go func() {
		defer close(sv.done)
		_ = sv.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	base := "http://" + ln.Addr().String()
	sv.clients = make([][]*sdmclient.Client, mounts)
	for i := 0; i < clientCount(); i++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 4}
		sv.trs = append(sv.trs, tr)
		hc := &http.Client{Transport: tr, Timeout: time.Minute}
		for k := range sv.clients {
			sv.clients[k] = append(sv.clients[k], sdmclient.New(base, sdmclient.WithHTTPClient(hc), sdmclient.WithBundle(mountName(k))))
		}
	}
	return sv, nil
}

// stop shuts the server down and waits for its goroutine.
func (sv *servedBundle) stop() {
	for _, cs := range sv.clients {
		for _, c := range cs {
			_ = c.Detach() // best effort; the server is going away
		}
	}
	for _, tr := range sv.trs {
		tr.CloseIdleConnections()
	}
	_ = sv.hs.Close()
	<-sv.done
}

// warmCache reads every slab once so the timed pass hits.
func (r *runner) warmCache(sv *servedBundle, runID int64) error {
	su := r.su
	c := sv.clients[0][0]
	for gi, g := range su.shape.groups {
		for j, name := range g.names {
			for step := 0; step < su.shape.steps; step++ {
				got, err := c.ReadDataset(runID, name, su.shape.timestep(step))
				if err != nil {
					return err
				}
				r.check(bytes.Equal(got, su.expected(gi, j, step)), "warm read %s@%d differs", name, step)
			}
		}
	}
	return nil
}

// readReq is one planned ranged read.
type readReq struct {
	mount, group, j, step int
	off, n                int64
}

// servePlans draws each client's requests for a round from the seed.
// Warm and quarter-cache workloads draw random ranges; the cold
// workload sweeps every range of every mount exactly once, split
// between the clients, so each request misses.
func (r *runner) servePlans(round int) [][]readReq {
	su, wl := r.su, r.wl
	rng := newRNG(r.seed*1_000_003 + uint64(round)*101 + 17)
	var all []readReq
	for k := 0; k < max(wl.coldMounts, 1); k++ {
		for gi, g := range su.shape.groups {
			full := g.globalN * 8
			for j := range g.names {
				for step := 0; step < su.shape.steps; step++ {
					for off := int64(0); off < full; off += wl.rangeBytes {
						all = append(all, readReq{mount: k, group: gi, j: j, step: step, off: off, n: min(wl.rangeBytes, full-off)})
					}
				}
			}
		}
	}
	nc := clientCount()
	plans := make([][]readReq, nc)
	if wl.cache == cacheCold {
		for i := len(all) - 1; i > 0; i-- {
			k := rng.intn(i + 1)
			all[i], all[k] = all[k], all[i]
		}
		for i, q := range all {
			plans[i%nc] = append(plans[i%nc], q)
		}
		return plans
	}
	for c := range plans {
		plans[c] = make([]readReq, wl.serveReqs)
		for i := range plans[c] {
			plans[c][i] = all[rng.intn(len(all))]
		}
	}
	return plans
}

// serve runs the clients' plans concurrently, each client waiting for
// every reply, comparing every byte with what was written.
func (r *runner) serve(sv *servedBundle, runID int64, plans [][]readReq, lat [][]float64) (int64, error) {
	su := r.su
	var total atomic.Int64
	var bad atomic.Int64
	errs := make([]error, len(plans))
	parent := r.rec.current()
	var wg sync.WaitGroup
	for ci := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat[ci] = make([]float64, 0, len(plans[ci]))
			for _, q := range plans[ci] {
				c := sv.clients[q.mount][ci]
				name := su.shape.groups[q.group].names[q.j]
				t0 := time.Now()
				got, err := c.ReadRange(runID, name, su.shape.timestep(q.step), q.off, q.n)
				d := time.Since(t0)
				if err != nil {
					errs[ci] = err
					return
				}
				r.rec.record("sdmclient.ReadRange", ci+1, parent, t0, d)
				lat[ci] = append(lat[ci], float64(d)/1e3)
				if !bytes.Equal(got, su.expected(q.group, q.j, q.step)[q.off:q.off+q.n]) {
					bad.Add(1)
				}
				total.Add(int64(len(got)))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	n := 0
	for _, p := range plans {
		n += len(p)
	}
	r.checkN(n, int(bad.Load()), "served ranges")
	return total.Load(), nil
}

// ---------------------------------------------------------------------
// Catalog phase
// ---------------------------------------------------------------------

// catalogPhase resolves 64-key lookup batches through sdmclient while
// one writer commits 16-row batches (a fresh run id each) into the
// same catalog, until the lookups are done.
func (r *runner) catalogPhase(sv *servedBundle, cat *catalog.Catalog, runID int64, own []catalog.WriteRecord, round int) (catalogResult, error) {
	wl := r.wl
	byRun := append([]runRows{{run: runID, recs: own}}, r.preRows...)

	stop := make(chan struct{})
	var committed atomic.Int64
	var writerErr error
	var recordLat []float64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		recs := make([]catalog.WriteRecord, recordBatchRows)
		for batch := int64(0); ; batch++ {
			select {
			case <-stop:
				return
			default:
			}
			run := 1_000_000 + batch
			for i := range recs {
				recs[i] = catalog.WriteRecord{
					RunID: run, Dataset: "w", Timestep: int64(i),
					FileOffset: int64(i) * 4096, FileName: "writer.dat",
				}
			}
			t0 := time.Now()
			if err := cat.RecordWrites(nil, recs); err != nil {
				writerErr = err
				return
			}
			recordLat = append(recordLat, float64(time.Since(t0))/1e3)
			committed.Add(recordBatchRows)
			// A writer in a process of its own would share the CPUs at
			// the scheduler's pleasure; a goroutine that never blocks
			// holds its CPU until preempted. Yield between commits.
			runtime.Gosched()
		}
	}()

	var resolved, bad atomic.Int64
	clients := sv.clients[0]
	lookupLat := make([][]float64, len(clients))
	errs := make([]error, len(clients))
	parent := r.rec.current()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := newRNG(r.seed*7_000_003 + uint64(round)*211 + uint64(ci))
			wkeys := make([]wire.WriteKey, lookupBatchKeys)
			want := make([]*catalog.WriteRecord, lookupBatchKeys)
			for b := 0; b < wl.lookupBatches; b++ {
				rr := &byRun[rng.intn(len(byRun))]
				for i := range wkeys {
					rec := &rr.recs[rng.intn(len(rr.recs))]
					wkeys[i] = wire.WriteKey{Dataset: rec.Dataset, Timestep: rec.Timestep}
					want[i] = rec
				}
				t0 := time.Now()
				got, err := c.Lookup(rr.run, wkeys)
				d := time.Since(t0)
				r.rec.record("sdmclient.Lookup", ci+1, parent, t0, d)
				lookupLat[ci] = append(lookupLat[ci], float64(d)/1e3)
				if err != nil {
					errs[ci] = err
					return
				}
				for i, g := range got {
					if g == nil || g.FileName != want[i].FileName || g.FileOffset != want[i].FileOffset ||
						g.RunID != want[i].RunID || g.Dataset != want[i].Dataset || g.Timestep != want[i].Timestep {
						bad.Add(1)
					}
				}
				resolved.Add(int64(len(got)))
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
	for _, e := range append(errs, writerErr) {
		if e != nil {
			return catalogResult{}, e
		}
	}
	r.checkN(int(resolved.Load()), int(bad.Load()), "catalog lookups")
	// The writer's rows must all be there.
	last := 1_000_000 + committed.Load()/recordBatchRows - 1
	if committed.Load() > 0 {
		got, err := cat.WritesForRun(nil, last)
		if err != nil {
			return catalogResult{}, err
		}
		r.check(len(got) == recordBatchRows, "writer's last batch holds %d rows", len(got))
	}
	return catalogResult{
		keys:      resolved.Load(),
		lookupLat: flatten(lookupLat), recordLat: recordLat,
	}, nil
}

// catalogResult is what one catalog phase did and how long each call
// took (wall microseconds).
type catalogResult struct {
	keys                 int64
	lookupLat, recordLat []float64
}

func flatten(parts [][]float64) []float64 {
	var out []float64
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
