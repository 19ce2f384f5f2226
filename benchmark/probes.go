package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sdm"
	"sdm/internal/catalog"
	"sdm/internal/mesh"
	"sdm/internal/metadb"
	"sdm/internal/mpi"
	"sdm/internal/mpiio"
	"sdm/internal/partition"
	"sdm/internal/pfs"
	"sdm/internal/server"
	"sdm/internal/store"
	"sdm/internal/store/objstore"
	"sdm/internal/wire"
)

// Probes call one layer's public functions directly with the shapes
// the workload produced and time them in CPU seconds, normalised by the
// run's reference kernel like the phases' costs. Each is repeated
// probeReps times: a traced run has no time for more, and these numbers
// explain end-to-end movements rather than carry bounds of their own.
// Disturbances only ever add time, so the figure is the lower quartile
// — of three, the fastest.
const probeReps = 3

// probe runs fn probeReps times inside a host span and returns the
// normalised CPU seconds of the fastest repetition.
func (r *runner) probe(name string, fn func() error) (float64, error) {
	end := r.rec.begin("probe:" + name)
	defer end()
	cpu := make([]float64, probeReps)
	for i := range cpu {
		runtime.GC()
		c0 := cpuSeconds()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		cpu[i] = cpuSeconds() - c0
	}
	return quantile(cpu, 0.25) * r.refScale(), nil
}

// standaloneProbes are the probes that need nothing a round built.
func (r *runner) standaloneProbes() error {
	l, wl, su := r.layer, r.wl, r.su

	// mesh, partition: the pieces of set-up.
	cpu, err := r.probe("mesh.GenerateTetEdges", func() error {
		_, err := mesh.GenerateTetEdges(wl.nx, wl.nx, wl.nx)
		return err
	})
	if err != nil {
		return err
	}
	l.put("mesh.generate_s", "cpu-s", cpu)
	m := su.f3d.Mesh
	edgeData := make([][]float64, su.f3d.Cfg.EdgeArrays)
	for k := range edgeData {
		edgeData[k] = m.EdgeData(k)
	}
	nodeData := make([][]float64, su.f3d.Cfg.NodeArrays)
	for k := range nodeData {
		nodeData[k] = m.NodeData(k)
	}
	if cpu, err = r.probe("mesh.EncodeMsh", func() error {
		_, _, err := mesh.EncodeMsh(m, edgeData, nodeData)
		return err
	}); err != nil {
		return err
	}
	l.put("mesh.encode_s", "cpu-s", cpu)
	var graph *partition.Graph
	if cpu, err = r.probe("partition.Multilevel", func() error {
		var err error
		if graph, err = partition.FromEdges(m.NumNodes(), m.Edge1, m.Edge2); err != nil {
			return err
		}
		_, err = partition.Multilevel(graph, wl.procs, partition.Options{Seed: 1})
		return err
	}); err != nil {
		return err
	}
	l.put("partition.partvec_s", "cpu-s", cpu)
	l.put("partition.edge_cut", "count", float64(partition.EdgeCut(graph, su.partVec)))

	if err := r.probeCollectives(); err != nil {
		return err
	}
	return r.probePFSVec()
}

// fileOrderBytes is one rank's buffer k of a group as the file sees it
// (owned and block map arrays are ascending, so file order is buffer
// order).
func fileOrderBytes(su *setup, rank, group, k int) []byte {
	vals := su.ranks[rank].base[group][k]
	out := make([]byte, len(vals)*8)
	mesh.PutFloat64s(out, vals)
	return out
}

// probeCollectives replays the checkpoint phase's collectives one layer
// down — mpiio Open/SetView/WriteAtAll/ReadAtAll with the step's own
// views on a bare pfs — and one further down, the all-to-all with the
// same per-rank volume. Step time minus the mpiio replay is what core
// adds (core.host_share).
func (r *runner) probeCollectives() error {
	l, su, sh := r.layer, r.su, &r.su.shape
	procs := r.wl.procs
	// Per rank and group: the file type and one buffer in file order.
	types := make([][]*mpiio.Datatype, procs)
	bufs := make([][][]byte, procs)
	for rank := 0; rank < procs; rank++ {
		types[rank] = make([]*mpiio.Datatype, len(sh.groups))
		bufs[rank] = make([][]byte, len(sh.groups))
		for gi, g := range sh.groups {
			displs := make([]int, len(su.ranks[rank].maps[gi]))
			for i, v := range su.ranks[rank].maps[gi] {
				displs[i] = int(v)
			}
			dt := mpiio.IndexedBlock(1, displs, mpiio.Bytes(8))
			types[rank][gi] = mpiio.Resized(dt, g.globalN*8)
			bufs[rank][gi] = fileOrderBytes(su, rank, gi, 0)
		}
	}
	var collectives int
	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	cpu, err := r.probe("mpiio.WriteAtAll+ReadAtAll", func() error {
		world := mpi.NewWorld(procs, r.cfg.Network)
		fs := pfs.NewSystem(r.cfg.Storage)
		collectives = 0
		runtime.ReadMemStats(&ms0)
		err := world.Run(func(c *mpi.Comm) {
			rank := c.Rank()
			for gi, g := range sh.groups {
				f, err := mpiio.Open(c, fs, fmt.Sprintf("probe_g%d.dat", gi), pfs.CreateMode, mpiio.Hints{})
				if err != nil {
					panic(err)
				}
				back := make([]byte, len(bufs[rank][gi]))
				slab := g.globalN * 8
				// Level 3 merges a step's datasets of one group into one
				// collective; the other levels issue one per dataset.
				perCall := 1
				if sh.level == sdm.Level3 {
					perCall = len(g.names)
				}
				calls := sh.steps * len(g.names) / perCall
				ops := make([]mpiio.BatchOp, perCall)
				for pass, data := range [][]byte{bufs[rank][gi], back} {
					for i := 0; i < calls; i++ {
						for k := range ops {
							ops[k] = mpiio.BatchOp{Disp: int64(i*perCall+k) * slab, Type: types[rank][gi], Data: data}
						}
						f.SetView(ops[0].Disp, types[rank][gi])
						if pass == 0 {
							err = f.WriteAtAllOps(ops)
						} else {
							err = f.ReadAtAllOps(ops)
						}
						if err != nil {
							panic(err)
						}
					}
				}
				n := calls
				if !bytes.Equal(back, bufs[rank][gi]) {
					panic("mpiio probe read back different bytes")
				}
				if err := f.Close(); err != nil {
					panic(err)
				}
				if rank == 0 {
					collectives += 2 * n
				}
			}
		})
		runtime.ReadMemStats(&ms1)
		mallocs = ms1.Mallocs - ms0.Mallocs
		return err
	})
	if err != nil {
		return err
	}
	moved := 2 * float64(sh.steps) * float64(sh.userBytesPerStep())
	l.put("mpiio.collective_host_MBps", "MB/cpu-s", perSecond(moved/1e6, cpu))
	l.put("mpiio.allocs_per_collective", "count", float64(mallocs)/float64(collectives))
	stepCPU := hostCost(append(append([]float64(nil), l.stepCPU[0]...), l.stepCPU[1]...), r.refCPU)
	l.put("core.host_share", "1", 1-cpu/max(stepCPU, 1e-6))

	// The all-to-all beneath: every rank scatters its step's bytes
	// evenly over the ranks, once per collective.
	perRank := sh.userBytesPerStep() / int64(procs)
	part := make([]byte, max(perRank/int64(procs), 1))
	rounds := 2 * sh.steps
	cpu, err = r.probe("mpi.Alltoall", func() error {
		world := mpi.NewWorld(procs, r.cfg.Network)
		return world.Run(func(c *mpi.Comm) {
			parts := make([]any, procs)
			for i := range parts {
				parts[i] = part
			}
			for i := 0; i < rounds; i++ {
				c.Alltoall(parts, int64(len(part))*int64(procs))
			}
		})
	})
	if err != nil {
		return err
	}
	l.put("mpi.alltoall_host_MBps", "MB/cpu-s",
		perSecond(float64(rounds)*float64(len(part))*float64(procs)*float64(procs)/1e6, cpu))
	return nil
}

// probePFSVec times the vectored file-system interface the aggregators
// use: rank 0's irregular node extents, written and read back.
func (r *runner) probePFSVec() error {
	su := r.su
	exts := make([]pfs.Extent, len(su.ranks[0].maps[0]))
	for i, g := range su.ranks[0].maps[0] {
		exts[i] = pfs.Extent{Off: int64(g) * 8, Len: 8}
	}
	payload := fileOrderBytes(su, 0, 0, 0)
	const passes = 16
	cpu, err := r.probe("pfs.WriteAtVec+ReadAtVec", func() error {
		fs := pfs.NewSystem(r.cfg.Storage)
		h, err := fs.Open("vec.dat", pfs.CreateMode, nil)
		if err != nil {
			return err
		}
		back := make([]byte, len(payload))
		for i := 0; i < passes; i++ {
			if _, err := h.WriteAtVec(payload, exts); err != nil {
				return err
			}
			if _, err := h.ReadAtVec(back, exts); err != nil {
				return err
			}
		}
		if !bytes.Equal(back, payload) {
			return fmt.Errorf("pfs vec probe read back different bytes")
		}
		return h.Close()
	})
	if err != nil {
		return err
	}
	r.layer.put("pfs.vec_host_MBps", "MB/cpu-s", perSecond(2*passes*float64(len(payload))/1e6, cpu))
	return nil
}

// roundProbes are the probes that need what a round still holds open:
// the checkpoint cluster, its saved bundle, the restarted cluster and
// the server. They run at the end of the last traced round, after the
// CPU profile has stopped.
func (r *runner) roundProbes(ctx roundCtx) error {
	for _, p := range []func(roundCtx) error{r.probeStore, r.probeBundle, r.probeCatalog, r.probeServer} {
		if err := p(ctx); err != nil {
			return err
		}
	}
	return nil
}

// probeBackend builds the workload's kind of store backend in a scratch
// directory.
func (r *runner) probeBackend(dir string) (store.Backend, error) {
	b := r.wl.bundle
	switch b.Backend {
	case "cas":
		return store.OpenCAS(dir, store.CASOptions{ChunkSize: b.ChunkSize, Compress: b.Compress})
	case "obj":
		return objstore.New(objstore.NewService(objstore.CostModel{}), objstore.Options{PartSize: b.PartSize}), nil
	default:
		return store.NewDirOpts(dir, store.DirOptions{AtomicWrites: true})
	}
}

// probeStore writes the checkpoint cluster's files (their real names,
// sizes and bytes) into a fresh backend of the workload's kind and
// reads them back.
func (r *runner) probeStore(ctx roundCtx) error {
	type file struct {
		name string
		data []byte
	}
	var files []file
	var total int64
	for _, name := range ctx.cc.ListFiles() {
		data, err := ctx.cc.ReadFile(name)
		if err != nil {
			return err
		}
		files = append(files, file{name, data})
		total += int64(len(data))
	}
	dir := filepath.Join(r.root, "probe-store")
	var b store.Backend
	wcpu, err := r.probe("store.write", func() error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		var err error
		if b, err = r.probeBackend(dir); err != nil {
			return err
		}
		for _, f := range files {
			obj, err := b.Create(f.name)
			if err != nil {
				return err
			}
			if _, err := obj.WriteAt(f.data, 0); err != nil {
				return err
			}
		}
		return b.Sync()
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rcpu, err := r.probe("store.read", func() error {
		for _, f := range files {
			obj, err := b.Open(f.name)
			if err != nil {
				return err
			}
			got := make([]byte, len(f.data))
			if _, err := obj.ReadAt(got, 0); err != nil && err != io.EOF {
				return err
			}
			if !bytes.Equal(got, f.data) {
				return fmt.Errorf("store probe read back different bytes for %s", f.name)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layer.put("store.write_host_MBps", "MB/cpu-s", perSecond(float64(total)/1e6, wcpu))
	r.layer.put("store.read_host_MBps", "MB/cpu-s", perSecond(float64(total)/1e6, rcpu))
	return nil
}

// probeBundle prices the bundle layer around the store: the same save
// with and without the write-ahead log, a migration of the saved bundle
// to a hot directory bundle, and a consistency check.
func (r *runner) probeBundle(ctx roundCtx) error {
	l := r.layer
	saveTo := func(name string, noWAL bool) func() error {
		return func() error {
			dir := filepath.Join(r.root, name)
			opts := r.wl.bundle
			opts.DisableWAL = noWAL
			if opts.Backend == "obj" {
				opts.Endpoint = fmt.Sprintf("sim://benchmark/%d/%s", os.Getpid(), name)
				defer objstore.Drop(opts.Endpoint)
			}
			defer os.RemoveAll(dir)
			return ctx.cc.SaveBundleOpts(dir, opts)
		}
	}
	wal, err := r.probe("Cluster.SaveBundleOpts(wal)", saveTo("probe-wal", false))
	if err != nil {
		return err
	}
	nowal, err := r.probe("Cluster.SaveBundleOpts(nowal)", saveTo("probe-nowal", true))
	if err != nil {
		return err
	}
	l.put("sdm.wal_overhead_pct", "%", 100*(wal/max(nowal, 1e-6)-1))

	hot := filepath.Join(r.root, "probe-hot")
	var mst sdm.MigrateStats
	cpu, err := r.probe("sdm.MigrateBundle", func() error {
		if err := os.RemoveAll(hot); err != nil {
			return err
		}
		var err error
		mst, err = sdm.MigrateBundle(ctx.dir, hot, sdm.BundleOptions{Backend: "dir"})
		return err
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(hot)
	l.put("sdm.migrate_MBps", "MB/cpu-s", perSecond(float64(mst.BytesCopied)/1e6, cpu))
	l.put("sdm.migrate_files_copied", "count", float64(mst.FilesCopied))
	if cpu, err = r.probe("sdm.FsckBundle", func() error {
		rep, err := sdm.FsckBundle(hot, false)
		if err == nil && len(rep.Errors) > 0 {
			err = fmt.Errorf("fsck: %v", rep.Errors)
		}
		return err
	}); err != nil {
		return err
	}
	l.put("sdm.fsck_s", "cpu-s", cpu)
	return nil
}

// probeCatalog calls the catalog and the engine beneath it directly,
// one caller at a time: no HTTP, no JSON, no competing writer.
func (r *runner) probeCatalog(ctx roundCtx) error {
	l := r.layer
	cat := ctx.rc.Catalog
	rng := newRNG(r.seed + 99)
	const (
		batches = 40
		inserts = 160 // single-row commits cost O(table) on the large catalog
	)
	keys := make([][]catalog.WriteKey, batches)
	for b := range keys {
		keys[b] = make([]catalog.WriteKey, lookupBatchKeys)
		for i := range keys[b] {
			rec := &ctx.ownRows[rng.intn(len(ctx.ownRows))]
			keys[b][i] = catalog.WriteKey{Dataset: rec.Dataset, Timestep: rec.Timestep}
		}
	}
	cpu, err := r.probe("catalog.LookupWrites", func() error {
		for _, k := range keys {
			got, err := cat.LookupWrites(nil, ctx.runID, k)
			if err != nil {
				return err
			}
			for _, g := range got {
				if g == nil {
					return fmt.Errorf("catalog probe: a recorded row was not found")
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put("catalog.lookup_keys_per_s", "1/cpu-s", perSecond(batches*lookupBatchKeys, cpu))

	nextRun := int64(2_000_000)
	recs := make([]catalog.WriteRecord, recordBatchRows)
	if cpu, err = r.probe("catalog.RecordWrites", func() error {
		for b := 0; b < batches; b++ {
			nextRun++
			for i := range recs {
				recs[i] = catalog.WriteRecord{RunID: nextRun, Dataset: "p", Timestep: int64(i), FileName: "probe.dat"}
			}
			if err := cat.RecordWrites(nil, recs); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.put("catalog.record_rows_per_s", "1/cpu-s", perSecond(batches*recordBatchRows, cpu))

	// metadb: the statements the catalog issues, through a session.
	sess := ctx.rc.DB.Session()
	if cpu, err = r.probe("metadb.Session.Query", func() error {
		for _, kb := range keys {
			for _, k := range kb {
				rows, err := sess.Query(`SELECT runid, dataset, timestep, file_offset, file_name
					FROM execution_table WHERE runid = ? AND dataset = ? AND timestep = ?`,
					ctx.runID, k.Dataset, k.Timestep)
				if err != nil {
					return err
				}
				if rows.Len() != 1 {
					return fmt.Errorf("metadb probe: %d rows for one key", rows.Len())
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.put("metadb.select_keys_per_s", "1/cpu-s", perSecond(batches*lookupBatchKeys, cpu))
	if cpu, err = r.probe("metadb.Session.Exec", func() error {
		for b := 0; b < inserts; b++ {
			nextRun++
			if _, err := sess.Exec(`INSERT INTO execution_table VALUES (?, ?, ?, ?, ?)`,
				nextRun, "p", int64(0), int64(0), "probe.dat"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.put("metadb.insert_rows_per_s", "1/cpu-s", perSecond(inserts, cpu))

	var snap bytes.Buffer
	if err := ctx.rc.DB.Save(&snap); err != nil {
		return err
	}
	l.put("metadb.snapshot_bytes", "B", float64(snap.Len()))
	if cpu, err = r.probe("metadb.Load", func() error {
		return metadb.New().Load(bytes.NewReader(snap.Bytes()))
	}); err != nil {
		return err
	}
	l.put("metadb.load_s", "cpu-s", cpu)

	// wire: what one lookup batch costs in JSON.
	wkeys := make([]wire.WriteKey, lookupBatchKeys)
	for i, k := range keys[0] {
		wkeys[i] = wire.WriteKey{Dataset: k.Dataset, Timestep: k.Timestep}
	}
	got, err := ctx.sv.clients[0][0].Lookup(ctx.runID, wkeys)
	if err != nil {
		return err
	}
	perKey, err := lookupWireBytes(wkeys, got)
	if err != nil {
		return err
	}
	l.put("wire.lookup_bytes_per_key", "B", perKey)
	return nil
}

// bodyWriter is the response writer of the handler probe: it keeps the
// body in a buffer it reuses, so that the probe times the handler and
// not a recorder growing its buffer.
type bodyWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *bodyWriter) Header() http.Header  { return w.header }
func (w *bodyWriter) WriteHeader(code int) { w.code = code }
func (w *bodyWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// probeServer replays the round's read plan against the handler with
// no TCP in between, and streams the cached files through a warm block
// cache with no handler either.
func (r *runner) probeServer(ctx roundCtx) error {
	l, su := r.layer, r.su
	var lat []float64
	end := r.rec.begin("probe:server.ServeHTTP")
	w := &bodyWriter{header: make(http.Header)}
	for _, plan := range ctx.plans {
		for _, q := range plan {
			name := su.shape.groups[q.group].names[q.j]
			url := fmt.Sprintf("/v1/read/%d/%s/%d?off=%d&len=%d&bundle=%s", ctx.runID, name, su.shape.timestep(q.step), q.off, q.n, mountName(q.mount))
			req := httptest.NewRequest(http.MethodGet, url, nil)
			w.code, w.body = http.StatusOK, w.body[:0]
			t0 := time.Now()
			ctx.sv.srv.ServeHTTP(w, req)
			lat = append(lat, float64(time.Since(t0))/1e3)
			if w.code != http.StatusOK || !bytes.Equal(w.body, su.expected(q.group, q.j, q.step)[q.off:q.off+q.n]) {
				end()
				return fmt.Errorf("handler probe: %s returned status %d or wrong bytes", url, w.code)
			}
		}
	}
	end()
	p50, _ := percentile(lat, 50)
	l.put("server.handler_p50_us", "us", p50)

	// A warm block cache over one slab's bytes, copied out as the
	// handler's response writer would.
	data := su.global[0][0]
	cache := server.NewBlockCache(0, int64(len(data))+2*server.DefaultBlockSize)
	fetch := func(off, n int64) ([]byte, error) { return data[off : off+n], nil }
	var out bytes.Buffer
	out.Grow(len(data))
	if _, err := cache.WriteRange(&out, "slab", int64(len(data)), 0, int64(len(data)), fetch); err != nil {
		return err
	}
	passes := int(max(1, (64<<20)/int64(len(data))))
	cpu, err := r.probe("server.BlockCache.WriteRange", func() error {
		for i := 0; i < passes; i++ {
			out.Reset()
			if _, err := cache.WriteRange(&out, "slab", int64(len(data)), 0, int64(len(data)), fetch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put("server.cache_hit_host_MBps", "MB/cpu-s", perSecond(float64(passes)*float64(len(data))/1e6, cpu))
	return nil
}
