package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sdm"
	"sdm/internal/server"
	"sdm/internal/store/objstore"
	"sdm/sdmclient"
)

// objstorePartSize is the multipart threshold the tier experiment
// saves with — small enough that every checkpoint file uploads as
// multiple parts.
const objstorePartSize = 1 << 20

// runObjstore prices the storage tier: the same FUN3D checkpoint
// cluster is saved straight into the simulated object store (multipart
// PUTs), served cold through the sdmd core (ranged GETs filling the
// block cache), re-read warm (which must be remote-silent — the
// promotion gate), and finally migrated back to a hot directory
// bundle. What is reported is the remote's own ledger — requests, parts,
// bytes, busy seconds, microcents — which repeats; none of it touches a
// simulated rank clock, so every sim-* metric elsewhere in this file is
// unchanged by tiering.
func runObjstore(nx, procs, steps int, bl *benchLog) {
	fmt.Printf("\n=== Objstore: tiered storage — multipart save, cold attach, warm promoted reads ===\n")
	f := newFUN3D(nx)
	cl := newCluster(sdm.Origin2000Config(procs))
	if err := f.Stage(cl); err != nil {
		log.Fatal(err)
	}
	if _, err := f.WriteReadBandwidth(cl, sdm.Level3, steps); err != nil {
		log.Fatal(err)
	}

	tmp, err := os.MkdirTemp("", "sdmbench-objstore-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	cold := filepath.Join(tmp, "cold")
	endpoint := "sim://sdmbench/" + filepath.Base(tmp)
	defer objstore.Drop(endpoint)
	cfg := map[string]any{"nx": nx, "procs": procs, "steps": steps, "part_size": objstorePartSize}

	// Phase 1: multipart save into the cold tier.
	if err := cl.SaveBundleOpts(cold, sdm.BundleOptions{
		Backend: "obj", Endpoint: endpoint, PartSize: objstorePartSize,
	}); err != nil {
		log.Fatal(err)
	}
	svc := objstore.Dial(endpoint)
	saveStats := svc.Stats()
	if saveStats.Parts == 0 {
		log.Fatal("objstore save used no multipart parts")
	}
	bl.add(benchRecord{
		Experiment: "objstore", Case: "save-multipart", Workload: "fun3d", Config: cfg,
		SimMetrics: map[string]float64{
			"remote-requests":   float64(saveStats.Requests),
			"remote-parts":      float64(saveStats.Parts),
			"remote-put-MB":     float64(saveStats.BytesIn) / 1e6,
			"remote-busy-s":     saveStats.RemoteTime.Seconds(),
			"remote-microcents": float64(saveStats.CostMicrocents),
		},
	})

	// Phase 2: cold attach through the sdmd core, then warm promoted
	// reads. The warm pass running remote-silent is the experiment's
	// correctness gate, mirroring the tier tests.
	served, err := sdm.OpenBundle(cold, sdm.ClusterConfig{Procs: procs})
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(server.Config{CacheBytes: 256 << 20})
	if err := srv.Mount("tier", server.Source{Catalog: served.Catalog, FS: served.FS}); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	served.Catalog.SetAccessCost(0)
	runs, err := served.Catalog.Runs(nil)
	if err != nil || len(runs) == 0 {
		log.Fatalf("cold bundle has no runs (err %v)", err)
	}
	runID := runs[len(runs)-1].RunID
	recs, err := served.Catalog.WritesForRun(nil, runID)
	if err != nil || len(recs) == 0 {
		log.Fatalf("cold run has no writes (err %v)", err)
	}
	// pass reads the whole run through a fresh client. Its host rate is a
	// single shot and never gates (see deterministic); benchmark/ measures
	// the same flow with repeats.
	pass := func() (mb, mbps float64) {
		t0 := time.Now()
		c := sdmclient.New(base)
		at, err := c.Attach(sdmclient.AttachOptions{Run: runID})
		if err != nil {
			log.Fatalf("attach: %v", err)
		}
		var total int64
		for _, rec := range recs {
			buf, err := c.ReadDataset(at.Run.RunID, rec.Dataset, rec.Timestep)
			if err != nil {
				log.Fatalf("read %s@%d: %v", rec.Dataset, rec.Timestep, err)
			}
			total += int64(len(buf))
		}
		if err := c.Detach(); err != nil {
			log.Fatalf("detach: %v", err)
		}
		mb = float64(total) / 1e6
		return mb, mb / time.Since(t0).Seconds()
	}

	preStats := svc.Stats()
	_, coldMBps := pass()
	coldStats := svc.Stats()
	coldGets := coldStats.Gets - preStats.Gets
	if coldGets == 0 {
		log.Fatal("cold attach issued no remote GETs — the bundle was not served from the object tier")
	}
	warmMB, warmMBps := pass()
	warmStats := svc.Stats()
	if g := warmStats.Gets - coldStats.Gets; g != 0 {
		log.Fatalf("warm pass issued %d remote GETs, want 0 (block cache promotion)", g)
	}
	bl.add(benchRecord{
		Experiment: "objstore", Case: "attach-cold", Workload: "fun3d", Config: cfg,
		SimMetrics: map[string]float64{
			"host-cold-MB/s": coldMBps,
			"remote-gets":    float64(coldGets),
			"remote-get-MB":  float64(coldStats.BytesOut-preStats.BytesOut) / 1e6,
			"remote-busy-s":  (coldStats.RemoteTime - preStats.RemoteTime).Seconds(),
		},
	})
	bl.add(benchRecord{
		Experiment: "objstore", Case: "warm-promoted", Workload: "fun3d", Config: cfg,
		SimMetrics: map[string]float64{
			"host-warm-MB/s": warmMBps,
			"remote-gets":    0,
		},
	})

	// Phase 3: restore the cold bundle back to a hot directory tier.
	hot := filepath.Join(tmp, "hot")
	mst, err := sdm.MigrateBundle(cold, hot, sdm.BundleOptions{Backend: "dir"})
	if err != nil {
		log.Fatal(err)
	}
	bl.add(benchRecord{
		Experiment: "objstore", Case: "migrate-restore", Workload: "fun3d", Config: cfg,
		SimMetrics: map[string]float64{
			"files":     float64(mst.Files),
			"copied-MB": float64(mst.BytesCopied) / 1e6,
		},
	})

	w := table()
	fmt.Fprintf(w, "phase\tremote reqs\tparts\tMB moved\tremote busy (s)\tmicrocents\n")
	fmt.Fprintf(w, "save-multipart\t%d\t%d\t%.1f\t%.3f\t%d\n",
		saveStats.Requests, saveStats.Parts,
		float64(saveStats.BytesIn)/1e6, saveStats.RemoteTime.Seconds(), saveStats.CostMicrocents)
	fmt.Fprintf(w, "attach-cold\t%d\t-\t%.1f\t%.3f\t%d\n",
		coldGets,
		float64(coldStats.BytesOut-preStats.BytesOut)/1e6,
		(coldStats.RemoteTime - preStats.RemoteTime).Seconds(),
		coldStats.CostMicrocents-preStats.CostMicrocents)
	fmt.Fprintf(w, "warm-promoted\t0\t-\t%.1f\t0.000\t0\n", warmMB)
	fmt.Fprintf(w, "migrate-restore\t-\t-\t%.1f\t-\t-\n", float64(mst.BytesCopied)/1e6)
	w.Flush()
	fmt.Printf("expected: the save multiparts every checkpoint file, the warm pass is remote-silent\n"+
		"(block cache promotion), and no sim-* metric anywhere in this run moves — the remote's\n"+
		"%.3fs of busy time lives on its own timeline, not on any rank clock\n",
		warmStats.RemoteTime.Seconds())
}
