package sdm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sdm/internal/pfs"
	"sdm/internal/server"
	"sdm/internal/sim"
	"sdm/internal/store"
	"sdm/internal/store/objstore"
	"sdm/sdmclient"
)

// The tier suite covers the "obj" bundle backend and MigrateBundle:
// crash consistency of multipart saves (at WAL boundaries and at every
// remote request boundary), hot/cold round trips, re-migration after
// the source changed, and the cost pin — tiering moves
// bytes in host time plus the remote's own timeline, never a rank
// clock.

// TestBundleCrashMatrixObj walks the WAL-boundary kill matrix with the
// object-store backend. PartSize 700 forces every crash fixture file
// through the multipart path, so staged parts, conditional completes,
// and server-side promotion renames all sit under the kills.
func TestBundleCrashMatrixObj(t *testing.T) {
	runCrashMatrix(t, BundleOptions{Backend: "obj", PartSize: 700})
}

// TestObjstoreCrashRequestMatrix kills the remote itself: for k = 1,
// 2, 3, ... the simulated object store fails every request after its
// k-th with store.ErrCrashed mid-save, and recovery must land the
// bundle on exactly-old or exactly-new — the request-level analogue of
// the WAL-boundary matrix, hitting every Put/part/complete/rename
// boundary of the protocol rather than every hook point.
func TestObjstoreCrashRequestMatrix(t *testing.T) {
	oldFiles, newFiles := crashOldFiles(), crashNewFiles()
	opts := BundleOptions{Backend: "obj", PartSize: 700}
	sawOld, sawNew := 0, 0
	for k := 1; ; k++ {
		dir := filepath.Join(t.TempDir(), "bundle")
		if err := crashCluster(t, oldFiles, "old").SaveBundleOpts(dir, opts); err != nil {
			t.Fatalf("request %d: seeding old bundle: %v", k, err)
		}
		svc := objstore.Dial(bundleEndpoint(dir, ""))
		svc.CrashAfter(int64(k))
		err := crashCluster(t, newFiles, "new").SaveBundleOpts(dir, opts)
		svc.Revive()
		if err == nil {
			// k exceeds the save's request count: it ran to completion.
			files, marker := readBundleState(t, dir)
			if marker != "new" || !sameFiles(files, newFiles) {
				t.Fatalf("uncrashed save: marker %q, files match new: %v", marker, sameFiles(files, newFiles))
			}
			if st := svc.Stats(); st.Parts == 0 {
				t.Fatalf("save never used multipart parts: %+v", st)
			}
			assertFsckClean(t, dir, "uncrashed save")
			if k < 10 {
				t.Fatalf("remote crashed out after only %d request boundaries", k)
			}
			if sawOld == 0 || sawNew == 0 {
				t.Fatalf("matrix never exercised both outcomes: %d rollbacks, %d roll-forwards", sawOld, sawNew)
			}
			t.Logf("survived remote crashes at %d request boundaries (%d old, %d new)", k-1, sawOld, sawNew)
			return
		}
		if !errors.Is(err, store.ErrCrashed) {
			t.Fatalf("request %d: save failed for real: %v", k, err)
		}
		files, marker := readBundleState(t, dir)
		switch marker {
		case "old":
			sawOld++
			if !sameFiles(files, oldFiles) {
				t.Fatalf("request %d: rolled back but files diverge from old", k)
			}
		case "new":
			sawNew++
			if !sameFiles(files, newFiles) {
				t.Fatalf("request %d: rolled forward but files diverge from new", k)
			}
		default:
			t.Fatalf("request %d: marker %q is neither old nor new", k, marker)
		}
		if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) {
			t.Fatalf("request %d: recovery left wal.log behind", k)
		}
		assertFsckClean(t, dir, fmt.Sprintf("remote crash after request %d", k))
	}
}

// TestMigrateBundleRoundTrip moves a bundle hot → cold → hot and
// demands byte-identical files, the verbatim catalog, a clean fsck at
// every tier, and an untouched source.
func TestMigrateBundleRoundTrip(t *testing.T) {
	files := crashOldFiles()
	base := t.TempDir()
	hot := filepath.Join(base, "hot")
	cold := filepath.Join(base, "cold")
	back := filepath.Join(base, "back")
	if err := crashCluster(t, files, "hot").SaveBundleOpts(hot, BundleOptions{Backend: "dir"}); err != nil {
		t.Fatal(err)
	}

	st, err := MigrateBundle(hot, cold, BundleOptions{Backend: "obj", PartSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, data := range files {
		size += int64(len(data))
	}
	if st != (MigrateStats{FilesCopied: len(files), BytesCopied: size}) {
		t.Fatalf("migration stats %+v, want %d files of %d bytes", st, len(files), size)
	}
	gotCold, marker := readBundleState(t, cold)
	if marker != "hot" || !sameFiles(gotCold, files) {
		t.Fatalf("cold tier: marker %q, files match: %v", marker, sameFiles(gotCold, files))
	}
	assertFsckClean(t, cold, "cold tier")

	rst, err := MigrateBundle(cold, back, BundleOptions{Backend: "dir"})
	if err != nil {
		t.Fatal(err)
	}
	if rst != st {
		t.Fatalf("restore moved %+v, the migration out %+v: want the same files and bytes", rst, st)
	}
	gotBack, marker := readBundleState(t, back)
	if marker != "hot" || !sameFiles(gotBack, files) {
		t.Fatalf("migrated-back tier: marker %q, files match: %v", marker, sameFiles(gotBack, files))
	}
	assertFsckClean(t, back, "migrated-back tier")

	// The catalog rides verbatim through every hop, so a migrated
	// bundle answers metadata queries identically to its source.
	hotCat, err := os.ReadFile(filepath.Join(hot, bundleCatalogName))
	if err != nil {
		t.Fatal(err)
	}
	backCat, err := os.ReadFile(filepath.Join(back, bundleCatalogName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hotCat, backCat) {
		t.Fatal("catalog bytes changed across tiers")
	}

	// The source is never modified.
	gotHot, marker := readBundleState(t, hot)
	if marker != "hot" || !sameFiles(gotHot, files) {
		t.Fatal("migration modified the source bundle")
	}
	assertFsckClean(t, hot, "source after migration")
}

// TestMigrateBundleRemigration re-migrates into an existing destination
// after a second run landed rows and an input was re-staged in place at
// the same size — a rewrite no execution row records — and requires
// every cold file to equal its source: a migration copies every file,
// so no stale bytes stay in the tier.
func TestMigrateBundleRemigration(t *testing.T) {
	const procs, globalN, steps = 4, 1 << 10, 2
	for _, dstOpts := range []BundleOptions{{Backend: "dir"}, {Backend: "obj", PartSize: 8 << 10}} {
		t.Run(dstOpts.Backend, func(t *testing.T) {
			base := t.TempDir()
			hot := filepath.Join(base, "hot")
			cold := filepath.Join(base, "cold")
			writer := NewCluster(ClusterConfig{Procs: procs})
			if err := writer.StageFile("static.dat", bytes.NewReader(crashPattern('S', 5000))); err != nil {
				t.Fatal(err)
			}
			writeDemoRun(t, writer, globalN, steps)
			if err := writer.SaveBundle(hot); err != nil {
				t.Fatal(err)
			}
			if _, err := MigrateBundle(hot, cold, dstOpts); err != nil {
				t.Fatal(err)
			}

			writeDemoRun(t, writer, globalN, steps)
			if err := writer.StageFile("static.dat", bytes.NewReader(crashPattern('T', 5000))); err != nil {
				t.Fatal(err)
			}
			if err := writer.SaveBundle(hot); err != nil {
				t.Fatal(err)
			}
			st, err := MigrateBundle(hot, cold, dstOpts)
			if err != nil {
				t.Fatal(err)
			}
			assertFsckClean(t, cold, "cold tier after re-migration")

			hotCl, err := OpenBundle(hot, ClusterConfig{Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			coldCl, err := OpenBundle(cold, ClusterConfig{Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			hotNames, coldNames := hotCl.ListFiles(), coldCl.ListFiles()
			if fmt.Sprint(hotNames) != fmt.Sprint(coldNames) {
				t.Fatalf("cold file list %v, hot %v", coldNames, hotNames)
			}
			var size int64
			for _, name := range hotNames {
				want, err := hotCl.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				got, err := coldCl.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("cold %q diverges from its source after re-migration", name)
				}
				size += int64(len(want))
			}
			if st != (MigrateStats{FilesCopied: len(hotNames), BytesCopied: size}) {
				t.Errorf("re-migration stats %+v, want %d files of %d bytes", st, len(hotNames), size)
			}
			runs, err := coldCl.Catalog.Runs(nil)
			if err != nil || len(runs) != 2 {
				t.Fatalf("cold catalog has %d runs (err %v), want 2", len(runs), err)
			}
		})
	}
}

// TestMigrateBundleErrors pins the guard rails: same-directory
// migration and backend-kind mismatch against an existing destination
// both refuse.
func TestMigrateBundleErrors(t *testing.T) {
	base := t.TempDir()
	hot := filepath.Join(base, "hot")
	cold := filepath.Join(base, "cold")
	if err := crashCluster(t, crashOldFiles(), "v").SaveBundleOpts(hot, BundleOptions{Backend: "dir"}); err != nil {
		t.Fatal(err)
	}
	if _, err := MigrateBundle(hot, hot, BundleOptions{Backend: "obj"}); err == nil {
		t.Fatal("migrating a bundle onto itself did not fail")
	}
	if _, err := MigrateBundle(hot, cold, BundleOptions{Backend: "obj", PartSize: 1024}); err != nil {
		t.Fatal(err)
	}
	_, err := MigrateBundle(hot, cold, BundleOptions{Backend: "dir"})
	if err == nil || !strings.Contains(err.Error(), "use a fresh directory") {
		t.Fatalf("kind-mismatch migration = %v, want refusal", err)
	}
}

// TestMigrateRetriesOnceOverRemote: the remote's requests retry in one
// loop. A migration out of a one-file obj bundle whose remote fails
// every request makes objstore.Attempts requests, and its error names
// one exhaustion.
func TestMigrateRetriesOnceOverRemote(t *testing.T) {
	base := t.TempDir()
	src := filepath.Join(base, "src")
	one := map[string][]byte{"a.dat": crashPattern('A', 3000)}
	if err := crashCluster(t, one, "v").SaveBundleOpts(src, BundleOptions{Backend: "obj"}); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(src)
	if err != nil {
		t.Fatal(err)
	}
	svc := objstore.Dial(m.Spec.Endpoint)
	svc.SetFaults(1, 1)
	defer svc.SetFaults(0, 0)
	before := svc.Stats().Requests
	_, err = MigrateBundle(src, filepath.Join(base, "dst"), BundleOptions{Backend: "dir"})
	if err == nil {
		t.Fatal("migration from a remote that fails every request succeeded")
	}
	if got := svc.Stats().Requests - before; got != objstore.Attempts {
		t.Errorf("migration made %d remote requests, want %d", got, objstore.Attempts)
	}
	if n := strings.Count(err.Error(), "retry exhausted"); n != 1 {
		t.Errorf("error names %d exhaustions, want 1: %v", n, err)
	}
	if !errors.Is(err, store.ErrUnavailable) {
		t.Errorf("error does not unwrap to the remote's transient failure: %v", err)
	}
}

// TestMigrateBundleRandomizedFaults is the round-trip property test:
// random file sets (including an empty file) migrate hot → cold → hot
// through a remote that fails requests transiently, and every round
// must come back byte-identical with the catalog verbatim and all three
// tiers fsck-clean.
func TestMigrateBundleRandomizedFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	var injected int64
	for round := 0; round < 4; round++ {
		files := map[string][]byte{}
		for i := 0; i < 3+rng.Intn(5); i++ {
			n := rng.Intn(5000)
			if i == 0 {
				n = 0 // empty-object edge case
			}
			data := make([]byte, n)
			rng.Read(data)
			files[fmt.Sprintf("f%02d.dat", i)] = data
		}
		marker := fmt.Sprintf("round-%d", round)
		base := t.TempDir()
		hot := filepath.Join(base, "hot")
		cold := filepath.Join(base, "cold")
		back := filepath.Join(base, "back")
		if err := crashCluster(t, files, marker).SaveBundleOpts(hot, BundleOptions{Backend: "dir"}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}

		// The remote injects transient request failures (including
		// reply-lost part uploads), which its backend's retry loop hides.
		svc := objstore.Dial(bundleEndpoint(cold, ""))
		svc.SetFaults(0.05, int64(round+7))

		objOpts := BundleOptions{Backend: "obj", PartSize: int64(512 + rng.Intn(2048))}
		if _, err := MigrateBundle(hot, cold, objOpts); err != nil {
			t.Fatalf("round %d: hot→cold under faults: %v", round, err)
		}
		if _, err := MigrateBundle(cold, back, BundleOptions{Backend: "dir"}); err != nil {
			t.Fatalf("round %d: cold→hot under faults: %v", round, err)
		}
		svc.SetFaults(0, 0)
		injected += svc.Stats().TransientInjected

		got, m := readBundleState(t, back)
		if m != marker || !sameFiles(got, files) {
			t.Fatalf("round %d: migrated-back bundle diverges (marker %q)", round, m)
		}
		hotCat, err := os.ReadFile(filepath.Join(hot, bundleCatalogName))
		if err != nil {
			t.Fatal(err)
		}
		backCat, err := os.ReadFile(filepath.Join(back, bundleCatalogName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hotCat, backCat) {
			t.Fatalf("round %d: catalog bytes changed across tiers", round)
		}
		assertFsckClean(t, hot, fmt.Sprintf("round %d hot", round))
		assertFsckClean(t, cold, fmt.Sprintf("round %d cold", round))
		assertFsckClean(t, back, fmt.Sprintf("round %d back", round))
	}
	if injected == 0 {
		t.Error("remote injected zero transient faults — the property was not exercised under failure")
	}
}

// tierReadResult is one full read-back of a demo-run bundle: the
// virtual makespan the workload cost and every value each rank read.
type tierReadResult struct {
	elapsed sim.Duration
	data    map[int][]float64
}

// tierReadWorkload opens a bundle and replays the canonical read
// workload — attach the run, read every dataset at every timestep on
// every rank — returning the rank-indexed values and the simulated
// elapsed time.
func tierReadWorkload(t *testing.T, dir string, procs, globalN, steps int) tierReadResult {
	t.Helper()
	cl, err := OpenBundle(dir, ClusterConfig{Procs: procs})
	if err != nil {
		t.Fatalf("opening %s: %v", dir, err)
	}
	runs, err := cl.Catalog.Runs(nil)
	if err != nil || len(runs) == 0 {
		t.Fatalf("bundle %s has no runs (err %v)", dir, err)
	}
	var mu sync.Mutex
	data := map[int][]float64{}
	err = cl.Run(func(p *Proc) {
		s, err := p.Initialize("bundledemo", Options{Organization: Level3, AttachRun: runs[0].RunID})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		g, err := s.OpenGroup([]string{"pressure", "velocity"})
		if err != nil {
			t.Error(err)
			return
		}
		mapArr := demoMap(p.Rank(), p.Size(), globalN)
		if _, err := g.DataView([]string{"pressure", "velocity"}, mapArr); err != nil {
			t.Error(err)
			return
		}
		var vals []float64
		for ts := 0; ts < steps; ts++ {
			for _, ds := range []string{"pressure", "velocity"} {
				got, err := getAt(g, ds, int64(ts), len(mapArr))
				if err != nil {
					t.Errorf("read %s@%d: %v", ds, ts, err)
					return
				}
				vals = append(vals, got...)
			}
		}
		mu.Lock()
		data[p.Rank()] = vals
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return tierReadResult{elapsed: cl.Elapsed(), data: data}
}

// TestBundleTieringSimCostNeutral is the cost pin: the same read
// workload against the hot bundle, the cold (object-store) bundle, and
// the migrated-back bundle must report identical per-rank virtual time
// and identical values — tiering charges host time and the remote's
// own timeline, never a simulated rank clock.
func TestBundleTieringSimCostNeutral(t *testing.T) {
	const procs, globalN, steps = 4, 1 << 10, 2
	base := t.TempDir()
	hot := filepath.Join(base, "hot")
	cold := filepath.Join(base, "cold")
	back := filepath.Join(base, "back")
	writer := NewCluster(ClusterConfig{Procs: procs})
	writeDemoRun(t, writer, globalN, steps)
	if err := writer.SaveBundle(hot); err != nil {
		t.Fatal(err)
	}
	ref := tierReadWorkload(t, hot, procs, globalN, steps)
	if ref.elapsed <= 0 {
		t.Fatalf("hot read workload cost no virtual time (%v)", ref.elapsed)
	}

	if _, err := MigrateBundle(hot, cold, BundleOptions{Backend: "obj", PartSize: 8 << 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := MigrateBundle(cold, back, BundleOptions{Backend: "dir"}); err != nil {
		t.Fatal(err)
	}
	// The bytes did move through the priced remote…
	svc := objstore.Dial(bundleEndpoint(cold, ""))
	if st := svc.Stats(); st.RemoteTime <= 0 || st.BytesIn == 0 {
		t.Fatalf("migration accrued nothing on the remote's own timeline: %+v", st)
	}

	// …but no tier changes what the application observes.
	for _, tc := range []struct{ name, dir string }{{"cold", cold}, {"migrated-back", back}} {
		got := tierReadWorkload(t, tc.dir, procs, globalN, steps)
		if got.elapsed != ref.elapsed {
			t.Errorf("%s: virtual elapsed %v, hot reference %v — tiering leaked into rank clocks",
				tc.name, got.elapsed, ref.elapsed)
		}
		if !reflect.DeepEqual(got.data, ref.data) {
			t.Errorf("%s: read values diverge from hot reference", tc.name)
		}
	}
}

// TestObjstoreBundlePromotionServe is the read-through promotion path:
// a cold (object-store) bundle mounted in the sdmd core serves clients
// by pulling ranged GETs from the remote into the block cache; a warm
// second pass must be remote-silent — zero new GETs, all cache hits.
func TestObjstoreBundlePromotionServe(t *testing.T) {
	const procs, globalN, steps = 4, 1 << 10, 2
	dir := filepath.Join(t.TempDir(), "bundle")
	writer := NewCluster(ClusterConfig{Procs: procs})
	writeDemoRun(t, writer, globalN, steps)
	if err := writer.SaveBundleOpts(dir, BundleOptions{Backend: "obj", PartSize: 32 << 10}); err != nil {
		t.Fatal(err)
	}

	cl, err := OpenBundle(dir, ClusterConfig{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	svc := objstore.Dial(bundleEndpoint(dir, ""))
	srv := server.New(server.Config{BlockSize: 64 << 10})
	if err := srv.Mount("bundle", server.Source{Catalog: cl.Catalog, FS: cl.FS}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := sdmclient.New(hs.URL)
	runs, err := c.Runs()
	if err != nil || len(runs) == 0 {
		t.Fatalf("runs = %v, %v", runs, err)
	}
	run := runs[len(runs)-1].RunID
	if dss, err := c.Datasets(run); err != nil || len(dss) != 2 {
		t.Fatalf("run %d lists datasets %v (%v), want 2", run, dss, err)
	}

	// Ground truth first, read locally through the catalog (these reads
	// hit the remote too, which is why the GET baseline is taken after).
	cl.Catalog.SetAccessCost(0)
	type key struct {
		ds string
		ts int64
	}
	want := map[key][]byte{}
	for ts := int64(0); ts < steps; ts++ {
		for _, ds := range []string{"pressure", "velocity"} {
			info, rec, err := cl.Catalog.Slab(nil, run, ds, ts)
			if err != nil {
				t.Fatalf("Slab(%s@%d): %v", ds, ts, err)
			}
			buf := make([]byte, info.GlobalSize*8)
			h, err := cl.FS.Open(rec.FileName, pfs.ReadOnly, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.ReadAtVec(buf, []pfs.Extent{{Off: rec.FileOffset, Len: int64(len(buf))}}); err != nil {
				t.Fatal(err)
			}
			want[key{ds, ts}] = buf
		}
	}

	baseGets := svc.Stats().Gets
	for ts := int64(0); ts < steps; ts++ {
		for _, ds := range []string{"pressure", "velocity"} {
			got, err := c.ReadDataset(run, ds, ts)
			if err != nil {
				t.Fatalf("cold remote read %s@%d: %v", ds, ts, err)
			}
			if !bytes.Equal(got, want[key{ds, ts}]) {
				t.Fatalf("cold remote read %s@%d diverges from catalog-resolved bytes", ds, ts)
			}
		}
	}
	coldGets := svc.Stats().Gets
	if coldGets <= baseGets {
		t.Fatal("cold pass issued no remote GETs — the bundle was not served from the object tier")
	}

	hitsBefore := srv.CacheStats().Hits
	for ts := int64(0); ts < steps; ts++ {
		for _, ds := range []string{"pressure", "velocity"} {
			got, err := c.ReadDataset(run, ds, ts)
			if err != nil {
				t.Fatalf("warm remote read %s@%d: %v", ds, ts, err)
			}
			if !bytes.Equal(got, want[key{ds, ts}]) {
				t.Fatalf("warm remote read %s@%d diverges", ds, ts)
			}
		}
	}
	if g := svc.Stats().Gets; g != coldGets {
		t.Fatalf("warm pass issued %d new remote GETs, want 0 (block cache should promote cold reads)", g-coldGets)
	}
	if hits := srv.CacheStats().Hits; hits <= hitsBefore {
		t.Fatalf("warm pass added no block-cache hits (before %d, after %d)", hitsBefore, hits)
	}
}

// TestObjstoreRestartReadRequests: a restart read of an obj bundle —
// open, attach, read every saved step — costs the remote the requests it
// cost when the cluster ran on the bundle's backend itself: the Mem
// over it opens each file in the base once, with no Stat first, and
// reads in place. The counts are what this test measured on a cluster
// running on the backend directly: one HEAD and one GET per file.
func TestObjstoreRestartReadRequests(t *testing.T) {
	const procs, globalN, steps = 4, 1 << 10, 2
	const wantHeads, wantGets = 4, 4
	dir := filepath.Join(t.TempDir(), "bundle")
	writer := NewCluster(ClusterConfig{Procs: procs})
	writeDemoRunOpts(t, writer, globalN, steps, Options{Organization: Level1})
	if err := writer.SaveBundleOpts(dir, BundleOptions{Backend: "obj"}); err != nil {
		t.Fatal(err)
	}
	svc := objstore.Dial(bundleEndpoint(dir, ""))
	before := svc.Stats()
	cl, err := OpenBundle(dir, ClusterConfig{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Run(func(p *Proc) {
		s, err := p.Initialize("bundledemo", Options{Organization: Level1, AttachRun: 1})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		g, err := s.OpenGroup([]string{"pressure", "velocity"})
		if err != nil {
			t.Error(err)
			return
		}
		mapArr := demoMap(p.Rank(), p.Size(), globalN)
		if _, err := g.DataView([]string{"pressure", "velocity"}, mapArr); err != nil {
			t.Error(err)
			return
		}
		for ts := int64(0); ts < steps; ts++ {
			for _, ds := range []string{"pressure", "velocity"} {
				got, err := getAt(g, ds, ts, len(mapArr))
				if err != nil {
					t.Error(err)
					return
				}
				if want := demoValue(ds, ts, mapArr[0]); got[0] != want {
					t.Errorf("%s@%d elem %d = %g, want %g", ds, ts, mapArr[0], got[0], want)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	after := svc.Stats()
	if heads, gets := after.Heads-before.Heads, after.Gets-before.Gets; heads != wantHeads || gets != wantGets {
		t.Errorf("restart read: %d HEADs and %d GETs, want %d and %d", heads, gets, wantHeads, wantGets)
	}
}
