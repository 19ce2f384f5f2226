// Command sdmbench regenerates the paper's evaluation: one table per
// figure of "A Scientific Data Management System for Irregular
// Applications" (IPDPS 2001), plus the ablations called out in
// DESIGN.md. Absolute magnitudes depend on the simulated-hardware
// profile (sdm.Origin2000Config); the claims are about shape — who
// wins, by roughly what factor, and where the crossovers fall.
//
// With -json, every measured case is also appended to a
// machine-readable results file (workload, configuration, metrics), so
// successive commits leave a comparable BENCH_*.json trajectory. Host
// time and allocations are not recorded: a single shot of either does
// not repeat (benchmark/ measures host cost, with repeats). When another
// BENCH_*.json sits beside the -json target the run is also a gate: the
// newest of them is the baseline, and sdmbench exits non-zero if a
// deterministic metric (sim-*, remote-*, trace-spans, files, *-MB) is
// not bit-identical to it, or a row of it was not measured again,
// unless the BENCH_MOVED file in the same directory names the row
// ("experiment/case/metric — reason"; a trailing * matches any suffix).
//
// Usage:
//
//	sdmbench [-experiment all|fig5|fig6|fig7|pipeline|ablations|bundle|trace|objstore] [-nx 32]
//	         [-rtnx 40] [-procs 64] [-steps 2] [-rtsteps 5] [-pipesteps 8]
//	         [-json BENCH.json] [-bundle DIR] [-trace out.json]
//
// With -bundle, the last experiment's cluster (files plus metadata
// catalog) is saved as a run bundle under DIR, inspectable afterwards
// with sdmcat/sdmls and reopenable with sdm.OpenBundle. With -trace,
// every experiment cluster records virtual-time spans and the last
// one's trace is written as Chrome trace-event JSON (Perfetto; analyze
// with sdmtrace). The trace experiment prices tracing itself: the same
// pipelined workload with spans off and on, pinning the simulated
// metrics bit-identical either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"sdm"
	"sdm/internal/workloads"
)

// benchRecord is one measured case of one experiment.
type benchRecord struct {
	Experiment string             `json:"experiment"`
	Case       string             `json:"case"`
	Workload   string             `json:"workload"`
	Config     map[string]any     `json:"config"`
	SimMetrics map[string]float64 `json:"sim_metrics"`
}

// benchLog accumulates records for -json output. A nil *benchLog
// swallows records, so the table-printing paths need no branching.
type benchLog struct {
	Schema    int           `json:"schema"`
	CreatedAt string        `json:"created_at"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Records   []benchRecord `json:"records"`
}

// lastCluster is the most recent experiment's cluster, kept so -bundle
// can persist a bench run's artifacts for later inspection.
var lastCluster *sdm.Cluster

// tracePath, when set by -trace, enables span tracing on every
// experiment cluster; the last cluster's trace is written there as
// Chrome trace-event JSON at exit (load in Perfetto, or analyze with
// sdmtrace). lastTracer is that cluster's tracer.
var (
	tracePath  string
	lastTracer *sdm.Tracer
)

// newCluster builds an experiment cluster, remembers it for -bundle,
// and — when -trace is active — installs a fresh tracer and metrics
// registry so the written trace covers exactly the last experiment.
func newCluster(cfg sdm.ClusterConfig) *sdm.Cluster {
	cl := sdm.NewCluster(cfg)
	lastCluster = cl
	if tracePath != "" {
		lastTracer = sdm.NewTracer()
		cl.SetTracer(lastTracer)
		cl.SetMetrics(sdm.NewRegistry())
	}
	return cl
}

func (bl *benchLog) add(rec benchRecord) {
	if bl == nil {
		return
	}
	bl.Records = append(bl.Records, rec)
}

// write persists the log. If path already holds a benchLog, its
// records are kept and the new ones appended, so successive runs
// against one file accumulate a trajectory instead of overwriting it.
func (bl *benchLog) write(path string) error {
	if prev, err := os.ReadFile(path); err == nil {
		var old benchLog
		if err := json.Unmarshal(prev, &old); err != nil {
			return fmt.Errorf("existing %s is not a results file: %w", path, err)
		}
		bl.Records = append(old.Records, bl.Records...)
	}
	out, err := json.MarshalIndent(bl, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

func main() {
	experiment := flag.String("experiment", "all", "fig5, fig6, fig7, pipeline, ablations, bundle, trace, objstore, or all")
	nx := flag.Int("nx", 32, "FUN3D mesh cells per dimension (paper: ~18M edges; 32 => ~245k)")
	rtnx := flag.Int("rtnx", 40, "RT mesh cells per dimension")
	procs := flag.Int("procs", 64, "process count for fig5/fig6")
	steps := flag.Int("steps", 2, "FUN3D checkpoint steps (paper: 2)")
	rtsteps := flag.Int("rtsteps", 5, "RT checkpoints (paper: 5)")
	pipesteps := flag.Int("pipesteps", 8, "checkpoints streamed by the pipeline experiment")
	jsonPath := flag.String("json", "", "append machine-readable results to this JSON file")
	bundlePath := flag.String("bundle", "", "save the last experiment's cluster as a run bundle here")
	trace := flag.String("trace", "", "record the last experiment's virtual-time spans as Chrome trace JSON here")
	flag.Parse()
	tracePath = *trace

	var bl *benchLog
	if *jsonPath != "" {
		bl = &benchLog{
			Schema:    1,
			CreatedAt: time.Now().UTC().Format(time.RFC3339),
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
		}
	}

	switch *experiment {
	case "fig5":
		runFig5(*nx, *procs, bl)
	case "fig6":
		runFig6(*nx, *procs, *steps, bl)
	case "fig7":
		runFig7(*rtnx, *rtsteps, bl)
	case "pipeline":
		runPipeline(*nx, *procs, *pipesteps, bl)
	case "ablations":
		runAblations(*nx, *procs, bl)
	case "bundle":
		runBundleBench(*nx, *procs, *steps, bl)
	case "trace":
		runTraceOverhead(*nx, *procs, *pipesteps, bl)
	case "objstore":
		runObjstore(*nx, *procs, *steps, bl)
	case "all":
		runFig5(*nx, *procs, bl)
		runFig6(*nx, *procs, *steps, bl)
		runFig7(*rtnx, *rtsteps, bl)
		runPipeline(*nx, *procs, *pipesteps, bl)
		runAblations(*nx, *procs, bl)
		runBundleBench(*nx, *procs, *steps, bl)
		runTraceOverhead(*nx, *procs, *pipesteps, bl)
		runObjstore(*nx, *procs, *steps, bl)
	default:
		log.Fatalf("unknown experiment %q", *experiment)
	}

	if tracePath != "" {
		if lastTracer == nil {
			log.Fatal("-trace: no experiment cluster was traced")
		}
		if err := lastTracer.WriteChromeFile(tracePath); err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		fmt.Printf("wrote %d spans to %s (load in Perfetto, or run sdmtrace over it)\n",
			lastTracer.SpanCount(), tracePath)
	}

	var drift []string
	if bl != nil {
		fresh := bl.Records
		if err := bl.write(*jsonPath); err != nil {
			log.Fatalf("writing %s: %v", *jsonPath, err)
		}
		fmt.Printf("\nwrote %d records to %s (%d total)\n", len(fresh), *jsonPath, len(bl.Records))
		drift = printDelta(*jsonPath, fresh, *experiment == "all")
	}
	if *bundlePath != "" {
		if lastCluster == nil {
			log.Fatal("-bundle: no experiment cluster to save")
		}
		if err := lastCluster.SaveBundle(*bundlePath); err != nil {
			log.Fatalf("saving bundle: %v", err)
		}
		fmt.Printf("saved run bundle to %s\n", *bundlePath)
	}
	if len(drift) > 0 {
		for _, d := range drift {
			fmt.Fprintln(os.Stderr, "sdmbench:", d)
		}
		log.Fatalf("%d deterministic rows differ from the previous BENCH file and BENCH_MOVED does not name them", len(drift))
	}
}

// deterministic reports whether a metric must repeat bit for bit on any
// host: simulated times and bandwidths, the simulated remote's ledger,
// span and file counts, byte volumes. The host-* throughputs depend on
// timing and never gate.
func deterministic(metric string) bool {
	return strings.HasPrefix(metric, "sim-") || strings.HasPrefix(metric, "remote-") ||
		metric == "trace-spans" || metric == "files" || strings.HasSuffix(metric, "-MB")
}

// movedRows reads the BENCH_MOVED file beside the results: one
// "experiment/case/metric — reason" line per row this change moves or
// removes on purpose (a trailing * matches any suffix; # starts a
// comment). A line without a reason is an error.
func movedRows(dir string) ([]string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_MOVED"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		row, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("BENCH_MOVED: %q has no \" — reason\"", line)
		}
		rows = append(rows, strings.TrimSpace(row))
	}
	return rows, nil
}

func isMoved(rows []string, key string) bool {
	for _, row := range rows {
		if prefix, wild := strings.CutSuffix(row, "*"); row == key || wild && strings.HasPrefix(key, prefix) {
			return true
		}
	}
	return false
}

// printDelta compares the freshly measured metrics against the newest
// other BENCH_*.json beside path. It prints a one-line summary
// (bandwidth metrics count as improved when they rise, time metrics
// when they fall; sizes and counts are not better or worse), lists
// metrics with no counterpart in the previous file as newly added and
// metrics of the previous file that were not measured again as
// vanished, and returns what fails the gate: every deterministic metric
// whose value is not bit-identical to the previous file's, and every
// vanished row, unless BENCH_MOVED names it. all says every experiment
// ran; otherwise only the experiments present in fresh are in scope.
func printDelta(path string, fresh []benchRecord, all bool) (failures []string) {
	prevPath := latestOtherBench(path)
	if prevPath == "" {
		return nil
	}
	raw, err := os.ReadFile(prevPath)
	if err != nil {
		return nil
	}
	var old benchLog
	if err := json.Unmarshal(raw, &old); err != nil {
		return nil
	}
	moved, err := movedRows(filepath.Dir(path))
	if err != nil {
		return []string{err.Error()}
	}
	inScope := map[string]bool{}
	for _, r := range fresh {
		inScope[r.Experiment] = true
	}
	prev := make(map[string]float64)
	for _, r := range old.Records { // later records win, matching append order
		if !all && !inScope[r.Experiment] {
			continue
		}
		for m, v := range r.SimMetrics {
			prev[r.Experiment+"/"+r.Case+"/"+m] = v
		}
	}
	var compared, improved, regressed int
	var added []string
	worst, worstKey := 0.0, ""
	headline := ""
	for _, r := range fresh {
		for m, v := range r.SimMetrics {
			key := r.Experiment + "/" + r.Case + "/" + m
			pv, ok := prev[key]
			if !ok {
				added = append(added, key)
				continue
			}
			delete(prev, key)
			if deterministic(m) && v != pv && !isMoved(moved, key) {
				failures = append(failures, fmt.Sprintf("%s drifted: %v -> %v", key, pv, v))
			}
			higherBetter := strings.Contains(m, "MB/s")
			if pv == 0 || v == 0 || !higherBetter && !strings.Contains(m, "-s") {
				continue // nothing to divide by; sizes and counts are not better/worse
			}
			compared++
			gain := v/pv - 1
			if !higherBetter {
				gain = pv/v - 1
			}
			switch {
			case gain > 0.01:
				improved++
			case gain < -0.01:
				regressed++
				if gain < worst {
					worst, worstKey = gain, key
				}
			}
			if r.Experiment == "fig6" && r.Case == "level3" && m == "sim-write-MB/s" {
				headline = fmt.Sprintf("fig6/level3 write %.1f→%.1f MB/s (%+.1f%%); ", pv, v, (v/pv-1)*100)
			}
		}
	}
	vanished := make([]string, 0, len(prev)) // what was not measured again
	for key := range prev {
		vanished = append(vanished, key)
		if !isMoved(moved, key) {
			failures = append(failures, key+" vanished")
		}
	}
	line := fmt.Sprintf("delta vs %s: %s%d metrics compared, %d improved, %d regressed >1%%",
		filepath.Base(prevPath), headline, compared, improved, regressed)
	if worstKey != "" {
		line += fmt.Sprintf(" (worst %s %.1f%%)", worstKey, worst*100)
	}
	line += listSome("newly added", added) + listSome("vanished", vanished)
	fmt.Println(line)
	sort.Strings(failures)
	return failures
}

// listSome renders "; N label (a, b, c, …)" for a non-empty key list.
func listSome(label string, keys []string) string {
	if len(keys) == 0 {
		return ""
	}
	sort.Strings(keys)
	show := keys
	if len(show) > 3 {
		show = append(show[:3:3], "…")
	}
	return fmt.Sprintf("; %d %s (%s)", len(keys), label, strings.Join(show, ", "))
}

// latestOtherBench returns the lexically newest BENCH_*.json in path's
// directory other than path itself ("" if none). BENCH_10 sorts after
// BENCH_9 via a length-then-lexical order.
func latestOtherBench(path string) string {
	dir := filepath.Dir(path)
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return ""
	}
	self, _ := filepath.Abs(path)
	var others []string
	for _, m := range matches {
		if abs, _ := filepath.Abs(m); abs != self {
			others = append(others, m)
		}
	}
	if len(others) == 0 {
		return ""
	}
	sort.Slice(others, func(i, j int) bool {
		if len(others[i]) != len(others[j]) {
			return len(others[i]) < len(others[j])
		}
		return others[i] < others[j]
	})
	return others[len(others)-1]
}

func newFUN3D(nx int) *workloads.FUN3D {
	f, err := workloads.NewFUN3D(workloads.FUN3DConfig{NX: nx, NY: nx, NZ: nx})
	if err != nil {
		log.Fatal(err)
	}
	return f
}

func table() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
}

func runFig5(nx, procs int, bl *benchLog) {
	fmt.Printf("\n=== Figure 5: execution time for partitioning indices and data in FUN3D ===\n")
	f := newFUN3D(nx)
	fmt.Printf("mesh: %d nodes, %d edges; %d processes\n",
		f.Mesh.NumNodes(), f.Mesh.NumEdges(), procs)
	cfg := map[string]any{"nx": nx, "procs": procs,
		"nodes": f.Mesh.NumNodes(), "edges": f.Mesh.NumEdges()}

	cl := newCluster(sdm.Origin2000Config(procs))
	if err := f.Stage(cl); err != nil {
		log.Fatal(err)
	}
	run := func(name string, mode workloads.PartitionMode, history bool) *workloads.PartitionStats {
		st, err := f.ImportAndPartition(cl, mode, history)
		if err != nil {
			log.Fatal(err)
		}
		bl.add(benchRecord{
			Experiment: "fig5", Case: name, Workload: "fun3d", Config: cfg,
			SimMetrics: map[string]float64{
				"sim-import-s/op": st.ImportSec,
				"sim-distri-s/op": st.DistributeSec,
				"sim-total-s/op":  st.TotalSec,
			},
		})
		return st
	}
	orig := run("original", workloads.ModeOriginal, false)
	noHist := run("sdm-nohistory", workloads.ModeSDM, true)
	withHist := run("sdm-history", workloads.ModeSDM, true)
	if !withHist.FromHistory {
		log.Fatal("history was not used on the second SDM run")
	}

	w := table()
	fmt.Fprintf(w, "mode\timport (s)\tindex distri. (s)\ttotal (s)\n")
	fmt.Fprintf(w, "Original\t%.3f\t%.3f\t%.3f\n", orig.ImportSec, orig.DistributeSec, orig.TotalSec)
	fmt.Fprintf(w, "SDM (without history)\t%.3f\t%.3f\t%.3f\n", noHist.ImportSec, noHist.DistributeSec, noHist.TotalSec)
	fmt.Fprintf(w, "SDM (with history)\t%.3f\t%.3f\t%.3f\n", withHist.ImportSec, withHist.DistributeSec, withHist.TotalSec)
	w.Flush()
	fmt.Printf("paper shape: Original slowest; history cuts both bars (Fig. 5 shows ~3x total)\n")
}

func fig6Case(f *workloads.FUN3D, level sdm.FileOrganization, procs, steps int,
	hints sdm.Hints, experiment, name string, bl *benchLog) *workloads.Fig6Stats {
	cl := newCluster(sdm.Origin2000Config(procs))
	if err := f.Stage(cl); err != nil {
		log.Fatal(err)
	}
	st, err := f.WriteReadBandwidthHints(cl, level, steps, hints)
	if err != nil {
		log.Fatal(err)
	}
	bl.add(benchRecord{
		Experiment: experiment, Case: name, Workload: "fun3d",
		Config: map[string]any{"procs": procs, "steps": steps, "level": level.String(),
			"disable_collective": hints.DisableCollective,
			"min_stripe_unit":    st.MinStripeUnit, "max_stripe_unit": st.MaxStripeUnit},
		SimMetrics: map[string]float64{
			"sim-write-MB/s": st.WriteMBps,
			"sim-read-MB/s":  st.ReadMBps,
		},
	})
	return st
}

func runFig6(nx, procs, steps int, bl *benchLog) {
	fmt.Printf("\n=== Figure 6: I/O bandwidth for writing/reading data in FUN3D ===\n")
	f := newFUN3D(nx)
	fmt.Printf("5 datasets (4 node-sized + 1 five-times-larger), %d steps, %d processes\n",
		steps, procs)
	w := table()
	fmt.Fprintf(w, "organization\twrite (MB/s)\tread (MB/s)\tfiles\tstripe unit\topens\tviews\n")
	for _, level := range []sdm.FileOrganization{sdm.Level1, sdm.Level2, sdm.Level3} {
		st := fig6Case(f, level, procs, steps, sdm.Hints{}, "fig6", level.String(), bl)
		fmt.Fprintf(w, "%v\t%.1f\t%.1f\t%d\t%s\t%d\t%d\n",
			level, st.WriteMBps, st.ReadMBps, st.Files, unitRange(st), st.FileOpens, st.FileViews)
	}
	w.Flush()
	fmt.Printf("paper shape: level3 >= level2 >= level1, view costs grow as the level drops. Each file's\n" +
		"stripe unit is chosen from the dataset attributes so that one step's extent covers every\n" +
		"server once; opens are charged opens (only a file's aggregator set opens it, not every\n" +
		"rank), and a finer unit means a wider set — see the open-cost and striping ablations\n")
}

// unitRange prints the stripe units of the files a fig6 run created.
func unitRange(st *workloads.Fig6Stats) string {
	if st.MinStripeUnit == st.MaxStripeUnit {
		return fmt.Sprintf("%d KiB", st.MinStripeUnit>>10)
	}
	return fmt.Sprintf("%d-%d KiB", st.MinStripeUnit>>10, st.MaxStripeUnit>>10)
}

func runFig7(rtnx, rtsteps int, bl *benchLog) {
	fmt.Printf("\n=== Figure 7: I/O bandwidth for RT ===\n")
	r, err := workloads.NewRT(workloads.RTConfig{NX: rtnx, NY: rtnx, NZ: rtnx, Steps: rtsteps})
	if err != nil {
		log.Fatal(err)
	}
	m := r.RT.Mesh()
	fmt.Printf("mesh: %d nodes, %d boundary triangles; %d checkpoints\n",
		m.NumNodes(), r.RT.NumTriangles(), rtsteps)
	w := table()
	fmt.Fprintf(w, "mode\tprocs\ttotal (MB)\twrite (s)\tbandwidth (MB/s)\n")
	for _, mode := range []workloads.RTMode{workloads.RTOriginal, workloads.RTLevel1, workloads.RTLevel23} {
		for _, procs := range []int{32, 64} {
			cl := newCluster(sdm.Origin2000Config(procs))
			st, err := r.WriteBandwidth(cl, mode)
			if err != nil {
				log.Fatal(err)
			}
			bl.add(benchRecord{
				Experiment: "fig7", Case: fmt.Sprintf("%v-%d", mode, procs), Workload: "rt",
				Config: map[string]any{"rtnx": rtnx, "rtsteps": rtsteps, "procs": procs,
					"mode": fmt.Sprintf("%v", mode)},
				SimMetrics: map[string]float64{
					"sim-write-MB/s": st.MBps,
					"sim-write-s":    st.WriteSec,
					"total-MB":       st.TotalMB,
				},
			})
			fmt.Fprintf(w, "%v\t%d\t%.1f\t%.3f\t%.1f\n",
				mode, procs, st.TotalMB, st.WriteSec, st.MBps)
		}
	}
	w.Flush()
	fmt.Printf("paper shape: SDM >> original; level1 ~ level2/3; 64 procs slower than 32\n")
}

func runPipeline(nx, procs, steps int, bl *benchLog) {
	fmt.Printf("\n=== Pipeline: N-deep step pipelining on a file-per-timestep layout ===\n")
	f := newFUN3D(nx)
	fmt.Printf("level1 (file per dataset per timestep), 5 datasets, %d checkpoints, %d processes\n",
		steps, procs)
	w := table()
	fmt.Fprintf(w, "depth\twrite (MB/s)\tread (MB/s)\tfiles\n")
	var base, baseRead float64
	for _, depth := range []int{1, 2, 4} {
		cl := newCluster(sdm.Origin2000Config(procs))
		if err := f.Stage(cl); err != nil {
			log.Fatal(err)
		}
		st, err := f.PipelineWriteBandwidth(cl, steps, depth)
		if err != nil {
			log.Fatal(err)
		}
		bl.add(benchRecord{
			Experiment: "pipeline", Case: fmt.Sprintf("depth-%d", depth), Workload: "fun3d",
			Config: map[string]any{"procs": procs, "steps": steps, "depth": depth,
				"level": st.Level.String()},
			SimMetrics: map[string]float64{
				"sim-write-MB/s": st.WriteMBps,
				"sim-read-MB/s":  st.ReadMBps,
			},
		})
		if depth == 1 {
			base, baseRead = st.WriteMBps, st.ReadMBps
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%d\n", depth, st.WriteMBps, st.ReadMBps, st.Files)
	}
	w.Flush()
	fmt.Printf("expected: disjoint per-step files keep N flushes in flight, so depth >= 2 beats\n"+
		"depth 1 (%.1f MB/s) well beyond the 15%% bar while depth 1 matches the classic schedule;\n"+
		"the synchronous read-back (depth 1: %.1f MB/s) rises with depth too, through read-ahead\n", base, baseRead)
}

func runAblations(nx, procs int, bl *benchLog) {
	fmt.Printf("\n=== Ablations (design choices from DESIGN.md) ===\n")
	f := newFUN3D(nx)

	// (a) Two-phase collective I/O versus independent noncontiguous I/O.
	fmt.Printf("\n-- collective (two-phase) vs independent irregular writes --\n")
	w := table()
	fmt.Fprintf(w, "I/O path\twrite (MB/s)\tread (MB/s)\tfs write reqs\n")
	for _, disable := range []bool{false, true} {
		name := "two-phase collective"
		if disable {
			name = "independent"
		}
		st := fig6Case(f, sdm.Level3, procs, 1, sdm.Hints{DisableCollective: disable},
			"ablation-two-phase", name, bl)
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%d\n", name, st.WriteMBps, st.ReadMBps, st.WriteReqs)
	}
	w.Flush()

	// (b) Metadata database cost: SDM with and without the catalog.
	fmt.Printf("\n-- metadata database overhead on the history path --\n")
	w = table()
	fmt.Fprintf(w, "configuration\timport (s)\tindex distri. (s)\n")
	{
		cl := newCluster(sdm.Origin2000Config(procs))
		if err := f.Stage(cl); err != nil {
			log.Fatal(err)
		}
		st1, err := f.ImportAndPartition(cl, workloads.ModeSDM, true)
		if err != nil {
			log.Fatal(err)
		}
		st2, err := f.ImportAndPartition(cl, workloads.ModeSDM, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "with DB, ring\t%.3f\t%.3f\n", st1.ImportSec, st1.DistributeSec)
		fmt.Fprintf(w, "with DB, history\t%.3f\t%.3f\n", st2.ImportSec, st2.DistributeSec)
	}
	w.Flush()

	// (c) Striping width sweep: where parallel I/O saturates.
	fmt.Printf("\n-- I/O server count sweep (level 3 write bandwidth) --\n")
	w = table()
	fmt.Fprintf(w, "servers\twrite (MB/s)\n")
	for _, servers := range []int{1, 2, 5, 10, 20} {
		cfg := sdm.Origin2000Config(procs)
		cfg.Storage.NumServers = servers
		cl := newCluster(cfg)
		if err := f.Stage(cl); err != nil {
			log.Fatal(err)
		}
		st, err := f.WriteReadBandwidth(cl, sdm.Level3, 1)
		if err != nil {
			log.Fatal(err)
		}
		bl.add(benchRecord{
			Experiment: "ablation-stripe-width", Case: fmt.Sprintf("servers-%d", servers),
			Workload: "fun3d",
			Config:   map[string]any{"procs": procs, "servers": servers},
			SimMetrics: map[string]float64{
				"sim-write-MB/s": st.WriteMBps,
			},
		})
		fmt.Fprintf(w, "%d\t%.1f\n", servers, st.WriteMBps)
	}
	w.Flush()

	// (c') Stripe unit: the file system's default for every file (the
	// schedule before per-file layouts, reachable only as this hint)
	// against the unit SDM chooses from the dataset attributes.
	fmt.Printf("\n-- stripe unit: file-system default vs metadata-sized (level 3) --\n")
	w = table()
	fmt.Fprintf(w, "stripe unit\twrite (MB/s)\tread (MB/s)\tfs write reqs\topens\n")
	for _, tc := range []struct {
		name  string
		hints sdm.Hints
	}{
		{"default-unit", sdm.Hints{StripingUnit: sdm.Origin2000Config(procs).Storage.StripeSize}},
		{"metadata-sized", sdm.Hints{}},
	} {
		st := fig6Case(f, sdm.Level3, procs, 2, tc.hints, "ablation-striping", tc.name, bl)
		fmt.Fprintf(w, "%s (%s)\t%.1f\t%.1f\t%d\t%d\n",
			tc.name, unitRange(st), st.WriteMBps, st.ReadMBps, st.WriteReqs, st.FileOpens)
	}
	w.Flush()
	fmt.Printf("expected: a step of a few MB covers half the array in default-size stripes and all of it\n" +
		"in metadata-sized ones — more, smaller requests and more opens, every server busy\n")

	// (d) High-open-cost file system: when level 3 matters (the paper's
	// motivating claim for level 3).
	fmt.Printf("\n-- level sensitivity to file-open cost (100x XFS) --\n")
	w = table()
	fmt.Fprintf(w, "organization\twrite (MB/s, cheap opens)\twrite (MB/s, expensive opens)\n")
	for _, level := range []sdm.FileOrganization{sdm.Level1, sdm.Level2, sdm.Level3} {
		cheapCfg := sdm.Origin2000Config(procs)
		cl := sdm.NewCluster(cheapCfg)
		if err := f.Stage(cl); err != nil {
			log.Fatal(err)
		}
		cheap, err := f.WriteReadBandwidth(cl, level, 2)
		if err != nil {
			log.Fatal(err)
		}
		expCfg := sdm.Origin2000Config(procs)
		expCfg.Storage.OpenCost *= 100
		expCfg.Storage.ViewCost *= 100
		cl2 := newCluster(expCfg)
		if err := f.Stage(cl2); err != nil {
			log.Fatal(err)
		}
		expensive, err := f.WriteReadBandwidth(cl2, level, 2)
		if err != nil {
			log.Fatal(err)
		}
		bl.add(benchRecord{
			Experiment: "ablation-open-cost", Case: level.String(), Workload: "fun3d",
			Config: map[string]any{"procs": procs, "open_cost_multiplier": 100},
			SimMetrics: map[string]float64{
				"sim-write-MB/s-cheap":     cheap.WriteMBps,
				"sim-write-MB/s-expensive": expensive.WriteMBps,
			},
		})
		fmt.Fprintf(w, "%v\t%.1f\t%.1f\n", level, cheap.WriteMBps, expensive.WriteMBps)
	}
	w.Flush()
	fmt.Printf("expected: with expensive opens, level3's advantage over level1 widens sharply\n")
}

// runBundleBench saves the same fig6-populated cluster as a run bundle
// with the write-ahead log on (the default) and off (the same protocol
// minus the log's records, hashes and fsyncs), for both local backends,
// and records what the bundle holds. The log is retired by the save that
// wrote it, so the sizes must agree; what the log costs in host time is
// benchmark/'s sdm.wal_overhead_pct, measured with repeats.
func runBundleBench(nx, procs, steps int, bl *benchLog) {
	fmt.Printf("\n=== Bundle: what a crash-consistent save stores (WAL on vs off) ===\n")
	f := newFUN3D(nx)
	cl := newCluster(sdm.Origin2000Config(procs))
	if err := f.Stage(cl); err != nil {
		log.Fatal(err)
	}
	if _, err := f.WriteReadBandwidth(cl, sdm.Level3, steps); err != nil {
		log.Fatal(err)
	}
	var totalMB float64
	for _, name := range cl.ListFiles() {
		data, err := cl.ReadFile(name)
		if err != nil {
			log.Fatal(err)
		}
		totalMB += float64(len(data)) / 1e6
	}
	fmt.Printf("cluster holds %d files, %.1f MB\n", len(cl.ListFiles()), totalMB)

	tmp, err := os.MkdirTemp("", "sdmbench-bundle-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	w := table()
	fmt.Fprintf(w, "backend\tWAL\tbundle (MB)\n")
	for _, backend := range []string{"dir", "cas"} {
		sizes := map[bool]float64{}
		for _, wal := range []bool{false, true} {
			dir := filepath.Join(tmp, fmt.Sprintf("%s-wal%v", backend, wal))
			if err := cl.SaveBundleOpts(dir, sdm.BundleOptions{Backend: backend, DisableWAL: !wal}); err != nil {
				log.Fatal(err)
			}
			sizes[wal] = dirSizeMB(dir)
			caseName := backend + "-nowal"
			if wal {
				caseName = backend + "-wal"
			}
			bl.add(benchRecord{
				Experiment: "bundle", Case: caseName, Workload: "fun3d",
				Config: map[string]any{"nx": nx, "procs": procs, "steps": steps,
					"backend": backend, "wal": wal},
				SimMetrics: map[string]float64{"bundle-MB": sizes[wal]},
			})
			fmt.Fprintf(w, "%s\t%v\t%.1f\n", backend, wal, sizes[wal])
		}
		if sizes[true] != sizes[false] {
			log.Fatalf("a %s bundle holds %v MB saved with the WAL and %v MB without", backend, sizes[true], sizes[false])
		}
	}
	w.Flush()
	fmt.Printf("expected: the WAL costs its records, content hashes and two log fsyncs, not extra data\n" +
		"copies — bundle sizes match with and without it\n")
}

// runTraceOverhead checks that observing does not perturb: the same
// depth-4 pipelined checkpoint workload runs with tracing off and on, and
// the simulated metrics must be bit-identical either way and from rep to
// rep — the tracer only observes clock values, never advances them. What
// tracing costs the host is benchmark/'s obs.trace_overhead_pct.
func runTraceOverhead(nx, procs, steps int, bl *benchLog) {
	fmt.Printf("\n=== Trace: spans off vs on ===\n")
	f := newFUN3D(nx)
	const reps, depth = 3, 4
	fmt.Printf("level1 pipelined writes, depth %d, %d checkpoints, %d processes; %d reps each\n",
		depth, steps, procs, reps)

	run := func(traced bool) (mbps float64, spans int) {
		for rep := 0; rep < reps; rep++ {
			cl := sdm.NewCluster(sdm.Origin2000Config(procs))
			lastCluster = cl
			var tr *sdm.Tracer
			if traced {
				tr = sdm.NewTracer()
				cl.SetTracer(tr)
				cl.SetMetrics(sdm.NewRegistry())
			}
			if err := f.Stage(cl); err != nil {
				log.Fatal(err)
			}
			st, err := f.PipelineWriteBandwidth(cl, steps, depth)
			if err != nil {
				log.Fatal(err)
			}
			if rep == 0 {
				mbps = st.WriteMBps
			} else if st.WriteMBps != mbps {
				log.Fatalf("trace overhead: nondeterministic sim metric across reps (%v vs %v)", st.WriteMBps, mbps)
			}
			spans = tr.SpanCount() // nil-safe: 0 when untraced
		}
		return mbps, spans
	}

	offMBps, _ := run(false)
	onMBps, spans := run(true)
	if onMBps != offMBps {
		log.Fatalf("tracing perturbed the simulation: %v MB/s traced vs %v untraced", onMBps, offMBps)
	}

	w := table()
	fmt.Fprintf(w, "tracing\twrite (MB/s)\tspans\n")
	fmt.Fprintf(w, "off\t%.1f\t-\n", offMBps)
	fmt.Fprintf(w, "on\t%.1f\t%d\n", onMBps, spans)
	w.Flush()
	fmt.Printf("simulated metrics bit-identical (%.3f MB/s both ways)\n", onMBps)

	cfg := map[string]any{"nx": nx, "procs": procs, "steps": steps, "depth": depth}
	bl.add(benchRecord{
		Experiment: "trace-overhead", Case: "off", Workload: "fun3d", Config: cfg,
		SimMetrics: map[string]float64{"sim-write-MB/s": offMBps},
	})
	bl.add(benchRecord{
		Experiment: "trace-overhead", Case: "on", Workload: "fun3d", Config: cfg,
		SimMetrics: map[string]float64{
			"sim-write-MB/s": onMBps,
			"trace-spans":    float64(spans),
		},
	})
}

// dirSizeMB totals the on-disk bytes under dir.
func dirSizeMB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / 1e6
}
