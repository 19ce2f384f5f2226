// Command sdmbench regenerates the paper's evaluation: one table per
// figure of "A Scientific Data Management System for Irregular
// Applications" (IPDPS 2001), plus the ablations called out in
// DESIGN.md. The figures are declared in internal/workloads (Figures):
// this command runs the selected ones, prints each one's rows, and
// checks the shape the paper claims of them. Absolute magnitudes depend
// on the simulated-hardware profile (sdm.Origin2000Config); the claims
// are about shape — who wins, by roughly what factor, and where the
// crossovers fall. At the default scale (workloads.PaperScale) a broken
// shape fails the run; at any other scale the verdict is only printed,
// since small meshes flip some shapes.
//
// With -json, every measured case is also appended to a
// machine-readable results file (workload, configuration, metrics), so
// successive commits leave a comparable BENCH_*.json trajectory. Every
// metric is simulated and repeats bit for bit on any host (benchmark/
// measures host cost, with repeats). When another BENCH_*.json sits
// beside the -json target the run is also a gate: the newest of them is
// the baseline, and sdmbench exits non-zero if a metric is not
// bit-identical to it, or a row of it was not measured again, unless
// the BENCH_MOVED file in the same directory names the row
// ("experiment/case/metric — reason"; a trailing * matches any suffix).
//
// Usage:
//
//	sdmbench [-experiment all|fig5|fig6|fig7|pipeline|ablations] [-nx 32]
//	         [-rtnx 40] [-procs 64] [-steps 2] [-rtsteps 5] [-pipesteps 8]
//	         [-json BENCH.json] [-bundle DIR] [-trace out.json]
//
// With -bundle, the last case's cluster (files plus metadata catalog)
// is saved as a run bundle under DIR, inspectable afterwards with
// sdmcat/sdmls and reopenable with sdm.OpenBundle. With -trace, every
// case's cluster records virtual-time spans and the last one's trace is
// written as Chrome trace-event JSON (Perfetto; analyze with sdmtrace).
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

// benchLog is the -json results file.
type benchLog struct {
	Schema    int           `json:"schema"`
	CreatedAt string        `json:"created_at"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Records   []benchRecord `json:"records"`
}

// lastCluster is the most recent case's cluster, kept so -bundle can
// persist a bench run's artifacts for later inspection.
var lastCluster *sdm.Cluster

// tracePath, when set by -trace, enables span tracing on every case's
// cluster; the last cluster's trace is written there as Chrome
// trace-event JSON at exit (load in Perfetto, or analyze with
// sdmtrace). lastTracer is that cluster's tracer.
var (
	tracePath  string
	lastTracer *sdm.Tracer
)

// newCluster builds a case's cluster — the one constructor every figure
// is handed — remembers it for -bundle, and, when -trace is active,
// installs a fresh tracer and metrics registry so the written trace
// covers exactly the last case.
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
	experiment := flag.String("experiment", "all", "fig5, fig6, fig7, pipeline, ablations, or all")
	sc := workloads.PaperScale // the flags' defaults
	flag.IntVar(&sc.NX, "nx", sc.NX, "FUN3D mesh cells per dimension (paper: ~18M edges; 32 => ~245k)")
	flag.IntVar(&sc.RTNX, "rtnx", sc.RTNX, "RT mesh cells per dimension")
	flag.IntVar(&sc.Procs, "procs", sc.Procs, "process count for the FUN3D figures")
	flag.IntVar(&sc.Steps, "steps", sc.Steps, "FUN3D checkpoint steps (paper: 2)")
	flag.IntVar(&sc.RTSteps, "rtsteps", sc.RTSteps, "RT checkpoints (paper: 5)")
	flag.IntVar(&sc.PipeSteps, "pipesteps", sc.PipeSteps, "checkpoints streamed by the pipeline figure")
	jsonPath := flag.String("json", "", "append machine-readable results to this JSON file")
	bundlePath := flag.String("bundle", "", "save the last case's cluster as a run bundle here")
	flag.StringVar(&tracePath, "trace", "", "record the last case's virtual-time spans as Chrome trace JSON here")
	flag.Parse()

	bl := benchLog{
		Schema:    1,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}

	selected := false
	var broken []string
	in := &workloads.Inputs{Scale: sc}
	for i := range workloads.Figures {
		fig := &workloads.Figures[i]
		if *experiment != "all" && *experiment != fig.Name &&
			!(*experiment == "ablations" && strings.HasPrefix(fig.Name, "ablation-")) {
			continue
		}
		selected = true
		rows, err := fig.Run(in, newCluster)
		if err != nil {
			log.Fatalf("%s: %v", fig.Name, err)
		}
		printFigure(fig, rows)
		for _, r := range rows {
			bl.Records = append(bl.Records, benchRecord{Experiment: fig.Name, Case: r.Case,
				Workload: fig.Workload, Config: r.Config, SimMetrics: r.Metrics})
		}
		verdict := "holds"
		if err := fig.Shape(rows); err != nil {
			verdict = "BROKEN: " + err.Error()
			broken = append(broken, fig.Name)
		}
		fmt.Printf("paper shape: %s — %s\n", fig.Claim, verdict)
	}
	if !selected {
		log.Fatalf("unknown experiment %q", *experiment)
	}

	if tracePath != "" {
		if err := lastTracer.WriteChromeFile(tracePath); err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		fmt.Printf("wrote %d spans to %s (load in Perfetto, or run sdmtrace over it)\n",
			lastTracer.SpanCount(), tracePath)
	}

	var drift []string
	if *jsonPath != "" {
		fresh := bl.Records
		if err := bl.write(*jsonPath); err != nil {
			log.Fatalf("writing %s: %v", *jsonPath, err)
		}
		fmt.Printf("\nwrote %d records to %s (%d total)\n", len(fresh), *jsonPath, len(bl.Records))
		drift = printDelta(*jsonPath, fresh, *experiment == "all")
	}
	if *bundlePath != "" {
		if err := lastCluster.SaveBundle(*bundlePath); err != nil {
			log.Fatalf("saving bundle: %v", err)
		}
		fmt.Printf("saved run bundle to %s\n", *bundlePath)
	}
	if len(drift) > 0 {
		for _, d := range drift {
			fmt.Fprintln(os.Stderr, "sdmbench:", d)
		}
		log.Fatalf("%d rows differ from the previous BENCH file and BENCH_MOVED does not name them", len(drift))
	}
	// The shapes are the paper's claims about its own scale; a smaller
	// mesh may flip one without anything being wrong.
	if len(broken) > 0 && sc == workloads.PaperScale {
		log.Fatalf("paper shape broken at paper scale: %s", strings.Join(broken, ", "))
	}
}

// printFigure prints a figure's rows as one table: the case, then the
// figure's columns, each a recorded metric or a display-only count.
func printFigure(fig *workloads.Figure, rows []workloads.Row) {
	fmt.Printf("\n=== %s ===\n", fig.Title)
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "case\t%s\n", strings.Join(fig.Columns, "\t"))
	for _, r := range rows {
		fmt.Fprint(w, r.Case)
		for _, col := range fig.Columns {
			if v, ok := r.Metrics[col]; ok {
				fmt.Fprintf(w, "\t%.3f", v)
			} else {
				fmt.Fprintf(w, "\t%v", r.Shown[col])
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
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
// other BENCH_*.json beside path. It prints a one-line summary — how many
// metrics are bit-identical to the previous file's, which differ under a
// BENCH_MOVED line, which have no counterpart in the previous file
// (newly added), which of the previous file were not measured again
// (vanished) — and returns what fails the gate: every metric that
// differs, and every vanished row, that BENCH_MOVED does not name. all
// says every experiment ran; otherwise only the experiments present in
// fresh are in scope.
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
	identical := 0
	var onPurpose, added []string
	for _, r := range fresh {
		for m, v := range r.SimMetrics {
			key := r.Experiment + "/" + r.Case + "/" + m
			pv, ok := prev[key]
			delete(prev, key)
			switch {
			case !ok:
				added = append(added, key)
			case v == pv:
				identical++
			case isMoved(moved, key):
				onPurpose = append(onPurpose, fmt.Sprintf("%s %.4g -> %.4g", key, pv, v))
			default:
				failures = append(failures, fmt.Sprintf("%s drifted: %v -> %v", key, pv, v))
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
	fmt.Printf("delta vs %s: %d metrics bit-identical%s%s%s\n", filepath.Base(prevPath), identical,
		listSome("moved on purpose", onPurpose), listSome("newly added", added), listSome("vanished", vanished))
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
	newest := ""
	for _, m := range matches {
		if abs, _ := filepath.Abs(m); abs == self {
			continue
		}
		if len(m) > len(newest) || len(m) == len(newest) && m > newest {
			newest = m
		}
	}
	return newest
}
