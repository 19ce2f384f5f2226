// Command benchmark is the SDM lifecycle benchmark: one driver runs
// set-up, mesh import, checkpoint steps, bundle save, restart, serving
// and catalog lookups for each of four workloads and prints either the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See README.md in this directory and BENCHMARK.json at the repository
// root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sdm"
)

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	wl      workload
	seed    uint64
	seconds float64
	trace   bool
	root    string // storage root; bundles and the span file live below it
	quiet   bool
}

func main() {
	var (
		name      = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed      = flag.Uint64("seed", 1, "input seed: partitioner, field values, request order, preload contents")
		seconds   = flag.Float64("seconds", 20, "how long the rounds measure")
		trace     = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
		root      = flag.String("root", filepath.Join(".bench_build", "work"), "storage root for bundles and span files")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice in alternation (A/A) and compare against the bounds")
		short     = flag.Bool("short", false, "shrink the workload to test size")
	)
	flag.Parse()
	if *selfcheck {
		os.Exit(selfCheck(*seed, *seconds, *root, *short))
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *short {
		wl = wl.short()
	}
	res, err := runWorkload(runConfig{
		wl: wl, seed: *seed, seconds: *seconds, trace: *trace != 0,
		root: filepath.Join(*root, fmt.Sprintf("%s-%d-%d", wl.name, *seed, os.Getpid())),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// Round budget: one discarded warm-up round, then recorded rounds until
// the requested time has passed, at least minRounds of them (the lower
// quartile of fewer is too coarse), never past hardFactor times the
// requested time. A traced run spends a third of its time on rounds (at
// least tracedRounds) and the rest on probes.
const (
	minRounds    = 12
	hardFactor   = 1.25
	tracedRounds = 6
)

// Set-up is timed setupReps times, each repetition building it from
// fresh objects until minSetupRep CPU seconds have passed (once at
// nx=40, several times at nx=16), with the reference kernel run before
// every repetition so that both see the same machine.
const (
	setupReps   = 10
	minSetupRep = 0.1
)

// timeSetup builds the workload's set-up repeatedly and returns the
// runner of the last build with the median CPU seconds of one build,
// divided by the median of the reference runs beside them (nominal
// seconds, like every host cost).
func timeSetup(rc runConfig) (*runner, float64, error) {
	var rn *runner
	perBuild, refs := make([]float64, setupReps), make([]float64, setupReps)
	for i := range perBuild {
		rn = nil // the previous build is garbage before the next is timed
		runtime.GC()
		refs[i] = refKernel()
		builds, cpu0 := 0, cpuSeconds()
		for cpuSeconds()-cpu0 < minSetupRep {
			su, err := buildSetup(rc.wl, rc.seed)
			if err != nil {
				return nil, 0, err
			}
			rn = newRunner(rc.wl, su, rc.seed, rc.root)
			if err := rn.stageMesh(); err != nil {
				return nil, 0, err
			}
			builds++
		}
		perBuild[i] = (cpuSeconds() - cpu0) / float64(builds)
	}
	return rn, median(perBuild) * refNominalCPU / median(refs), nil
}

// runWorkload executes one workload run and returns its result line.
func runWorkload(rc runConfig) (*result, error) {
	logf := func(format string, args ...any) {
		if !rc.quiet {
			fmt.Printf(format+"\n", args...)
		}
	}
	defer os.RemoveAll(rc.root)

	rn, setupS, err := timeSetup(rc)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	logf("workload=%s seed=%d %s", rc.wl.name, rc.seed, rn.su.describe())
	logf("storage_root=%s clients=%d setup_s=%.4f (median of %d)", rc.root, clientCount(), setupS, setupReps)

	if rc.trace {
		rn.rec = newSpanRecorder()
		rn.layer = newLayerState()
	}
	if err := rn.prepare(); err != nil {
		return nil, err
	}
	if err := rn.round(0, false, false); err != nil { // warm-up, discarded
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	start := time.Now()
	rounds := 0
	if rc.trace {
		rn.layer.startProfile()
		defer rn.layer.stopProfile()
	}
	for done := false; !done; {
		rounds++
		elapsed := time.Since(start).Seconds()
		if rc.trace {
			done = rounds >= tracedRounds && elapsed >= rc.seconds/3
		} else {
			// The round about to run is the last one if the next would start late.
			perRound := elapsed / float64(max(rounds-1, 1))
			done = rounds >= minRounds && elapsed+perRound >= rc.seconds || elapsed >= hardFactor*rc.seconds
		}
		if err := rn.round(rounds, true, done && rc.trace); err != nil {
			return nil, fmt.Errorf("round %d: %w", rounds, err)
		}
	}
	rn.dropBundles()
	logf("rounds=%d measured_s=%.2f reference_cpu_ms: q25=%.3f median=%.3f (nominal %.3f)",
		rounds, time.Since(start).Seconds(), 1e3*quantile(rn.refCPU, 0.25), 1e3*median(rn.refCPU), 1e3*refNominalCPU)
	for _, span := range sortedKeys(rn.phase) {
		var wall, cpu []float64
		for _, c := range rn.phase[span] {
			wall, cpu = append(wall, c.wall), append(cpu, c.cpu)
		}
		logf("  phase %-40s wall s: q25=%.4f median=%.4f  cpu s: q25=%.4f median=%.4f  reps=%d",
			span, quantile(wall, 0.25), median(wall), quantile(cpu, 0.25), median(cpu), len(wall))
	}

	res := &result{Metrics: make(map[string]metricValue)}
	if rc.trace {
		spanFile := filepath.Join(filepath.Dir(rc.root), "trace-"+rc.wl.name+".json")
		if err := rn.layerMetrics(res, spanFile, logf); err != nil {
			return nil, err
		}
	} else {
		rn.endToEnd(res, setupS, logf)
	}
	res.Attempted, res.Failed = rn.attempted, rn.failed
	res.Correct = rn.failed == 0 && rn.attempted > 0
	logf("ops_attempted=%d ops_failed=%d", res.Attempted, res.Failed)
	return res, nil
}

// stageMesh is the last step of set-up: encode the mesh file and stage
// it on a fresh import cluster (in memory; set-up does no disk I/O).
func (r *runner) stageMesh() error {
	r.importBase = sdm.NewCluster(r.cfg)
	return r.su.f3d.Stage(r.importBase)
}

// endToEnd fills in the end-to-end metrics: the ones that repeat —
// virtual-clock values, byte ratios, the checkpoint step's allocation
// count — plus set-up time and peak memory. The host-time figures of
// the same rounds are logged beside them; they carry no bound (see
// hostNames).
func (r *runner) endToEnd(res *result, setupS float64, logf func(string, ...any)) {
	put := func(name, unit string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
		logf("  %-22s %.9g %s", name, v, unit)
	}
	put("setup_s", "s", setupS)
	put("mem_peak_MB", "MB", median(r.peakRSS))
	logf("  VmHWM %.1f MB", statusMB("VmHWM"))
	put("sim_write_MBps", "MB/s", r.simVals["sim_write_MBps"])
	put("sim_read_MBps", "MB/s", r.simVals["sim_read_MBps"])
	put("sim_import_s", "s", r.simVals["sim_import_s"])
	put("stored_per_user_byte", "B/B", r.storedPerUserByte)
	put("save_write_amp", "B/B", r.saveWriteAmp)
	put("step_allocs", "1/step", median(r.series["step_allocs"]))

	logf("host figures of these rounds (not bounded; `--trace 1` reports them as per-layer metrics):")
	host := r.hostFigures(logf)
	for _, name := range hostNames {
		logf("  %-22s %.9g %s", name, host[name].Value, host[name].Unit)
	}
}

// hostNames are the lifecycle phases' host figures: the eight host-time
// metrics and the allocation counts of the phases other than the
// checkpoint step. The issue wanted the host times end-to-end with a
// 10 % bound; on this sandbox their interquartile spread over ten runs
// is 8-13 % in an ordinary hour and 20-29 % in a bad one, at
// GOMAXPROCS 1 or 2, with the collector on or off, and by the issue's
// own rule a host metric that cannot hold its bound moves to the
// per-layer list rather than getting a wider one.
var hostNames = []string{
	"step_host_MBps", "import_host_s", "save_MBps", "restart_s",
	"serve_read_MBps", "req_p50_us", "lookup_keys_per_s", "record_rows_per_s",
	"import_allocs", "step_alloc_MB", "save_allocs", "restart_allocs", "serve_allocs_per_req",
}

// hostFigures computes hostNames' metrics from the recorded rounds.
func (r *runner) hostFigures(logf func(string, ...any)) map[string]metricValue {
	m := map[string]metricValue{
		// CPU costs: lower quartile over the rounds, reference-normalised.
		"import_host_s":   {hostCost(r.series["import_host_s"], r.refCPU), "cpu-s"},
		"restart_s":       {hostCost(r.series["restart_s"], r.refCPU), "cpu-s"},
		"step_host_MBps":  {perSecond(1, hostCost(r.series["step_host_MBps"], r.refCPU)), "MB/cpu-s"},
		"save_MBps":       {perSecond(1, hostCost(r.series["save_MBps"], r.refCPU)), "MB/cpu-s"},
		"serve_read_MBps": {perSecond(1, hostCost(r.series["serve_read_MBps"], r.refCPU)), "MB/cpu-s"},
		// Allocation counts: medians (they repeat to a fraction of a percent).
		"import_allocs":        {median(r.series["import_allocs"]), "count"},
		"step_alloc_MB":        {median(r.series["step_alloc_MB"]), "MB/step"},
		"save_allocs":          {median(r.series["save_allocs"]), "count"},
		"restart_allocs":       {median(r.series["restart_allocs"]), "count"},
		"serve_allocs_per_req": {median(r.series["serve_allocs_per_req"]), "1/req"},
	}
	// Latencies: wall-clock medians over every call of the recorded
	// rounds; a burst that hits a minority of thousands of short calls
	// does not move them.
	p50, n := percentile(r.reqLat, 50)
	p95, _ := percentile(r.reqLat, 95)
	p99, _ := percentile(r.reqLat, 99)
	m["req_p50_us"] = metricValue{p50, "us"}
	logf("  requests: n=%d p50=%.6g p95=%.6g p99=%.6g us", n, p50, p95, p99)
	lk, n := percentile(r.lookupLat, 50)
	m["lookup_keys_per_s"] = metricValue{lookupBatchKeys * 1e6 / lk, "1/s"}
	logf("  lookup batches: n=%d p50=%.6g us", n, lk)
	rw, n := percentile(r.recordLat, 50)
	m["record_rows_per_s"] = metricValue{recordBatchRows * 1e6 / rw, "1/s"}
	logf("  writer batches: n=%d p50=%.6g us", n, rw)
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
