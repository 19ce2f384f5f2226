package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// benchmarkSpec is the part of BENCHMARK.json this program prints
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// worse is how far b is worse than a, as a share of a, for a metric
// whose better direction is given.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runInChild runs one workload in a process of its own, as the harness
// does, so that peak memory and heap state are that run's alone.
func runInChild(name string, seed uint64, seconds float64, root string, short bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--root", root}
	if short {
		args = append(args, "--short")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// selfCheck runs every workload twice in alternation (A/A: the same
// code, the same seed) and prints each workload/metric pair's two
// values, how far they differ and the metric's bound. It reports
// failure if a pair differs by more than its bound in either direction.
func selfCheck(seed uint64, seconds float64, root string, short bool) int {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -selfcheck reads BENCHMARK.json from the working directory:", err)
		return 2
	}
	var runs [2]map[string]*result
	for pass := range runs {
		runs[pass] = make(map[string]*result)
		for _, w := range workloadTable {
			res, err := runInChild(w.name, seed, seconds, root, short)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s pass %d: %v\n", w.name, pass, err)
				return 1
			}
			runs[pass][w.name] = res
		}
	}
	bad := 0
	fmt.Printf("%-14s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloadTable {
		a, b := runs[0][w.name], runs[1][w.name]
		for _, m := range spec.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			d := max(worse(va, vb, m.Better), worse(vb, va, m.Better))
			flag := ""
			if d > m.Bound {
				flag = "  OUTSIDE"
				bad++
			}
			fmt.Printf("%-14s %-22s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", w.name, m.Name, va, vb, 100*d, 100*m.Bound, flag)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d pair(s) outside their bound\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every pair inside its bound")
	return 0
}
