package main

import (
	"path/filepath"
	"sort"
	"testing"
)

// TestOutputMatchesBenchmarkJSON runs a test-sized lifecycle of every
// workload, end to end and traced, and holds the printed metric names
// and units, and the workload names, to BENCHMARK.json exactly.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var specNames, tableNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	for _, w := range workloadTable {
		tableNames = append(tableNames, w.name)
	}
	if !equalStrings(specNames, tableNames) {
		t.Fatalf("BENCHMARK.json workloads %v, parameter table %v", specNames, tableNames)
	}
	if len(spec.EndToEnd) != 8 {
		t.Errorf("BENCHMARK.json names %d end-to-end metrics, want 8", len(spec.EndToEnd))
	}
	if got := layerNamesSorted(); !equalStrings(got, specMetricNames(spec.PerLayer)) {
		t.Errorf("BENCHMARK.json per_layer names differ from layerNames:\n json %v\n code %v", specMetricNames(spec.PerLayer), got)
	}

	for _, w := range workloadTable {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(runConfig{
				wl: w.short(), seed: 5, seconds: 0.3, trace: trace, quiet: true,
				root: filepath.Join(t.TempDir(), "work"),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s is missing", w.name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, got.Value)
				}
			}
			// Layers a workload does not use report zero, not nothing.
			if trace && w.bundle.Backend != "obj" {
				if v := res.Metrics["objstore.requests_per_save"].Value; v != 0 {
					t.Errorf("%s: objstore.requests_per_save = %v off the remote tier", w.name, v)
				}
			}
			if trace && w.bundle.Backend == "obj" {
				if v := res.Metrics["objstore.parts_per_save"].Value; v == 0 {
					t.Errorf("%s: the save used no multipart parts", w.name)
				}
			}
		}
	}
}

func specMetricNames(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func layerNamesSorted() []string {
	out := append([]string(nil), layerNames...)
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
