package mpi_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"sdm"
	"sdm/internal/mpi"
	"sdm/internal/workloads"
)

// turnScale runs every figure in about a quarter of a second.
var turnScale = workloads.Scale{NX: 12, Procs: 8, Steps: 2, RTNX: 10, RTSteps: 2, PipeSteps: 4}

// outcome runs every figure of workloads.Figures at turnScale, and the
// Figure-5 ring job on a cluster of its own, and returns every simulated
// number they produce: each row's metrics under "<figure>/<case>/<metric>",
// and each cluster's per-rank clocks and pfs.Stats under
// "<figure>#<i>/..." for the figure's i-th cluster.
func outcome(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	clusters := map[string][]*sdm.Cluster{}
	record := func(name string) func(sdm.ClusterConfig) *sdm.Cluster {
		return func(cfg sdm.ClusterConfig) *sdm.Cluster {
			cl := sdm.NewCluster(cfg)
			clusters[name] = append(clusters[name], cl)
			return cl
		}
	}
	for _, fig := range workloads.Figures {
		rows, err := fig.Run(turnScale, record(fig.Name))
		if err != nil {
			t.Fatalf("%s: %v", fig.Name, err)
		}
		for _, row := range rows {
			for m, v := range row.Metrics {
				out[fig.Name+"/"+row.Case+"/"+m] = fmt.Sprint(v)
			}
		}
	}
	f, err := workloads.NewFUN3D(workloads.FUN3DConfig{NX: turnScale.NX, NY: turnScale.NX, NZ: turnScale.NX})
	if err != nil {
		t.Fatal(err)
	}
	ring := record("fig5-ring")(sdm.Origin2000Config(turnScale.Procs))
	if err := f.Stage(ring); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ImportAndPartition(ring, workloads.ModeSDM, true); err != nil {
		t.Fatal(err)
	}
	for name, cls := range clusters {
		for i, cl := range cls {
			key := fmt.Sprintf("%s#%d/", name, i)
			for r := range cl.Procs() {
				out[key+fmt.Sprintf("clock-%d", r)] = fmt.Sprint(int64(cl.World.Comm(r).Now())) // ns
			}
			out[key+"pfs"] = fmt.Sprintf("%+v", cl.FS.Stats())
		}
	}
	return out
}

// diff names the keys whose values differ between a and b, sorted, with
// both values, skipping keys that start with one of except.
func diff(a, b map[string]string, except ...string) []string {
	var d []string
	for _, k := range slices.Sorted(maps.Keys(a)) {
		skip := slices.ContainsFunc(except, func(p string) bool { return strings.HasPrefix(k, p) })
		if !skip && a[k] != b[k] {
			d = append(d, fmt.Sprintf("%s: %s vs %s", k, a[k], b[k]))
		}
	}
	return d
}

// TestTurnsDeterministic: ranks take turns, so every simulated number is
// a function of the program. (a) Repeats in rank order give identical
// rows, per-rank clocks and pfs.Stats. (b) Seeded turn orders give the
// same numbers, except where uncoordinated requests reach a shared I/O
// server: a server serves them in arrival order, which the turn order
// decides. That is the independent-I/O case of the two-phase ablation.
// The ring job's asynchronous history writes are uncoordinated too, but
// they come out the same under these orders, so they are compared.
func TestTurnsDeterministic(t *testing.T) {
	ref := outcome(t)
	for i := range 4 {
		if d := diff(ref, outcome(t)); len(d) > 0 {
			t.Fatalf("repeat %d in rank order differs:\n%s", i+1, strings.Join(d, "\n"))
		}
	}
	t.Cleanup(func() { mpi.SetTurnSeed(0) })
	for _, seed := range []uint64{1, 2, 3} {
		mpi.SetTurnSeed(seed)
		got := outcome(t)
		mpi.SetTurnSeed(0)
		if d := diff(ref, got,
			"ablation-two-phase/independent/", // independent requests, arrival order
			"ablation-two-phase#1/",           // ... and the cluster they ran on
		); len(d) > 0 {
			t.Errorf("turn seed %d differs from rank order:\n%s", seed, strings.Join(d, "\n"))
		}
	}
}
