package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"sdm/internal/core.(*Group).stagePuts":       "sdm/internal/core",
		"runtime.memmove":                            "runtime",
		"crypto/sha256.block":                        "crypto/sha256",
		"sdm.(*Cluster).SaveBundleOpts":              "sdm",
		"main.(*runner).serve.func1":                 "main",
		"net/http.(*conn).serve":                     "net/http",
		"sdm/internal/store/objstore.(*Service).Get": "sdm/internal/store/objstore",
		"sdm/internal/mpiio.mergeSortedRuns[go.shape.struct { sdm/internal/pfs.Off int64 }]": "sdm/internal/mpiio",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeCPUChargesLibrariesToTheirCaller(t *testing.T) {
	samples := []profSample{
		// sha256 under the store under the bundle layer: store.
		{stack: []string{"crypto/sha256.block", "crypto/sha256.(*digest).Write", "sdm/internal/store.(*CAS).put", "sdm.saveBundle", "main.(*runner).round"}, value: 30},
		// flate and memmove called from core.
		{stack: []string{"runtime.memmove", "sdm/internal/core.(*Group).stagePuts", "sdm.(*Cluster).Run.func1"}, value: 20},
		// math inside the input generator: bench.
		{stack: []string{"math.Exp", "sdm/internal/mesh.(*RT).NodeDataset", "main.buildSetup"}, value: 10},
		// socket reads: nethttp, even though the handler is further up.
		{stack: []string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read", "net/http.(*conn).serve"}, value: 15},
		// a handler's catalog lookup in metadb.
		{stack: []string{"sdm/internal/metadb.(*DB).QueryRow", "sdm/internal/catalog.(*Catalog).LookupWrites", "sdm/internal/server.(*Server).handleLookup", "net/http.(*conn).serve"}, value: 10},
		// garbage collection and the scheduler: runtime.
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, value: 10},
		{stack: []string{"runtime.futex", "runtime.schedule", "runtime.mcall"}, value: 5},
	}
	got := attributeCPU(samples)
	want := map[string]float64{"store": 30, "core": 20, "bench": 10, "nethttp": 15, "metadb": 10, "runtime": 15}
	var sum float64
	for _, b := range cpuBuckets {
		sum += got[b]
		if math.Abs(got[b]-want[b]) > 1e-9 {
			t.Errorf("cpu.%s_pct = %v, want %v", b, got[b], want[b])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestParseProfileReadsARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling is not available:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		refKernel()
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("the profiler delivered no samples in 300 ms")
	}
	var inKernel int64
	var total int64
	for _, s := range samples {
		total += s.value
		for _, fn := range s.stack {
			if funcPackage(fn) == "sdm/benchmark" || funcPackage(fn) == "main" {
				inKernel += s.value
				break
			}
		}
	}
	if total <= 0 || inKernel == 0 {
		t.Errorf("%d of %d sampled nanoseconds have a benchmark frame; the reference kernel ran throughout", inKernel, total)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
