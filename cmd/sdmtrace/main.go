// Command sdmtrace digests a Chrome trace-event JSON file recorded by
// the simulator's span tracer (sdmbench -trace, or
// Tracer.WriteChromeFile): it validates the trace against the schema
// Perfetto expects, then prints the top-N span names by virtual-time
// self time, per-step span aggregates, and each PFS server's requests,
// bytes and busy/idle fraction over the trace — the bytes show how evenly
// the steps spread over the servers, the idle time what a deeper
// StepPipelineDepth could still overlap.
//
// Usage:
//
//	sdmtrace [-top 15] trace.json
//
// The exit status is nonzero for unreadable, schema-invalid, or empty
// traces, so CI can smoke-test trace production end to end.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sdm/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sdmtrace: ")
	topN := flag.Int("top", 15, "span names to list in the self-time table")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sdmtrace [-top N] trace.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)

	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	tr, err := obs.ReadChrome(f)
	if err != nil {
		log.Fatalf("parsing %s: %v", path, err)
	}
	spans, err := obs.ValidateChrome(tr)
	if err != nil {
		log.Fatalf("invalid trace %s: %v", path, err)
	}
	if spans == 0 {
		log.Fatalf("%s holds no spans — was tracing enabled?", path)
	}

	fmt.Printf("%s: valid Chrome trace\n", path)
	a := obs.Analyze(tr)
	if len(a.Procs) > 0 {
		fmt.Printf("tracks: %d processes", len(a.Procs))
		if n := len(a.Servers); n > 0 {
			fmt.Printf(" (including %d PFS server lanes)", n)
		}
		fmt.Println()
	}
	if err := a.WriteReport(os.Stdout, *topN); err != nil {
		log.Fatal(err)
	}
	if s := obs.StepSummary(tr); s != "" {
		fmt.Printf("\n%s", s)
	}
}
