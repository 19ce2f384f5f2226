// Command sdmfsck verifies — and with -repair, fixes — a saved run
// bundle's consistency: the write-ahead log is replayed or rolled
// back, the manifest's file inventory is checked against the backend,
// the catalog snapshot is loaded, and content-addressed bundles get a
// chunk reference audit (refcounts, lost chunk files) plus an orphan
// chunk-file sweep.
//
// Usage:
//
//	sdmfsck [-repair] [-q] BUNDLEDIR
//
// Exit status 0 means the bundle is consistent (after repairs, if
// -repair); 1 means errors remain; 2 means usage error.
package main

import (
	"flag"
	"fmt"
	"os"

	"sdm"
)

func main() {
	repair := flag.Bool("repair", false, "fix what can be fixed: replay/roll back the WAL, remove orphan objects, cas chunk files and abandoned uploads")
	quiet := flag.Bool("q", false, "print nothing on a clean bundle")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sdmfsck [-repair] [-q] BUNDLEDIR")
		os.Exit(2)
	}
	dir := flag.Arg(0)

	rep, err := sdm.FsckBundle(dir, *repair)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdmfsck: %v\n", err)
		os.Exit(1)
	}
	if rep.WALPending {
		state := "uncommitted"
		if rep.WALSealed {
			state = "committed"
		}
		action := rep.WALAction
		if action == "" {
			action = "left in place"
		}
		fmt.Printf("wal: pending %s save, %s\n", state, action)
	}
	for _, r := range rep.Repaired {
		fmt.Printf("repaired: %s\n", r)
	}
	for _, e := range rep.Errors {
		fmt.Printf("error: %s\n", e)
	}
	if len(rep.Errors) > 0 {
		fmt.Printf("%s: %d files, %d bytes, %d orphans — %d error(s)\n",
			dir, rep.Files, rep.Bytes, rep.Orphans, len(rep.Errors))
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("%s: clean — %d files, %d bytes, 0 errors\n", dir, rep.Files, rep.Bytes)
	}
}
