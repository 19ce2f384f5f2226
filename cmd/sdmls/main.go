// Command sdmls inspects a saved SDM metadata catalog (a run bundle's
// catalog.db, the metadb snapshot SaveBundle writes): the runs,
// datasets, write records, imports, and index histories of the paper's
// six tables — the execution-flow picture of the paper's Figure 4 as
// text.
//
// Usage:
//
//	sdmls [-table all|runs|datasets|writes|imports|histories] catalog.db
//	sdmls -remote http://host:8080 [-bundle name] [-table ...]
//
// With -remote the tables come from a running sdmd daemon via the
// client SDK — the same wire.Reader the local catalog sits behind, so
// the print path cannot tell them apart. Raw SQL over a local snapshot
// is sdmsql's: echo 'SELECT * FROM run_table' | sdmsql -db catalog.db.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"text/tabwriter"

	"sdm/internal/catalog"
	"sdm/internal/metadb"
	"sdm/internal/server"
	"sdm/internal/wire"
	"sdm/sdmclient"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.As(err, new(usage)) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		log.Fatal(describe(err))
	}
}

// usage is the error of a command line that names no catalog, or an
// unknown table (exit 2).
type usage string

func (u usage) Error() string { return "usage: " + string(u) }

// tables are the values -table takes.
var tables = []string{"all", "runs", "datasets", "writes", "imports", "histories"}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sdmls", flag.ExitOnError)
	table := fs.String("table", "all", "which table(s) to show: "+strings.Join(tables, ", "))
	remote := fs.String("remote", "", "read from a sdmd daemon at this base URL instead of a local catalog.db")
	bundle := fs.String("bundle", "", "with -remote: bundle name on a multi-bundle daemon")
	fs.Parse(args)
	if !slices.Contains(tables, *table) {
		return usage(fmt.Sprintf("sdmls -table %q: want one of %s", *table, strings.Join(tables, ", ")))
	}

	var b wire.Reader
	switch {
	case *remote != "":
		if fs.NArg() != 0 {
			return usage("sdmls -remote URL [-bundle name] [-table name]")
		}
		var opts []sdmclient.Option
		if *bundle != "" {
			opts = append(opts, sdmclient.WithBundle(*bundle))
		}
		b = sdmclient.New(*remote, opts...)
	default:
		if fs.NArg() != 1 {
			return usage("sdmls [-table name] catalog.db")
		}
		if *bundle != "" {
			return errors.New("-bundle requires -remote")
		}
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		db := metadb.New()
		if err := db.Load(f); err != nil {
			return err
		}
		// A catalog with no file system beside it: every listing works,
		// only ReadDataset (which sdmls never calls) needs the bytes.
		b = server.Source{Catalog: catalog.New(db)}
	}

	runs, err := b.Runs()
	if err != nil {
		return err
	}
	show := func(name string) bool { return *table == "all" || *table == name }
	w := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)

	if show("runs") {
		fmt.Fprintf(w, "== run_table (%d rows) ==\n", len(runs))
		fmt.Fprintln(w, "runid\tapplication\tdimension\tproblem_size\ttimesteps\tstamp")
		for _, r := range runs {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%s\n", r.RunID, r.Application, r.Dimension,
				r.ProblemSize, r.Timesteps, r.Stamp.Format("2006-01-02 15:04"))
		}
		w.Flush()
	}
	if show("datasets") {
		fmt.Fprintln(w, "\n== access_pattern_table ==")
		fmt.Fprintln(w, "runid\tdataset\tpattern\ttype\torder\tglobal_size")
		for _, r := range runs {
			infos, err := b.Datasets(r.RunID)
			if err != nil {
				return err
			}
			for _, d := range infos {
				fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%d\n",
					d.RunID, d.Dataset, d.AccessPattern, d.DataType, d.StorageOrder, d.GlobalSize)
			}
		}
		w.Flush()
	}
	if show("writes") {
		fmt.Fprintln(w, "\n== execution_table ==")
		fmt.Fprintln(w, "runid\tdataset\ttimestep\tfile_offset\tfile_name")
		for _, r := range runs {
			recs, err := b.Writes(r.RunID)
			if err != nil {
				return err
			}
			for _, rec := range recs {
				fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%s\n",
					rec.RunID, rec.Dataset, rec.Timestep, rec.FileOffset, rec.FileName)
			}
		}
		w.Flush()
	}
	if show("imports") {
		fmt.Fprintln(w, "\n== import_table ==")
		fmt.Fprintln(w, "runid\timported_name\tfile\ttype\tcontent\toffset\tlength")
		for _, r := range runs {
			imps, err := b.Imports(r.RunID)
			if err != nil {
				return err
			}
			for _, e := range imps {
				fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%d\t%d\n",
					e.RunID, e.ImportedName, e.FileName, e.DataType, e.FileContent, e.FileOffset, e.Length)
			}
		}
		w.Flush()
	}
	if show("histories") {
		hists, err := b.Histories()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n== index_table (%d histories) ==\n", len(hists))
		fmt.Fprintln(w, "problem_size\tnum_nodes\tnprocs\tfile")
		for _, h := range hists {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\n", h.ProblemSize, h.NumNodes, h.NProcs, h.FileName)
		}
		w.Flush()
	}
	return nil
}

// describe keeps the two operator-facing failure classes distinct:
// transport failures say how to reach the daemon, 404s say what was
// missing on a healthy one.
func describe(err error) string {
	if errors.Is(err, sdmclient.ErrUnreachable) {
		return fmt.Sprintf("sdmls: cannot reach daemon: %v", err)
	}
	return fmt.Sprintf("sdmls: %v", err)
}
