// Command sdmls inspects a saved SDM metadata catalog (a run bundle's
// catalog.db, the metadb snapshot SaveBundle writes): the runs,
// datasets, write records, imports, and index histories of the paper's
// six tables — the execution-flow picture of the paper's Figure 4 as
// text.
//
// Usage:
//
//	sdmls [-table all|runs|datasets|writes|imports|histories] catalog.db
//	sdmls -sql 'SELECT * FROM run_table' catalog.db
//	sdmls -remote http://host:8080 [-bundle name] [-table ...]
//
// With -remote the tables come from a running sdmd daemon via the
// client SDK; -sql is local-only (the daemon does not expose raw SQL).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"sdm/internal/catalog"
	"sdm/internal/metadb"
	"sdm/internal/wire"
	"sdm/sdmclient"
)

// view is the tool's catalog view in wire types, loadable from a local
// catalog.db or a remote daemon so the print path is shared.
type view struct {
	runs      []wire.Run
	datasets  func(run int64) ([]wire.Dataset, error)
	writes    func(run int64) ([]wire.WriteRecord, error)
	imports   func(run int64) ([]wire.ImportEntry, error)
	histories func() ([]wire.IndexHistory, error)
}

func main() {
	table := flag.String("table", "all", "which table(s) to show")
	sql := flag.String("sql", "", "run a raw SQL query instead (local only)")
	remote := flag.String("remote", "", "read from a sdmd daemon at this base URL instead of a local catalog.db")
	bundle := flag.String("bundle", "", "with -remote: bundle name on a multi-bundle daemon")
	flag.Parse()

	var v *view
	switch {
	case *remote != "":
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: sdmls -remote URL [-bundle name] [-table name]")
			os.Exit(2)
		}
		if *sql != "" {
			log.Fatal("sdmls: -sql needs a local catalog.db (the daemon does not expose raw SQL)")
		}
		var err error
		v, err = openRemote(*remote, *bundle)
		if err != nil {
			log.Fatal(describe(err))
		}
	default:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: sdmls [-table name | -sql query] catalog.db")
			os.Exit(2)
		}
		if *bundle != "" {
			log.Fatal("sdmls: -bundle requires -remote")
		}
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		db := metadb.New()
		if err := db.Load(f); err != nil {
			log.Fatal(err)
		}
		if *sql != "" {
			runSQL(db, *sql)
			return
		}
		v, err = openLocal(db)
		if err != nil {
			log.Fatal(err)
		}
	}

	show := func(name string) bool { return *table == "all" || *table == name }
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)

	if show("runs") {
		fmt.Fprintf(w, "== run_table (%d rows) ==\n", len(v.runs))
		fmt.Fprintln(w, "runid\tapplication\tdimension\tproblem_size\ttimesteps\tstamp")
		for _, r := range v.runs {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%s\n",
				r.RunID, r.Application, r.Dimension, r.ProblemSize, r.Timesteps, r.Stamp)
		}
		w.Flush()
	}
	if show("datasets") {
		fmt.Fprintln(w, "\n== access_pattern_table ==")
		fmt.Fprintln(w, "runid\tdataset\tpattern\ttype\torder\tglobal_size")
		for _, r := range v.runs {
			infos, err := v.datasets(r.RunID)
			if err != nil {
				log.Fatal(describe(err))
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
		for _, r := range v.runs {
			recs, err := v.writes(r.RunID)
			if err != nil {
				log.Fatal(describe(err))
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
		for _, r := range v.runs {
			imps, err := v.imports(r.RunID)
			if err != nil {
				log.Fatal(describe(err))
			}
			for _, e := range imps {
				fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%d\t%d\n",
					e.RunID, e.ImportedName, e.FileName, e.DataType, e.FileContent, e.FileOffset, e.Length)
			}
		}
		w.Flush()
	}
	if show("histories") {
		hists, err := v.histories()
		if err != nil {
			log.Fatal(describe(err))
		}
		fmt.Fprintf(w, "\n== index_table (%d histories) ==\n", len(hists))
		fmt.Fprintln(w, "problem_size\tnum_nodes\tnprocs\tfile")
		for _, h := range hists {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\n", h.ProblemSize, h.NumNodes, h.NProcs, h.FileName)
		}
		w.Flush()
	}
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

// runSQL executes one raw query against a loaded local snapshot.
func runSQL(db *metadb.DB, sql string) {
	rows, err := db.Query(sql)
	if err != nil {
		log.Fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(rows.Columns, "\t"))
	for _, row := range rows.Data {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	w.Flush()
}

// openLocal adapts a loaded metadb snapshot to the shared view.
func openLocal(db *metadb.DB) (*view, error) {
	cat := catalog.New(db)
	cat.SetAccessCost(0)
	runs, err := cat.Runs(nil)
	if err != nil {
		return nil, err
	}
	v := &view{
		datasets: func(run int64) ([]wire.Dataset, error) {
			infos, err := cat.Datasets(nil, run)
			if err != nil {
				return nil, err
			}
			out := make([]wire.Dataset, len(infos))
			for i, d := range infos {
				out[i] = wire.Dataset{RunID: d.RunID, Dataset: d.Dataset, AccessPattern: d.AccessPattern,
					DataType: d.DataType, StorageOrder: d.StorageOrder, GlobalSize: d.GlobalSize}
			}
			return out, nil
		},
		writes: func(run int64) ([]wire.WriteRecord, error) {
			recs, err := cat.WritesForRun(nil, run)
			if err != nil {
				return nil, err
			}
			out := make([]wire.WriteRecord, len(recs))
			for i, r := range recs {
				out[i] = wire.WriteRecord{RunID: r.RunID, Dataset: r.Dataset, Timestep: r.Timestep,
					FileOffset: r.FileOffset, FileName: r.FileName}
			}
			return out, nil
		},
		imports: func(run int64) ([]wire.ImportEntry, error) {
			imps, err := cat.Imports(nil, run)
			if err != nil {
				return nil, err
			}
			out := make([]wire.ImportEntry, len(imps))
			for i, e := range imps {
				out[i] = wire.ImportEntry{RunID: e.RunID, ImportedName: e.ImportedName, FileName: e.FileName,
					DataType: e.DataType, StorageOrder: e.StorageOrder, Partition: e.Partition,
					FileContent: e.FileContent, FileOffset: e.FileOffset, Length: e.Length}
			}
			return out, nil
		},
		histories: func() ([]wire.IndexHistory, error) {
			hists, err := cat.Histories(nil)
			if err != nil {
				return nil, err
			}
			out := make([]wire.IndexHistory, len(hists))
			for i, h := range hists {
				out[i] = wire.IndexHistory{ProblemSize: h.ProblemSize, NumNodes: h.NumNodes,
					NProcs: h.NProcs, Dimension: h.Dimension, FileName: h.FileName}
			}
			return out, nil
		},
	}
	for _, r := range runs {
		v.runs = append(v.runs, wire.Run{RunID: r.RunID, Application: r.Application,
			Dimension: r.Dimension, ProblemSize: r.ProblemSize, Timesteps: r.Timesteps,
			Stamp: r.Stamp.Format("2006-01-02 15:04")})
	}
	return v, nil
}

// openRemote adapts a sdmd daemon to the shared view.
func openRemote(base, bundle string) (*view, error) {
	var opts []sdmclient.Option
	if bundle != "" {
		opts = append(opts, sdmclient.WithBundle(bundle))
	}
	c := sdmclient.New(base, opts...)
	runs, err := c.Runs()
	if err != nil {
		return nil, err
	}
	for i := range runs {
		if t, perr := time.Parse(time.RFC3339, runs[i].Stamp); perr == nil {
			runs[i].Stamp = t.Format("2006-01-02 15:04")
		}
	}
	return &view{
		runs:      runs,
		datasets:  c.Datasets,
		writes:    c.Writes,
		imports:   c.Imports,
		histories: c.Histories,
	}, nil
}
