// Command sdmcat reads dataset bytes back out of a saved run bundle
// (Cluster.SaveBundle): it resolves a (run, dataset, timestep) through
// the bundle's execution table to a (file, offset) and dumps the slab
// — the promise that data written through SDM stays reachable by name
// from the metadata catalog, demonstrated from a separate OS process.
//
// Usage:
//
//	sdmcat -list BUNDLEDIR
//	sdmcat -dataset pressure [-run 1] [-timestep 0] [-as auto|raw|double|int|long]
//	       [-head 10] [-o out.bin] BUNDLEDIR
//	sdmcat -remote http://host:8080 [-bundle name] -dataset pressure ...
//
// With -remote the bundle lives behind a running sdmd daemon instead
// of on the local disk; everything else — flags, output, bytes — is
// identical, byte for byte: both are a wire.Reader, and nothing below
// open knows which. With -as raw the slab's bytes go to stdout (or -o)
// verbatim; the typed forms print one value per line, decoded per the
// dataset's registered data type.
package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"text/tabwriter"

	"sdm"
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

// usage is the error of a command line that names no bundle, or a
// negative -head (exit 2).
type usage string

func (u usage) Error() string { return "usage: " + string(u) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sdmcat", flag.ExitOnError)
	list := fs.Bool("list", false, "list the bundle's runs, datasets, and recorded writes")
	runID := fs.Int64("run", 0, "run id (default: the bundle's latest run)")
	dataset := fs.String("dataset", "", "dataset name to dump")
	timestep := fs.Int64("timestep", 0, "timestep to dump")
	as := fs.String("as", "auto", "output form: auto, raw, double, int, long")
	head := fs.Int64("head", 0, "print only the first N values (0 = all)")
	out := fs.String("o", "", "write raw bytes to this file instead of stdout")
	remote := fs.String("remote", "", "read from a sdmd daemon at this base URL instead of a local bundle")
	bundle := fs.String("bundle", "", "with -remote: bundle name on a multi-bundle daemon")
	fs.Parse(args)
	if *head < 0 {
		return usage(fmt.Sprintf("sdmcat -head %d: want a count of values, or 0 for all", *head))
	}

	b, err := open(*remote, *bundle, fs.Args())
	if err != nil {
		return err
	}
	runs, err := b.Runs()
	if err != nil {
		return err
	}
	if *list {
		return printInventory(stdout, b, runs)
	}
	if *dataset == "" {
		return errors.New("-dataset is required (or use -list)")
	}
	if *runID == 0 {
		if len(runs) == 0 {
			return errors.New("bundle has no runs")
		}
		*runID = runs[len(runs)-1].RunID
	}
	infos, err := b.Datasets(*runID)
	if err != nil {
		return err
	}
	var info *wire.Dataset
	for i := range infos {
		if infos[i].Dataset == *dataset {
			info = &infos[i]
		}
	}
	if info == nil {
		return fmt.Errorf("dataset %q not registered for run %d", *dataset, *runID)
	}
	buf, err := b.ReadDataset(*runID, *dataset, *timestep)
	if err != nil {
		return err
	}

	form := *as
	if form == "auto" {
		switch info.DataType {
		case "INTEGER":
			form = "int"
		case "LONG":
			form = "long"
		default:
			form = "double"
		}
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if form == "raw" {
		_, err := w.Write(buf)
		return err
	}
	bw := bufio.NewWriter(w)
	n := info.GlobalSize
	if *head > 0 && *head < n {
		n = *head
	}
	for i := int64(0); i < n; i++ {
		switch form {
		case "double":
			v := math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
			fmt.Fprintf(bw, "%g\n", v)
		case "int":
			fmt.Fprintf(bw, "%d\n", int32(binary.LittleEndian.Uint32(buf[i*4:])))
		case "long":
			fmt.Fprintf(bw, "%d\n", int64(binary.LittleEndian.Uint64(buf[i*8:])))
		default:
			return fmt.Errorf("unknown -as form %q", form)
		}
	}
	return bw.Flush()
}

// describe prefixes errors with operator-facing context: a refused
// connection ("is sdmd running?") reads nothing like a missing
// dataset, because they need opposite fixes.
func describe(err error) string {
	if errors.Is(err, sdmclient.ErrUnreachable) {
		return fmt.Sprintf("sdmcat: cannot reach daemon: %v", err)
	}
	return fmt.Sprintf("sdmcat: %v", err)
}

// open puts the bundle behind the one reader interface: a bundle
// directory opened in this process, or a sdmd daemon via the client SDK.
func open(remote, bundle string, args []string) (wire.Reader, error) {
	if remote != "" {
		if len(args) != 0 {
			return nil, usage("sdmcat -remote URL [-bundle name] [-list | -dataset name [options]]")
		}
		var opts []sdmclient.Option
		if bundle != "" {
			opts = append(opts, sdmclient.WithBundle(bundle))
		}
		return sdmclient.New(remote, opts...), nil
	}
	if len(args) != 1 {
		return nil, usage("sdmcat [-list | -dataset name [options]] BUNDLEDIR")
	}
	if bundle != "" {
		return nil, errors.New("-bundle requires -remote")
	}
	cl, err := sdm.OpenBundle(args[0], sdm.ClusterConfig{})
	if err != nil {
		return nil, err
	}
	return server.Source{Catalog: cl.Catalog, FS: cl.FS}, nil
}

// printInventory lists what the bundle's catalog knows: runs, their
// datasets, and every recorded write.
func printInventory(stdout io.Writer, b wire.Reader, runs []wire.Run) error {
	w := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	for _, r := range runs {
		fmt.Fprintf(w, "run %d\t%s\t%s\n", r.RunID, r.Application, r.Stamp.Format("2006-01-02 15:04"))
		infos, err := b.Datasets(r.RunID)
		if err != nil {
			return err
		}
		for _, d := range infos {
			fmt.Fprintf(w, "  dataset %s\t%s x %d\t%s\n", d.Dataset, d.DataType, d.GlobalSize, d.AccessPattern)
		}
		recs, err := b.Writes(r.RunID)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			fmt.Fprintf(w, "  write %s@%d\t%s\toffset %d\n", rec.Dataset, rec.Timestep, rec.FileName, rec.FileOffset)
		}
	}
	return w.Flush()
}
