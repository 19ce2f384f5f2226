// Command sdmd serves SDM run bundles over HTTP: a network-attached
// face for the paper's "second user reads the first user's run"
// scenario. Point it at one or more bundle directories and any process
// with a socket — a remote sdmcat, a curl one-liner, a sdmclient
// program — can list runs, resolve placements, and stream dataset
// bytes, all through a bounded read-through block cache.
//
//	sdmd -addr :8080 /data/bundles/run42
//	sdmd -addr :8080 -cache-mb 128 /data/a /data/b   # multi-bundle
//
// With several bundles, each mounts under its directory's base name
// (?bundle=NAME selects one; the first is the default). Metrics are
// at /v1/metrics, cache stats at /v1/cache.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sdm"
	"sdm/internal/obs"
	"sdm/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	cacheMB := flag.Int64("cache-mb", 64, "block cache capacity in MiB")
	blockKB := flag.Int64("block-kb", 256, "block cache granularity in KiB")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sdmd [flags] BUNDLEDIR [BUNDLEDIR...]\n\n")
		fmt.Fprintf(os.Stderr, "Serve SDM run bundles over HTTP.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	metrics := obs.NewRegistry()
	srv := server.New(server.Config{
		CacheBytes: *cacheMB << 20,
		BlockSize:  *blockKB << 10,
		Metrics:    metrics,
	})

	for _, dir := range flag.Args() {
		name := filepath.Base(filepath.Clean(dir))
		cl, err := sdm.OpenBundle(dir, sdm.ClusterConfig{})
		if err != nil {
			log.Fatalf("sdmd: opening bundle %s: %v", dir, err)
		}
		if err := srv.Mount(name, server.Source{Catalog: cl.Catalog, FS: cl.FS}); err != nil {
			log.Fatalf("sdmd: %v", err)
		}
		log.Printf("sdmd: mounted %s as %q", dir, name)
	}

	hs := &http.Server{
		Addr:         *addr,
		Handler:      srv,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 10 * time.Minute, // streams of large slabs
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("sdmd: shutting down")
		shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(shctx)
	}()

	log.Printf("sdmd: serving %d bundle(s) on http://%s (cache %d MiB, block %d KiB)",
		len(srv.Bundles()), *addr, *cacheMB, *blockKB)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("sdmd: %v", err)
	}
}
