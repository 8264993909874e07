// Command deepsea-serve exposes a DeepSea instance over HTTP: it loads
// the deterministic BigBench-derived dataset, then serves queries with
// admission control and an operational health surface until
// SIGINT/SIGTERM triggers a graceful drain.
//
// Usage:
//
//	deepsea-serve -addr :8080 -gb 10 -pool 1GB -cache 256MB
//
// Endpoints:
//
//	POST /query   — run one query; body example:
//	                {"template": "Q1", "lo": 0, "hi": 4000}
//	GET  /statz   — the status document: verdict, health, admission, serving
//	GET  /healthz — the same document, 503 while draining
//	GET  /poolz   — materialized-pool contents
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"deepsea"
	"deepsea/internal/server"
	"deepsea/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	gb := flag.Int64("gb", 1, "modelled instance size in GB")
	seed := flag.Int64("seed", 1, "dataset seed")
	pool := flag.String("pool", "", "view-pool size limit, e.g. 1GB (empty = unlimited)")
	cache := flag.String("cache", "", "result-cache size, e.g. 256MB (empty = off)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
	maxQueue := flag.Int("queue", 0, "admission queue length (0 = 4x max-inflight)")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "max wait for an execution slot")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "max graceful-shutdown wait")
	maintWorkers := flag.Int("maint-workers", 0, "background maintenance workers: materializations, splits and merges leave the query path (0 = inline maintenance)")
	maintQueue := flag.Int("maint-queue", 0, "background maintenance queue capacity (0 = default 1024; only with -maint-workers)")
	journal := flag.String("journal", "", "durable-state directory: journal pool mutations there and warm-restart from it (empty = in-memory only)")
	snapshotEvery := flag.Duration("snapshot-every", time.Minute, "periodic checkpoint interval when -journal is set (0 = only on drain)")
	flag.Parse()

	var opts []deepsea.Option
	if *pool != "" {
		smax, err := server.ParseBytes(*pool)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts = append(opts, deepsea.WithPoolLimit(smax))
	}
	if *cache != "" {
		cb, err := server.ParseBytes(*cache)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts = append(opts, deepsea.WithResultCache(cb))
	}

	if *maintWorkers > 0 {
		opts = append(opts, deepsea.WithBackgroundMaintenance(*maintWorkers, *maintQueue))
	}

	var store deepsea.Datastore
	if *journal != "" {
		var err error
		store, err = deepsea.OpenJournal(*journal)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts = append(opts, deepsea.WithDatastore(store))
	}

	fmt.Printf("loading %d GB modelled instance (seed %d)...\n", *gb, *seed)
	sys := deepsea.New(opts...)
	if rec := sys.Recovery(); rec.Ran {
		switch {
		case rec.Err != "":
			fmt.Fprintf(os.Stderr, "recovery failed, starting cold: %s\n", rec.Err)
		case rec.FromSnapshot || rec.Replayed > 0:
			fmt.Printf("recovered from %s: snapshot=%v, %d journal records replayed (%d skipped)\n",
				*journal, rec.FromSnapshot, rec.Replayed, rec.Skipped)
		}
	}
	if err := workload.Load(sys, workload.Generate(*gb, *seed, nil)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	scfg := server.Config{
		MaxInFlight:  *maxInFlight,
		MaxQueue:     *maxQueue,
		QueueTimeout: *queueTimeout,
	}
	if store != nil {
		scfg.SnapshotEvery = *snapshotEvery
	}
	srv := server.New(sys, scfg)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: server.ReadHeaderTimeout}

	ctx, stop := server.SignalContext(context.Background())
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("serving on %s\n", *addr)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Println("draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting queries and drain in-flight ones first, then close
	// the listener; a second signal kills the process the default way.
	err := srv.Shutdown(dctx)
	if herr := hs.Shutdown(dctx); err == nil {
		err = herr
	}
	if store != nil {
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("drained cleanly")
}
