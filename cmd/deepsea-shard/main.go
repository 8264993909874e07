// Command deepsea-shard fronts a range-sharded DeepSea cluster with a
// scatter-gather coordinator. Two modes:
//
// Self-contained — boot N in-process shard servers (each a full System
// over the same deterministic dataset) and coordinate across them,
// optionally R replicas per range:
//
//	deepsea-shard -shards 3 -replicas 2 -addr :8080 -gb 10
//
// External — coordinate already-running deepsea-serve instances.
// Commas separate replica groups; '|' separates replicas inside a
// group (quote the argument — '|' is a shell pipe):
//
//	deepsea-shard -shard-addrs 'http://h1:8081|http://h1b:9081,http://h2:8082|http://h2b:9082' -addr :8080
//
// The coordinator splits the item_sk domain [-lo, -hi] evenly at boot,
// one range per replica group, and never moves a range afterwards. It
// pushes each replica its group's range (POST /admin/range — the first
// replica of a group is its primary; a replica owns one range for its
// life), routes single-range queries to the owning group, scatters
// spanning queries in partial-aggregate mode and merges the results
// deterministically. Replicated groups route around failure: each range
// subquery is one attempt at a time, failing over to the next replica,
// and the replica that answers becomes the group's preferred one; a
// background health prober (-probe-every) pushes the range to a replica
// that owns none yet (unreachable at boot, or restarted) and hands
// preference back to a healthy primary.
//
// Endpoints:
//
//	POST /query   — run one query (same body as deepsea-serve)
//	POST /append  — append rows to a base table: keyed tables split per
//	                owning range group (every replica must accept),
//	                keyless tables broadcast
//	GET  /statz   — the status document: scatter, failover and append
//	                counters, the routing table with each replica's
//	                reachability, status and probe state
//	GET  /healthz — the same document
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"deepsea"
	"deepsea/internal/server"
	"deepsea/internal/shard"
	"deepsea/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "coordinator listen address")
	shards := flag.Int("shards", 0, "boot this many in-process shard groups (self-contained mode)")
	replicas := flag.Int("replicas", 1, "replicas per range group (self-contained mode)")
	shardAddrs := flag.String("shard-addrs", "", "shard base URLs (external mode): ',' between groups, '|' between a group's replicas")
	basePort := flag.Int("base-port", 8081, "first port for in-process shards (self-contained mode)")
	lo := flag.Int64("lo", workload.ItemSkLo, "partition-key domain low bound")
	hi := flag.Int64("hi", workload.ItemSkHi, "partition-key domain high bound")
	gb := flag.Int64("gb", 1, "modelled instance size per in-process shard")
	seed := flag.Int64("seed", 1, "dataset seed for in-process shards")
	reqTimeout := flag.Duration("shard-timeout", 15*time.Second, "per-shard request timeout")
	probeEvery := flag.Duration("probe-every", 2*time.Second, "background replica health-probe interval (0 = off)")
	flag.Parse()

	var groups [][]string
	var inner []*http.Server
	var keyIdx map[string]int
	switch {
	case *shardAddrs != "":
		for _, g := range strings.Split(*shardAddrs, ",") {
			var group []string
			for _, a := range strings.Split(g, "|") {
				if a = strings.TrimSpace(a); a != "" {
					group = append(group, a)
				}
			}
			if len(group) > 0 {
				groups = append(groups, group)
			}
		}
		// The key map is schema-derived and identical at any instance
		// size, so a minimal dataset supplies it for external shards.
		keyIdx = workload.Generate(1, *seed, nil).KeyIndexes()
	case *shards > 0:
		if *replicas < 1 {
			*replicas = 1
		}
		fmt.Printf("booting %d shard groups × %d replicas (%d GB each, seed %d)...\n",
			*shards, *replicas, *gb, *seed)
		data := workload.Generate(*gb, *seed, nil)
		keyIdx = data.KeyIndexes()
		port := *basePort
		for i := 0; i < *shards; i++ {
			var group []string
			for j := 0; j < *replicas; j++ {
				// Load hands data's rows over by reference: every
				// replica of every group shares one copy of the base rows.
				sys := deepsea.New()
				if err := workload.Load(sys, data); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				srv := server.New(sys, server.Config{})
				hs := &http.Server{
					Addr:              fmt.Sprintf("127.0.0.1:%d", port),
					Handler:           srv.Handler(),
					ReadHeaderTimeout: server.ReadHeaderTimeout,
				}
				port++
				go func() {
					if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
				}()
				inner = append(inner, hs)
				group = append(group, "http://"+hs.Addr)
			}
			groups = append(groups, group)
		}
	default:
		fmt.Fprintln(os.Stderr, "need -shards N or -shard-addrs")
		os.Exit(2)
	}

	coord, err := shard.New(shard.Config{
		Groups:         groups,
		DomainLo:       *lo,
		DomainHi:       *hi,
		RequestTimeout: *reqTimeout,
		ProbeInterval:  *probeEvery,
		KeyIndex:       keyIdx,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer coord.Close()

	ctx, stop := server.SignalContext(context.Background())
	defer stop()

	// The shards must be reachable before the initial range push; retry
	// briefly so external shards still starting up don't fail the boot.
	var initErr error
	for attempt := 0; attempt < 20; attempt++ {
		if initErr = coord.Init(ctx); initErr == nil {
			break
		}
		if ctx.Err() != nil {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	if initErr != nil {
		fmt.Fprintf(os.Stderr, "initial range assignment failed: %v\n", initErr)
		os.Exit(1)
	}
	for gi, sh := range coord.Shards() {
		fmt.Printf("group %d owns [%d,%d] (replicas %s)\n",
			gi, sh.Lo, sh.Hi, strings.Join(sh.Replicas, " "))
	}

	hs := &http.Server{Addr: *addr, Handler: coord.Handler(), ReadHeaderTimeout: server.ReadHeaderTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("coordinating %d shard groups on %s\n", len(groups), *addr)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	coord.Close()
	dctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err = hs.Shutdown(dctx)
	for _, s := range inner {
		if serr := s.Shutdown(dctx); err == nil {
			err = serr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("drained cleanly")
}
