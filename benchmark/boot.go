package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"deepsea"
	"deepsea/internal/server"
	"deepsea/internal/shard"
	"deepsea/internal/workload"
)

// node is one serving process's worth of state — a System, the server
// over it and its loopback listener — wired the way cmd/deepsea-serve
// wires them.
type node struct {
	sys   *deepsea.System
	srv   *server.Server
	hs    *http.Server
	url   string
	store deepsea.Datastore
}

// env is one booted workload: a single server or a coordinator over
// replica groups, plus everything that must be released afterwards.
type env struct {
	def   *workloadDef
	data  *workload.Data
	nodes []*node
	coord *shard.Coordinator
	front *http.Server // coordinator listener; nil for a single server
	url   string       // what the load generator talks to
	dir   string       // journal directory ("" without a journal)
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on Shutdown
	return hs, "http://" + ln.Addr().String(), nil
}

// systemOptions is the option list deepsea-serve would build from the
// workload's flags.
func (d *workloadDef) systemOptions(data *workload.Data, store deepsea.Datastore) []deepsea.Option {
	var opts []deepsea.Option
	if d.poolFrac > 0 {
		opts = append(opts, deepsea.WithPoolLimit(int64(d.poolFrac*float64(data.TotalBytes()))))
	}
	if d.cacheBytes > 0 {
		opts = append(opts, deepsea.WithResultCache(d.cacheBytes))
	}
	if d.maintWorkers > 0 {
		opts = append(opts, deepsea.WithBackgroundMaintenance(d.maintWorkers, 0))
	}
	if store != nil {
		opts = append(opts, deepsea.WithDatastore(store))
	}
	return opts
}

// bootNode builds one loaded System behind a server on loopback. A
// non-empty dir mounts a journal there (recovering whatever it holds).
func bootNode(d *workloadDef, data *workload.Data, dir string, tr *tracer) (*node, error) {
	n := &node{}
	if dir != "" {
		store, err := deepsea.OpenJournal(dir)
		if err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		n.store = store
		if tr != nil {
			n.store = &tracedStore{Store: store, tr: tr}
		}
	}
	n.sys = deepsea.New(d.systemOptions(data, n.store)...)
	if err := workload.Load(n.sys, data); err != nil {
		n.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	n.srv = server.New(n.sys, server.Config{})
	h := n.srv.Handler()
	if tr != nil {
		h = tr.handler("server.handler", h)
	}
	var err error
	if n.hs, n.url, err = listen(h); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// stopListening closes the node's listener and connections without
// draining the server or checkpointing: what a killed process leaves.
func (n *node) stopListening() {
	if n.hs != nil {
		_ = n.hs.Close()
		n.hs = nil
	}
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The load generator has stopped, so no request is in flight: Close,
	// not http.Server.Shutdown, which waits five seconds for connections
	// the coordinator opened and never used.
	n.stopListening()
	if n.srv != nil {
		_ = n.srv.Shutdown(ctx)
	} else if n.sys != nil {
		n.sys.CloseMaintenance()
	}
	if n.store != nil {
		_ = n.store.Close()
	}
}

// boot generates the workload's data and brings its serving tier up.
// journalDir is where a journalled workload keeps its directory.
func boot(ctx context.Context, d *workloadDef, seed int64, journalDir string, tr *tracer) (*env, error) {
	e := &env{def: d, data: workload.Generate(d.gb, seed, nil)}
	if d.journal {
		e.dir = journalDir
	}
	if d.groups == 0 {
		n, err := bootNode(d, e.data, e.dir, tr)
		if err != nil {
			return nil, err
		}
		e.nodes, e.url = []*node{n}, n.url
		return e, nil
	}
	var groups [][]string
	for g := 0; g < d.groups; g++ {
		var group []string
		for r := 0; r < d.replicas; r++ {
			n, err := bootNode(d, e.data, "", tr)
			if err != nil {
				e.close()
				return nil, err
			}
			e.nodes = append(e.nodes, n)
			group = append(group, n.url)
		}
		groups = append(groups, group)
	}
	cfg := shard.Config{
		Groups:        groups,
		DomainLo:      workload.ItemSkLo,
		DomainHi:      workload.ItemSkHi,
		ProbeInterval: 2 * time.Second, // deepsea-shard's default
		KeyIndex:      e.data.KeyIndexes(),
	}
	if tr != nil {
		// The coordinator's own default, wrapped: its pool keeps a
		// connection per replica warm the same way.
		rt := http.DefaultTransport.(*http.Transport).Clone()
		rt.MaxIdleConnsPerHost = 16
		cfg.Transport = tr.roundTripper("shard.subquery", rt)
	}
	coord, err := shard.New(cfg)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	e.coord = coord
	if err := coord.Init(ctx); err != nil {
		e.close()
		return nil, fmt.Errorf("initial range assignment: %w", err)
	}
	h := coord.Handler()
	if tr != nil {
		h = tr.handler("shard.handler", h)
	}
	if e.front, e.url, err = listen(h); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close releases every listener, coordinator, server, store and the
// journal directory. Safe on a partially booted env.
func (e *env) close() {
	if e.front != nil {
		_ = e.front.Close()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	for _, n := range e.nodes {
		n.close()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

var errInterrupted = errors.New("interrupted")
