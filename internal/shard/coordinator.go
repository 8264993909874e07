package shard

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deepsea/internal/server"
)

// Config tunes a Coordinator. Groups names the cluster: each range is
// served by one replica group (Groups[i][0] is the primary, the rest
// followers; a one-address group is an unreplicated shard). The domain
// is the partition-key span the cluster covers (the workload's item_sk
// domain).
type Config struct {
	// Groups are replica address groups. Base tables are static and
	// fully replicated, so any live replica can answer for its group's
	// range; the exact partial-aggregation mode keeps merged bytes
	// identical regardless of which replica answered.
	Groups             [][]string
	DomainLo, DomainHi int64
	// RequestTimeout bounds each per-replica HTTP attempt (default 15s).
	RequestTimeout time.Duration
	// Transport overrides the HTTP transport (chaos tests wrap the real
	// one in a ChaosTransport; default: a tuned transport — see
	// newTransport).
	Transport http.RoundTripper

	// ProbeInterval, when positive, starts a background health prober
	// that checks every replica, pushes its group's range to a replica
	// that owns none (unreachable at Init, or restarted), and restores
	// preference to a healthy primary. Stop it with Close.
	ProbeInterval time.Duration

	// KeyIndex maps each base table to the column index of its routing
	// key, for POST /append scatter: a keyed table's batch splits by key
	// range across the owning groups. Tables absent from the map are
	// replicated dimensions — their appends broadcast to every group.
	KeyIndex map[string]int
}

// newTransport builds the coordinator's default transport: explicit
// dial and TLS timeouts so a wedged TCP connect cannot stall a subquery
// past RequestTimeout, and an idle-connection pool sized to the cluster
// so scatter fan-outs reuse connections instead of re-dialing.
func newTransport(replicas int) *http.Transport {
	d := &net.Dialer{Timeout: 2 * time.Second, KeepAlive: 30 * time.Second}
	perHost := 16
	return &http.Transport{
		Proxy:                 http.ProxyFromEnvironment,
		DialContext:           d.DialContext,
		TLSHandshakeTimeout:   2 * time.Second,
		ExpectContinueTimeout: time.Second,
		IdleConnTimeout:       90 * time.Second,
		MaxIdleConnsPerHost:   perHost,
		MaxIdleConns:          perHost * max(replicas, 1),
	}
}

// Coordinator fronts a range-sharded deepsea cluster: it scatters
// queries to the replica groups owning their selection ranges, merges
// the partial results, and splits appends by routing key across the
// groups.
//
// The routing table is fixed at boot: New cuts the domain evenly, one
// range per group, and the table never changes. Moving a range would
// need moving the keyed rows appended to its old owner, which nothing
// does, so nothing moves ranges. A coordinator restarted over the same
// groups and config computes the same table and serves the same cluster.
//
// Robustness: every range is served by a replica group. A subquery
// tries the group's preferred replica first and fails over to the next
// on connection errors, timeouts, 409s and 5xx, each replica at most
// once; the replica that answers becomes the group's preferred one. So
// a dead replica costs one failed attempt per query already in flight,
// then nothing, and replica death mid-burst is invisible to clients as
// long as one replica per group survives.
type Coordinator struct {
	cfg    Config
	client *http.Client
	mux    *http.ServeMux

	// shards is the routing table, sorted by Lo and tiling [DomainLo,
	// DomainHi]; shards[gi] is group gi. Read-only after New.
	shards []ShardInfo

	// replicas maps every replica address to what the prober last saw
	// of it; preferred[gi] is the group's current first-choice replica
	// index (primary unless failover moved it).
	replicas  map[string]*replicaState
	preferred []atomic.Int32

	queries   atomic.Uint64
	scattered atomic.Uint64 // per-range subqueries issued
	attempts  atomic.Uint64 // per-replica attempts (≥ scattered)
	failures  atomic.Uint64 // client-visible failures
	failovers atomic.Uint64 // retries on a different replica

	appendsRouted atomic.Uint64 // POST /append batches routed
	appendRows    atomic.Uint64 // rows in routed batches
	// appendNonce + appendSeq generate per-batch idempotency tokens for
	// clients that did not supply their own (the nonce is random per
	// coordinator process, so a restarted coordinator cannot collide
	// with tokens a serving tier still remembers).
	appendNonce string
	appendSeq   atomic.Uint64

	proberStop chan struct{}
	proberDone chan struct{}
}

// New builds a Coordinator over the given replica groups and computes
// its routing table: an even split of the domain, one range per group.
// Call Init to push the ranges to the replicas before serving; call
// Close to stop the background prober when ProbeInterval is set.
func New(cfg Config) (*Coordinator, error) {
	groups := cfg.Groups
	if len(groups) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one shard address")
	}
	if cfg.DomainLo > cfg.DomainHi {
		return nil, fmt.Errorf("shard: empty domain [%d,%d]", cfg.DomainLo, cfg.DomainHi)
	}
	if int64(len(groups)) > cfg.DomainHi-cfg.DomainLo+1 {
		return nil, fmt.Errorf("shard: %d groups for the %d keys of domain [%d,%d]",
			len(groups), cfg.DomainHi-cfg.DomainLo+1, cfg.DomainLo, cfg.DomainHi)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
	replicas := make(map[string]*replicaState)
	shards := make([]ShardInfo, len(groups))
	for gi, b := range evenSplit(cfg.DomainLo, cfg.DomainHi, len(groups)) {
		g := groups[gi]
		if len(g) == 0 {
			return nil, fmt.Errorf("shard: group %d has no replicas", gi)
		}
		for _, a := range g {
			if a == "" {
				return nil, fmt.Errorf("shard: group %d has an empty replica address", gi)
			}
			if _, dup := replicas[a]; dup {
				return nil, fmt.Errorf("shard: replica %s appears twice", a)
			}
			replicas[a] = &replicaState{}
		}
		shards[gi] = ShardInfo{Replicas: append([]string(nil), g...), Lo: b[0], Hi: b[1]}
	}
	rt := cfg.Transport
	if rt == nil {
		rt = newTransport(len(replicas))
	}
	var nonce [8]byte
	_, _ = crand.Read(nonce[:]) // best-effort; an all-zero nonce still dedups within one process
	c := &Coordinator{
		cfg:         cfg,
		client:      &http.Client{Transport: rt},
		shards:      shards,
		replicas:    replicas,
		preferred:   make([]atomic.Int32, len(groups)),
		appendNonce: hex.EncodeToString(nonce[:]),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/append", c.handleAppend)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/statz", c.handleStatz)
	c.mux = mux
	if cfg.ProbeInterval > 0 {
		c.proberStop = make(chan struct{})
		c.proberDone = make(chan struct{})
		go c.probeLoop(cfg.ProbeInterval)
	}
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the background health prober, if one is running.
func (c *Coordinator) Close() {
	if c.proberStop != nil {
		close(c.proberStop)
		<-c.proberDone
		c.proberStop = nil
	}
}

// Init pushes each group's range to every replica of the group, the
// primary as "primary" and the rest as "follower". In each group at
// least one replica must accept; a replica that misses its push (down
// at the time) is given its range by the prober once it answers, and
// failover routes around it meanwhile. Init must succeed before
// serving, and may be called again: a replica already owning its range
// accepts the same push. ctx bounds the whole push sequence.
func (c *Coordinator) Init(ctx context.Context) error {
	for gi, sh := range c.shards {
		var errs []string
		for ri, addr := range sh.Replicas {
			if err := c.pushRange(ctx, gi, ri); err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", addr, err))
			}
		}
		if len(errs) == len(sh.Replicas) {
			return fmt.Errorf("shard: no replica of group %d accepted range [%d,%d]: %s",
				gi, sh.Lo, sh.Hi, strings.Join(errs, "; "))
		}
	}
	return nil
}

// Shards returns a copy of the routing table.
func (c *Coordinator) Shards() []ShardInfo {
	out := make([]ShardInfo, len(c.shards))
	for i, sh := range c.shards {
		sh.Replicas = append([]string(nil), sh.Replicas...)
		out[i] = sh
	}
	return out
}

// roleOf is the role replica ri of a group is assigned: the first is
// the primary.
func roleOf(ri int) string {
	if ri == 0 {
		return server.RolePrimary
	}
	return server.RoleFollower
}

// pushRange assigns group gi's range to its replica ri via POST
// /admin/range. The caller's context is threaded through, so
// coordinator shutdown abandons the push instead of running it against
// a dead cluster for the full timeout.
func (c *Coordinator) pushRange(ctx context.Context, gi, ri int) error {
	sh := c.shards[gi]
	body, _ := json.Marshal(map[string]any{"lo": sh.Lo, "hi": sh.Hi, "role": roleOf(ri)})
	status, b, err := c.call(ctx, http.MethodPost, sh.Replicas[ri]+"/admin/range", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return statusError(status, b)
	}
	return nil
}

// wireResponse is a shard's POST /query body as the coordinator reads
// it. Numbers decode as json.Number so group keys and min/max values
// re-marshal byte-for-byte.
type wireResponse struct {
	Columns          []string `json:"columns"`
	Rows             [][]any  `json:"rows"`
	SimulatedSeconds float64  `json:"simulated_seconds"`
}

// Response is the coordinator's POST /query body: the merged result
// plus scatter accounting.
type Response struct {
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
	// ShardsContacted is how many range slices the query spanned;
	// SimulatedSeconds is the slowest slice's simulated time (the
	// scatter phase runs them in parallel).
	ShardsContacted  int     `json:"shards_contacted"`
	SimulatedSeconds float64 `json:"simulated_seconds"`
	// Failovers reports how much routing-around-failure this query
	// needed (0 on the happy path).
	Failovers int `json:"failovers,omitempty"`
}

// errResponse is the coordinator's error body. FailedLo/FailedHi name
// the range slice whose whole replica group failed, so operators (and
// the CI smoke test) see which part of the domain is down.
type errResponse struct {
	Error    string `json:"error"`
	Shard    string `json:"shard,omitempty"`
	FailedLo *int64 `json:"failed_lo,omitempty"`
	FailedHi *int64 `json:"failed_hi,omitempty"`
	// Token is the append batch's idempotency key (client-supplied or
	// coordinator-generated). A failed append may have landed on some
	// replicas; retrying the batch with this exact token lets the
	// serving tier deduplicate the slices that already applied.
	Token string `json:"token,omitempty"`
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteJSON(w, http.StatusMethodNotAllowed, errResponse{Error: "POST only"})
		return
	}
	c.queries.Add(1)
	var spec server.QuerySpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		server.WriteJSON(w, http.StatusBadRequest, errResponse{Error: "bad JSON: " + err.Error()})
		return
	}
	lo, hi, ok := spec.ItemRange()
	if !ok {
		// Without a partition-key predicate the coordinator cannot slice
		// the query: every shard holds the full base tables, so fanning
		// out unclamped would multiply-count every row.
		server.WriteJSON(w, http.StatusBadRequest, errResponse{
			Error: "coordinator queries need an item_sk range predicate (or the template form's lo/hi)"})
		return
	}
	if lo > hi || hi < c.cfg.DomainLo || lo > c.cfg.DomainHi {
		server.WriteJSON(w, http.StatusBadRequest, errResponse{
			Error: fmt.Sprintf("range [%d,%d] outside domain [%d,%d]",
				lo, hi, c.cfg.DomainLo, c.cfg.DomainHi)})
		return
	}
	status, body := c.scatter(r.Context(), &spec, lo, hi)
	if status != http.StatusOK {
		c.failures.Add(1)
	}
	server.WriteJSON(w, status, body)
}

// scatter routes [lo, hi] through the table — one part per owning
// group, its sub-spec clamped to the group's slice of the range — fans
// the parts out under the read policy (queryRange), settles the
// replies, and merges the partial answers.
func (c *Coordinator) scatter(ctx context.Context, spec *server.QuerySpec, lo, hi int64) (int, any) {
	parts := route(c.shards, lo, hi)
	partial := specAggregates(spec)
	for i := range parts {
		p := &parts[i]
		sub := *spec
		sub.Partial = partial
		if sub.Template != "" {
			sub.Lo, sub.Hi = p.lo, p.hi
		} else {
			// Clamp the first item_sk range predicate (the one ItemRange
			// found, or handleQuery would have 400'd already).
			sub.Where = append([]server.WhereSpec(nil), spec.Where...)
			for j := range sub.Where {
				if strings.HasSuffix(sub.Where[j].Col, "item_sk") {
					sub.Where[j].Lo, sub.Where[j].Hi = p.lo, p.hi
					break
				}
			}
		}
		var err error
		if p.body, err = json.Marshal(&sub); err != nil {
			return http.StatusInternalServerError, errResponse{Error: err.Error()}
		}
	}
	c.scattered.Add(uint64(len(parts)))
	replies := fanOut(ctx, parts, c.queryRange)
	if status, body := c.settle(parts, replies, http.StatusServiceUnavailable, ""); status != http.StatusOK {
		return status, body
	}

	var simMax float64
	var failovers int
	rowSets := make([][][]any, len(replies))
	var cols []string
	for i, r := range replies {
		failovers += r.failovers
		rowSets[i] = r.wire.Rows
		simMax = max(simMax, r.wire.SimulatedSeconds)
		if cols == nil && len(r.wire.Columns) > 0 {
			cols = r.wire.Columns
		}
	}

	var outCols []string
	var outRows [][]any
	var err error
	if partial && cols != nil {
		outCols, outRows, err = MergePartials(cols, rowSets)
	} else {
		outCols = cols
		outRows, err = ConcatSorted(rowSets)
	}
	if err != nil {
		return http.StatusInternalServerError, errResponse{Error: err.Error()}
	}
	return http.StatusOK, Response{
		Columns:          outCols,
		Rows:             outRows,
		ShardsContacted:  len(parts),
		SimulatedSeconds: simMax,
		Failovers:        failovers,
	}
}

// specAggregates reports whether the spec's query ends in an
// aggregation (every workload template does; builder specs declare
// aggs explicitly). Aggregating specs scatter in partial mode.
func specAggregates(spec *server.QuerySpec) bool {
	return spec.Template != "" || len(spec.Aggs) > 0
}

// replicaBodyLimit bounds how much of one replica response the
// coordinator buffers: far above any aggregate answer the templates
// produce, and a ceiling on what a misbehaving replica can make it hold.
const replicaBodyLimit = 64 << 20

// call runs one HTTP request against one replica — every coordinator →
// replica exchange goes through here. It applies the per-call
// RequestTimeout (callers wanting less pass a shorter ctx), sends body
// as JSON when non-nil, and reads at most replicaBodyLimit bytes of the
// response. err is a transport failure; every status comes back with its
// raw body for the caller to classify.
func (c *Coordinator) call(ctx context.Context, method, url string, body []byte) (status int, respBody []byte, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	// A read that fails part-way leaves a truncated body, which the
	// caller's decode rejects — where a streaming decode would have met
	// the same error.
	respBody, _ = io.ReadAll(io.LimitReader(resp.Body, replicaBodyLimit))
	return resp.StatusCode, respBody, nil
}

// statusError renders a replica's non-200 answer as an error: the status
// line and the head of the body.
func statusError(status int, body []byte) error {
	head := bytes.TrimSpace(body[:min(len(body), 4096)])
	return fmt.Errorf("%d %s: %s", status, http.StatusText(status), head)
}

// ownsRange asks one replica whether it owns [lo, hi] (GET
// /admin/range).
func (c *Coordinator) ownsRange(ctx context.Context, addr string, lo, hi int64) (bool, error) {
	status, b, err := c.call(ctx, http.MethodGet, addr+"/admin/range", nil)
	if err != nil {
		return false, err
	}
	if status != http.StatusOK {
		return false, statusError(status, b)
	}
	var rr struct {
		Lo int64 `json:"lo"`
		Hi int64 `json:"hi"`
	}
	if err := json.Unmarshal(b, &rr); err != nil {
		return false, err
	}
	return rr.Lo == lo && rr.Hi == hi, nil
}

// probeLoop is the background health prober: every interval it checks
// each replica's /healthz, pushes its group's range to a replica that
// does not own it (one unreachable at Init, or restarted: ownership
// lives in memory), and hands a group's preference back to its primary
// once the primary is healthy.
func (c *Coordinator) probeLoop(interval time.Duration) {
	defer close(c.proberDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.proberStop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// probeAll runs one probe sweep over every replica.
func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for gi, sh := range c.shards {
		for ri := range sh.Replicas {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.probeOne(gi, ri)
			}()
		}
	}
	wg.Wait()
}

// probeTimeout bounds one probe request: short, so a sweep over a dead
// replica costs the prober (not queries) a bounded wait.
func (c *Coordinator) probeTimeout() time.Duration {
	if c.cfg.RequestTimeout < 2*time.Second {
		return c.cfg.RequestTimeout
	}
	return 2 * time.Second
}

// probeOne checks replica ri of group gi: /healthz for liveness, then
// /admin/range for ownership, pushing the group's range when the
// replica does not own it.
func (c *Coordinator) probeOne(gi, ri int) {
	sh := c.shards[gi]
	addr := sh.Replicas[ri]
	rs := c.replicas[addr]
	ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout())
	defer cancel()
	status, _, err := c.call(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil || status < 200 || status > 299 {
		// Unreachable, or reachable but unhealthy (draining, dependency
		// down): either way not a replica to hand preference back to.
		rs.noteProbe(false)
		return
	}

	owns, err := c.ownsRange(ctx, addr, sh.Lo, sh.Hi)
	if err == nil && !owns && c.pushRange(ctx, gi, ri) == nil {
		owns = true
		rs.mu.Lock()
		rs.repushes++
		rs.mu.Unlock()
	}
	rs.noteProbe(owns)
	// If the group's declared primary is healthy again, prefer it.
	if owns && ri == 0 {
		c.preferred[gi].Store(0)
	}
}

// healthzResponse is the coordinator's GET /healthz: the routing table
// with per-replica reachability. Status is "ok" or "degraded" (some
// replica unreachable or unhealthy).
type healthzResponse struct {
	Status string        `json:"status"`
	Shards []shardHealth `json:"shards"`
}

type shardHealth struct {
	ShardInfo
	ReplicaHealth []replicaHealth `json:"replica_health"`
}

type replicaHealth struct {
	Addr      string `json:"addr"`
	Role      string `json:"role"`
	Reachable bool   `json:"reachable"`
	Health    string `json:"health,omitempty"`
	// OwnsRange is whether the replica owned its group's range at the
	// prober's last look (false = not yet probed); Repushes counts the
	// prober's pushes of the range to the replica.
	OwnsRange bool   `json:"owns_range,omitempty"`
	Repushes  uint64 `json:"repushes,omitempty"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := make([]shardHealth, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		out[i] = shardHealth{ShardInfo: sh, ReplicaHealth: make([]replicaHealth, len(sh.Replicas))}
		for j, addr := range sh.Replicas {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rh := replicaHealth{Addr: addr, Role: roleOf(j)}
				rh.OwnsRange, rh.Repushes = c.replicas[addr].probeSnapshot()
				ctx, cancel := context.WithTimeout(r.Context(), c.probeTimeout())
				defer cancel()
				if _, b, err := c.call(ctx, http.MethodGet, addr+"/healthz", nil); err == nil {
					// Any answer proves the replica reachable; a body without
					// a status (not a deepsea server) leaves Health empty.
					var hz struct {
						Status string `json:"status"`
					}
					_ = json.Unmarshal(b, &hz)
					rh.Reachable = true
					rh.Health = hz.Status
				}
				out[i].ReplicaHealth[j] = rh
			}()
		}
	}
	wg.Wait()
	resp := healthzResponse{Status: "ok", Shards: out}
	for _, sh := range out {
		for _, rh := range sh.ReplicaHealth {
			if !rh.Reachable || (rh.Health != "" && rh.Health != "ok") {
				resp.Status = "degraded"
			}
		}
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// statzResponse is the coordinator's GET /statz: scatter and failover
// counters and the routing table.
type statzResponse struct {
	Queries   uint64 `json:"queries"`
	Scattered uint64 `json:"scattered"`
	Attempts  uint64 `json:"attempts"`
	Failures  uint64 `json:"failures"`
	// Failovers counts retries that moved to a different replica.
	Failovers uint64 `json:"failovers"`
	// AppendsRouted/AppendRows count POST /append batches scattered by
	// routing key and the rows they carried.
	AppendsRouted uint64      `json:"appends_routed"`
	AppendRows    uint64      `json:"append_rows"`
	Shards        []ShardInfo `json:"shards"`
}

func (c *Coordinator) handleStatz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, statzResponse{
		Queries:       c.queries.Load(),
		Scattered:     c.scattered.Load(),
		Attempts:      c.attempts.Load(),
		Failures:      c.failures.Load(),
		Failovers:     c.failovers.Load(),
		AppendsRouted: c.appendsRouted.Load(),
		AppendRows:    c.appendRows.Load(),
		Shards:        c.shards,
	})
}
