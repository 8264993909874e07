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
	"sort"
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
	// that checks every replica, re-pushes range ownership to replicas
	// that missed a handoff, and restores preference to a healthy
	// primary. Stop it with Close.
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

// Coordinator fronts a range-sharded deepsea cluster: it owns the
// routing table, scatters queries to the replica groups owning their
// selection ranges, merges the partial results, and moves range
// boundaries between groups with fenced handoffs when the workload's
// heat skews.
//
// Robustness: every range is served by a replica group. A subquery
// tries the group's preferred replica first and fails over to the next
// on connection errors, timeouts and 5xx, each replica at most once;
// the replica that answers becomes the group's preferred one. So a dead
// replica costs one failed attempt per query already in flight, then
// nothing, and replica death mid-burst is invisible to clients as long
// as one replica per group survives.
//
// Locking: mu is the routing-table lock. Queries scatter under RLock; a
// handoff takes the write lock, which both blocks new queries and waits
// out in-flight ones — the coordinator half of the fencing protocol
// (shards independently fence via /admin/range).
type Coordinator struct {
	cfg    Config
	groups [][]string // static replica membership, one group per range
	client *http.Client
	mux    *http.ServeMux

	mu     sync.RWMutex
	shards []ShardInfo // sorted by Lo; tiles [DomainLo, DomainHi]
	epoch  uint64      // last issued handoff epoch

	// replicas maps every replica address to what the prober last saw
	// of it; preferred[gi] is the group's current first-choice replica
	// index (primary unless failover moved it).
	replicas  map[string]*replicaState
	preferred []atomic.Int32

	heatMu sync.Mutex
	heat   *heatMap

	queries    atomic.Uint64
	scattered  atomic.Uint64 // per-range subqueries issued
	attempts   atomic.Uint64 // per-replica attempts (≥ scattered)
	failures   atomic.Uint64 // client-visible failures
	rebalances atomic.Uint64
	failovers  atomic.Uint64 // retries on a different replica
	refreshes  atomic.Uint64 // 409-driven routing-table refreshes

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

// New builds a Coordinator over the given replica groups. Call Init to
// push the initial even range split to the shards before serving; call
// Close to stop the background prober when ProbeInterval is set.
func New(cfg Config) (*Coordinator, error) {
	groups := cfg.Groups
	if len(groups) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one shard address")
	}
	if cfg.DomainLo > cfg.DomainHi {
		return nil, fmt.Errorf("shard: empty domain [%d,%d]", cfg.DomainLo, cfg.DomainHi)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
	replicas := make(map[string]*replicaState)
	var nReplicas int
	for gi, g := range groups {
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
			nReplicas++
		}
	}
	rt := cfg.Transport
	if rt == nil {
		rt = newTransport(nReplicas)
	}
	var nonce [8]byte
	_, _ = crand.Read(nonce[:]) // best-effort; an all-zero nonce still dedups within one process
	c := &Coordinator{
		cfg:         cfg,
		groups:      groups,
		client:      &http.Client{Transport: rt},
		replicas:    replicas,
		preferred:   make([]atomic.Int32, len(groups)),
		heat:        newHeatMap(cfg.DomainLo, cfg.DomainHi),
		appendNonce: hex.EncodeToString(nonce[:]),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/append", c.handleAppend)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/statz", c.handleStatz)
	mux.HandleFunc("/admin/rebalance", c.handleRebalance)
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

// Init assigns the boot-time routing table: an even split of the
// domain, pushed to every replica of every group. Must succeed before
// serving. ctx bounds the whole push sequence.
func (c *Coordinator) Init(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applyLocked(ctx, evenSplit(c.cfg.DomainLo, c.cfg.DomainHi, len(c.groups)))
}

// Shards returns a copy of the current routing table.
func (c *Coordinator) Shards() []ShardInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ShardInfo, len(c.shards))
	for i, sh := range c.shards {
		sh.Replicas = append([]string(nil), sh.Replicas...)
		out[i] = sh
	}
	return out
}

// applyLocked pushes a new set of range boundaries to the replica
// groups (bounds[i] goes to groups[i]) and installs the new routing
// table. Caller holds mu: no queries are in flight, so the shard-side
// drains are instant. Shrinking groups are fenced before growing ones —
// a range is always released by its old owner before its new owner
// starts answering for it, so no two groups ever claim the same keys.
// Within a group the push must land on at least one replica; replicas
// that miss it (down at the time) answer with a stale epoch until the
// prober re-pushes, and failover routes around them meanwhile. On a
// whole-group push failure the already-moved groups are rolled back to
// their old ranges (best effort) and the old table stays installed.
func (c *Coordinator) applyLocked(ctx context.Context, bounds [][2]int64) error {
	if len(bounds) != len(c.groups) {
		return fmt.Errorf("shard: %d bounds for %d groups", len(bounds), len(c.groups))
	}
	next := make([]ShardInfo, len(bounds))
	for i, b := range bounds {
		next[i] = ShardInfo{
			Addr:     c.groups[i][0],
			Replicas: append([]string(nil), c.groups[i]...),
			Lo:       b[0],
			Hi:       b[1],
		}
	}
	if err := validate(next, c.cfg.DomainLo, c.cfg.DomainHi); err != nil {
		return err
	}

	// Order: groups whose span shrinks (donors) before those that grow.
	order := make([]int, len(next))
	for i := range order {
		order[i] = i
	}
	width := func(s ShardInfo) int64 { return s.Hi - s.Lo + 1 }
	sort.SliceStable(order, func(a, b int) bool {
		da := int64(1 << 62)
		db := int64(1 << 62)
		if len(c.shards) == len(next) {
			da = width(next[order[a]]) - width(c.shards[order[a]])
			db = width(next[order[b]]) - width(c.shards[order[b]])
		}
		return da < db
	})

	var applied []int
	for _, i := range order {
		c.epoch++
		next[i].Epoch = c.epoch
		if err := c.pushGroup(ctx, i, next[i].Lo, next[i].Hi, c.epoch); err != nil {
			// Roll the moved groups back to their old ranges under fresh
			// epochs so the installed (old) table stays authoritative.
			for _, j := range applied {
				if len(c.shards) == len(next) {
					c.epoch++
					old := c.shards[j]
					if rerr := c.pushGroup(ctx, j, old.Lo, old.Hi, c.epoch); rerr == nil {
						c.shards[j].Epoch = c.epoch
					}
				}
			}
			return fmt.Errorf("shard: pushing range [%d,%d] to group %d (%s): %w",
				next[i].Lo, next[i].Hi, i, c.groups[i][0], err)
		}
		applied = append(applied, i)
	}
	c.shards = next
	return nil
}

// pushGroup runs one group's fenced handoff: the range and epoch are
// pushed to every replica (the primary as "primary", the rest as
// "follower"). At least one replica must accept; replicas that fail are
// left behind on their old epoch, to be healed by the prober.
func (c *Coordinator) pushGroup(ctx context.Context, gi int, lo, hi int64, epoch uint64) error {
	var okCount int
	var errs []string
	for ri, addr := range c.groups[gi] {
		role := server.RoleFollower
		if ri == 0 {
			role = server.RolePrimary
		}
		if err := c.pushRange(ctx, addr, lo, hi, epoch, role); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", addr, err))
			continue
		}
		okCount++
	}
	if okCount == 0 {
		return fmt.Errorf("no replica accepted the handoff: %s", strings.Join(errs, "; "))
	}
	return nil
}

// pushRange runs one replica-side fenced handoff via POST /admin/range.
// The caller's context is threaded through, so a cancelled rebalance or
// coordinator shutdown abandons the push instead of running it against
// a dead cluster for the full timeout.
func (c *Coordinator) pushRange(ctx context.Context, addr string, lo, hi int64, epoch uint64, role string) error {
	body, _ := json.Marshal(map[string]any{"lo": lo, "hi": hi, "epoch": epoch, "role": role})
	status, b, conflict, err := c.call(ctx, http.MethodPost, addr+"/admin/range", body)
	switch {
	case err != nil:
		return err
	case conflict != nil:
		return conflict
	case status != http.StatusOK:
		return statusError(status, b)
	}
	return nil
}

// Rebalance recomputes equi-heat boundaries from the observed workload
// and, when they differ from the current table, moves them with a
// fenced handoff. Returns whether anything moved. ctx bounds the push
// sequence (thread the request or signal context through, so shutdown
// cancels an in-flight rebalance).
func (c *Coordinator) Rebalance(ctx context.Context) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.heatMu.Lock()
	bounds := c.heat.boundaries(len(c.shards))
	c.heatMu.Unlock()
	same := len(bounds) == len(c.shards)
	for i := 0; same && i < len(bounds); i++ {
		same = bounds[i][0] == c.shards[i].Lo && bounds[i][1] == c.shards[i].Hi
	}
	if same {
		return false, nil
	}
	if err := c.applyLocked(ctx, bounds); err != nil {
		return false, err
	}
	c.rebalances.Add(1)
	return true, nil
}

// wireResponse is a shard's POST /query body as the coordinator reads
// it. Numbers decode as json.Number so group keys and min/max values
// re-marshal byte-for-byte.
type wireResponse struct {
	Columns          []string `json:"columns"`
	Rows             [][]any  `json:"rows"`
	SimulatedSeconds float64  `json:"simulated_seconds"`
}

// conflict409 carries the true ownership a shard reported in a 409: the
// coordinator adopts it (via a routing refresh) when the shard is ahead
// of the routing table, and routes around the replica when it is
// behind.
type conflict409 struct {
	OwnedLo, OwnedHi int64
	Epoch            uint64
	Msg              string
}

func (e *conflict409) Error() string {
	return fmt.Sprintf("409 conflict: %s (replica owns [%d,%d] at epoch %d)",
		e.Msg, e.OwnedLo, e.OwnedHi, e.Epoch)
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

	c.heatMu.Lock()
	c.heat.record(lo, hi)
	c.heatMu.Unlock()

	status, body := c.withRefresh(r.Context(), func() (int, any, bool) {
		return c.scatterOnce(r.Context(), &spec, lo, hi)
	})
	if status != http.StatusOK {
		c.failures.Add(1)
	}
	server.WriteJSON(w, status, body)
}

// withRefresh runs one routing attempt, and when a shard answered 409
// with a NEWER epoch than the routing table (the cluster moved on
// without us — e.g. a coordinator restart raced a handoff), adopts the
// true ownership by refreshing the table from the shards and runs the
// attempt once more. The client never sees the stale-table window.
// When the refresh fails or the retry draws another stale 409, the 503
// body the attempt built rides through — the client gets a real error
// response, never an aborted connection.
func (c *Coordinator) withRefresh(ctx context.Context, once func() (status int, body any, refresh bool)) (int, any) {
	status, body, refresh := once()
	if !refresh {
		return status, body
	}
	if err := c.refreshRouting(ctx); err != nil {
		if er, ok := body.(errResponse); ok {
			er.Error += "; routing refresh failed: " + err.Error()
			body = er
		}
		return status, body
	}
	status, body, _ = once()
	return status, body
}

// scatterOnce routes [lo, hi] through the current table — one part per
// owning group, its sub-spec clamped to the group's slice of the range
// and stamped with the group's epoch — fans the parts out under the
// read policy (queryRange), settles the replies, and merges the partial
// answers.
func (c *Coordinator) scatterOnce(ctx context.Context, spec *server.QuerySpec, lo, hi int64) (int, any, bool) {
	// Scatter under the routing read-lock: a concurrent handoff waits
	// for us, so the table we route by stays valid for the whole fan-out.
	c.mu.RLock()
	defer c.mu.RUnlock()
	parts := route(c.shards, lo, hi)
	if len(parts) == 0 {
		return http.StatusServiceUnavailable, errResponse{Error: "no shard owns the range (cluster not initialized?)"}, false
	}
	partial := specAggregates(spec)
	for i := range parts {
		p := &parts[i]
		sub := *spec
		sub.Partial = partial
		sub.Epoch = c.shards[p.shard].Epoch
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
			return http.StatusInternalServerError, errResponse{Error: err.Error()}, false
		}
	}
	c.scattered.Add(uint64(len(parts)))
	replies := fanOut(ctx, parts, c.queryRange)
	if status, body, refresh := c.settle(parts, replies, http.StatusServiceUnavailable, ""); status != http.StatusOK {
		return status, body, refresh
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
		return http.StatusInternalServerError, errResponse{Error: err.Error()}, false
	}
	return http.StatusOK, Response{
		Columns:          outCols,
		Rows:             outRows,
		ShardsContacted:  len(parts),
		SimulatedSeconds: simMax,
		Failovers:        failovers,
	}, false
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
// as JSON when non-nil, reads at most replicaBodyLimit bytes of the
// response, and decodes a 409's claimed ownership into conflict. err is
// a transport failure or an undecodable 409; every other status comes
// back with its raw body for the caller to classify.
func (c *Coordinator) call(ctx context.Context, method, url string, body []byte) (status int, respBody []byte, conflict *conflict409, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	// A read that fails part-way leaves a truncated body, which the
	// caller's decode rejects — where a streaming decode would have met
	// the same error.
	respBody, _ = io.ReadAll(io.LimitReader(resp.Body, replicaBodyLimit))
	if resp.StatusCode == http.StatusConflict {
		var re server.RangeErrResponse
		if derr := json.Unmarshal(respBody, &re); derr != nil {
			return resp.StatusCode, nil, nil, fmt.Errorf("decoding 409 body: %w", derr)
		}
		return resp.StatusCode, nil, &conflict409{
			OwnedLo: re.OwnedLo, OwnedHi: re.OwnedHi, Epoch: re.RangeEpoch, Msg: re.Error,
		}, nil
	}
	return resp.StatusCode, respBody, nil, nil
}

// statusError renders a replica's non-200 answer as an error: the status
// line and the head of the body.
func statusError(status int, body []byte) error {
	head := bytes.TrimSpace(body[:min(len(body), 4096)])
	return fmt.Errorf("%d %s: %s", status, http.StatusText(status), head)
}

// refreshRouting rebuilds the routing table from the shards' own
// claimed ownership (GET /admin/range on each replica, keeping the
// newest epoch per group) — the recovery path when a 409 proves the
// table stale. The refreshed table must still tile the domain, or it is
// rejected and the old one kept.
func (c *Coordinator) refreshRouting(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refreshes.Add(1)
	if len(c.shards) == 0 {
		return fmt.Errorf("shard: no routing table to refresh")
	}
	next := make([]ShardInfo, len(c.shards))
	copy(next, c.shards)
	for gi := range next {
		next[gi].Replicas = append([]string(nil), c.shards[gi].Replicas...)
		for _, addr := range c.groups[gi] {
			lo, hi, epoch, err := c.fetchOwnership(ctx, addr)
			if err != nil || epoch == 0 {
				continue
			}
			if epoch > next[gi].Epoch {
				next[gi].Lo, next[gi].Hi, next[gi].Epoch = lo, hi, epoch
			}
		}
		if next[gi].Epoch > c.epoch {
			c.epoch = next[gi].Epoch
		}
	}
	if err := validate(next, c.cfg.DomainLo, c.cfg.DomainHi); err != nil {
		return fmt.Errorf("shard: refreshed table invalid, keeping old: %w", err)
	}
	c.shards = next
	return nil
}

// fetchOwnership asks one replica what range and epoch it serves.
func (c *Coordinator) fetchOwnership(ctx context.Context, addr string) (lo, hi int64, epoch uint64, err error) {
	status, b, _, err := c.call(ctx, http.MethodGet, addr+"/admin/range", nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, 0, statusError(status, b)
	}
	var rr struct {
		Lo    int64  `json:"lo"`
		Hi    int64  `json:"hi"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(b, &rr); err != nil {
		return 0, 0, 0, err
	}
	return rr.Lo, rr.Hi, rr.Epoch, nil
}

// probeLoop is the background health prober: every interval it checks
// each replica's /healthz, re-pushes current ownership to replicas whose
// epoch fell behind (they were down during a handoff), and hands a
// group's preference back to its primary once the primary is healthy.
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
	type target struct {
		addr  string
		gi    int
		role  string
		lo    int64
		hi    int64
		epoch uint64
	}
	var targets []target
	c.mu.RLock()
	for gi, sh := range c.shards {
		for ri, addr := range c.groups[gi] {
			role := server.RoleFollower
			if ri == 0 {
				role = server.RolePrimary
			}
			targets = append(targets, target{addr: addr, gi: gi, role: role, lo: sh.Lo, hi: sh.Hi, epoch: sh.Epoch})
		}
	}
	c.mu.RUnlock()
	var wg sync.WaitGroup
	for _, tg := range targets {
		wg.Add(1)
		go func(tg target) {
			defer wg.Done()
			c.probeOne(tg.addr, tg.gi, tg.role, tg.lo, tg.hi, tg.epoch)
		}(tg)
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

// probeOne checks one replica: /healthz for liveness, then /admin/range
// for epoch lag (re-pushing the current ownership when the replica
// missed a handoff).
func (c *Coordinator) probeOne(addr string, gi int, role string, lo, hi int64, epoch uint64) {
	rs := c.replicas[addr]
	ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout())
	defer cancel()
	status, _, _, err := c.call(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil || status < 200 || status > 299 {
		// Unreachable, or reachable but unhealthy (draining, dependency
		// down): either way not a replica to hand preference back to.
		rs.noteProbe(0)
		return
	}

	ownLo, ownHi, ownEpoch, err := c.fetchOwnership(ctx, addr)
	rs.noteProbe(ownEpoch) // 0 when the ownership fetch failed
	if err != nil {
		return
	}
	if ownEpoch < epoch || ownLo != lo || ownHi != hi {
		// The replica missed a handoff while it was down: re-push the
		// current ownership so it stops 409ing its share of the traffic.
		if perr := c.pushRange(ctx, addr, lo, hi, epoch, role); perr == nil {
			rs.mu.Lock()
			rs.repushes++
			rs.mu.Unlock()
		}
	}
	// If the group's declared primary is healthy again, prefer it.
	if role == server.RolePrimary {
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
	// ProbeEpoch is the ownership epoch the replica last reported to the
	// prober (0 = never probed); Repushes counts prober-driven handoff
	// repairs after the replica missed one.
	ProbeEpoch uint64 `json:"probe_epoch,omitempty"`
	Repushes   uint64 `json:"repushes,omitempty"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := c.Shards()
	out := make([]shardHealth, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		out[i] = shardHealth{ShardInfo: sh, ReplicaHealth: make([]replicaHealth, len(sh.Replicas))}
		for j, addr := range sh.Replicas {
			wg.Add(1)
			go func(i, j int, addr string, primary bool) {
				defer wg.Done()
				rh := replicaHealth{Addr: addr, Role: server.RoleFollower}
				if primary {
					rh.Role = server.RolePrimary
				}
				if rs := c.replicas[addr]; rs != nil {
					rh.ProbeEpoch, rh.Repushes = rs.probeSnapshot()
				}
				ctx, cancel := context.WithTimeout(r.Context(), c.probeTimeout())
				defer cancel()
				if _, b, _, err := c.call(ctx, http.MethodGet, addr+"/healthz", nil); err == nil {
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
			}(i, j, addr, j == 0)
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
// counters, the routing table, and each group's share of the observed
// heat.
type statzResponse struct {
	Queries    uint64 `json:"queries"`
	Scattered  uint64 `json:"scattered"`
	Attempts   uint64 `json:"attempts"`
	Failures   uint64 `json:"failures"`
	Rebalances uint64 `json:"rebalances"`
	// Failovers counts retries that moved to a different replica;
	// Refreshes counts 409-driven routing-table rebuilds.
	Failovers uint64 `json:"failovers"`
	Refreshes uint64 `json:"refreshes"`
	// AppendsRouted/AppendRows count POST /append batches scattered by
	// routing key and the rows they carried.
	AppendsRouted uint64       `json:"appends_routed"`
	AppendRows    uint64       `json:"append_rows"`
	Shards        []shardStatz `json:"shards"`
}

type shardStatz struct {
	ShardInfo
	// HeatShare is the fraction of recorded heat inside the group's
	// range — the skew signal Rebalance acts on (1/n everywhere when
	// the workload is uniform).
	HeatShare float64 `json:"heat_share"`
}

func (c *Coordinator) handleStatz(w http.ResponseWriter, r *http.Request) {
	shards := c.Shards()
	resp := statzResponse{
		Queries:       c.queries.Load(),
		Scattered:     c.scattered.Load(),
		Attempts:      c.attempts.Load(),
		Failures:      c.failures.Load(),
		Rebalances:    c.rebalances.Load(),
		Failovers:     c.failovers.Load(),
		Refreshes:     c.refreshes.Load(),
		AppendsRouted: c.appendsRouted.Load(),
		AppendRows:    c.appendRows.Load(),
	}
	c.heatMu.Lock()
	var total uint64
	perShard := make([]uint64, len(shards))
	for i := 0; i < heatBuckets; i++ {
		lo := c.heat.lo + (c.heat.hi-c.heat.lo+1)*int64(i)/heatBuckets
		for j, sh := range shards {
			if lo >= sh.Lo && lo <= sh.Hi {
				perShard[j] += c.heat.buckets[i]
				break
			}
		}
		total += c.heat.buckets[i]
	}
	c.heatMu.Unlock()
	for i, sh := range shards {
		st := shardStatz{ShardInfo: sh}
		if total > 0 {
			st.HeatShare = float64(perShard[i]) / float64(total)
		}
		resp.Shards = append(resp.Shards, st)
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// handleRebalance is POST /admin/rebalance: recompute equi-heat
// boundaries and move them if they changed.
func (c *Coordinator) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteJSON(w, http.StatusMethodNotAllowed, errResponse{Error: "POST only"})
		return
	}
	moved, err := c.Rebalance(r.Context())
	if err != nil {
		server.WriteJSON(w, http.StatusServiceUnavailable, errResponse{Error: err.Error()})
		return
	}
	server.WriteJSON(w, http.StatusOK, struct {
		Moved  bool        `json:"moved"`
		Shards []ShardInfo `json:"shards"`
	}{Moved: moved, Shards: c.Shards()})
}
