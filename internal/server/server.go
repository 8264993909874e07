// Package server is DeepSea's query-serving frontend: an HTTP/JSON API
// over the public deepsea.System with admission control (a bounded
// in-flight limit, a FIFO wait queue, and load shedding), an operational
// health surface, and a graceful drain-on-shutdown lifecycle. An
// admitted query runs System.RunContext, and an admitted append
// System.AppendRows, on its handler goroutine.
//
// Endpoints:
//
//	POST /query   — run one query (body: QuerySpec JSON)
//	POST /append  — ingest a batch of base-table rows (body: ingest.Spec JSON)
//	GET  /healthz — liveness + degradation summary
//	GET  /statz   — full operational snapshot (health, admission, serving)
//	GET  /poolz   — materialized-pool contents
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deepsea"
	"deepsea/internal/ingest"
	"deepsea/internal/relation"
)

// Config tunes the serving layer. The zero value is usable: defaults
// are filled in by New.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (default
	// GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds the admission wait queue; a request arriving with
	// the queue full is shed immediately (default 4 × MaxInFlight).
	MaxQueue int
	// QueueTimeout sheds a request that has waited this long for a slot
	// (default 1s; negative disables the timeout).
	QueueTimeout time.Duration
	// SnapshotEvery, when positive, checkpoints the system to its
	// mounted datastore on this period (and once more on drain), keeping
	// the journal tail — and therefore recovery time — short. Pointless
	// without deepsea.WithDatastore (default 0 = off).
	SnapshotEvery time.Duration
}

const (
	// defaultTimeout bounds a request's total processing when its spec
	// sets no timeout_ms (an append always gets it).
	defaultTimeout = 30 * time.Second
	// retryAfterFloor is the floor, in seconds, of the Retry-After hint
	// on shed responses (see retryAfter).
	retryAfterFloor = 1
	// appendDedupWindow is how many recently applied append tokens the
	// server remembers for idempotent retries (ingest.Spec.Token).
	appendDedupWindow = 4096
)

// ErrDraining reports that the server is shutting down and accepts no
// new work.
var ErrDraining = errors.New("server: draining")

func (c *Config) fill() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = time.Second
	} else if c.QueueTimeout < 0 {
		c.QueueTimeout = 0
	}
}

// ServingStats counts frontend traffic (admission counters live in
// AdmissionStats).
type ServingStats struct {
	Served     uint64 `json:"served"`
	Failed     uint64 `json:"failed"`
	Shed       uint64 `json:"shed"`
	TimedOut   uint64 `json:"timed_out"`
	BadRequest uint64 `json:"bad_request"`
	// Appends counts successful POST /append requests; AppendBatches the
	// batches handed to the system, one per append not answered from the
	// idempotency window. Every append lands alone, so on a fault-free run
	// Appends = AppendBatches + AppendDedups by construction; the field
	// stays because benchmark/ reads it.
	Appends       uint64 `json:"appends"`
	AppendBatches uint64 `json:"append_batches"`
	// AppendDedups counts append requests answered from the idempotency
	// window (a repeated token: the rows were already applied by an
	// earlier request, so nothing landed twice).
	AppendDedups uint64 `json:"append_dedups"`
}

// Server serves queries over one deepsea.System. Create with New,
// expose Handler over any http.Server, stop with Shutdown.
type Server struct {
	sys   *deepsea.System
	lim   *limiter
	dedup *appendDedup
	mux   *http.ServeMux

	// baseCtx parents every request's query context; cancel kills
	// stragglers when a drain deadline passes.
	baseCtx context.Context
	cancel  context.CancelFunc

	draining atomic.Bool
	reqWG    sync.WaitGroup

	// role is the replica role the last range assignment carried
	// ("primary" or "follower"; empty when standalone). Informational:
	// any replica answers queries for its range — the role only tells
	// operators which replica the coordinator prefers.
	role atomic.Value // string

	// snapStop/snapDone bound the periodic-snapshot goroutine (nil
	// without SnapshotEvery).
	snapStop chan struct{}
	snapDone chan struct{}
	snapErrs atomic.Uint64

	served        atomic.Uint64
	failed        atomic.Uint64
	shed          atomic.Uint64
	timedOut      atomic.Uint64
	badRequest    atomic.Uint64
	appends       atomic.Uint64
	appendBatches atomic.Uint64
	appendDedups  atomic.Uint64

	// completions feeds the drain-rate estimate behind Retry-After.
	completions completionRing

	// testExecGate, when set (tests only, before serving), runs after
	// admission and before execution — it lets tests hold all slots busy
	// deterministically.
	testExecGate func(ctx context.Context)
}

// New builds a Server over sys.
func New(sys *deepsea.System, cfg Config) *Server {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		sys:     sys,
		lim:     newLimiter(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueTimeout),
		dedup:   newAppendDedup(appendDedupWindow),
		baseCtx: ctx,
		cancel:  cancel,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/append", s.handleAppend)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/poolz", s.handlePoolz)
	mux.HandleFunc("/admin/range", s.handleAdminRange)
	s.mux = mux
	if cfg.SnapshotEvery > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(cfg.SnapshotEvery)
	}
	return s
}

// snapshotLoop checkpoints the system on a timer until Shutdown. A
// failed snapshot is counted and retried next tick — the journal keeps
// the durability floor in the meantime.
func (s *Server) snapshotLoop(every time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.sys.Snapshot(); err != nil {
				s.snapErrs.Add(1)
			}
		case <-s.snapStop:
			return
		}
	}
}

// Handler returns the HTTP handler (mount it on any http.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new requests are refused with 503 and
// in-flight ones finish. If ctx expires first, straggling queries are
// cancelled (they unwind promptly through RunContext) and the drain
// still completes before Shutdown returns ctx.Err() — either way no
// goroutine is left behind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel()
		<-done
		err = ctx.Err()
	}
	// The system is quiet now: stop the snapshot ticker, drain the
	// background maintenance queue (so enqueued materializations and
	// merges commit and get journaled), then take one final checkpoint
	// so a restart replays no journal tail at all.
	if s.snapStop != nil {
		close(s.snapStop)
		<-s.snapDone
	}
	if derr := s.sys.DrainMaintenance(ctx); derr != nil && err == nil {
		err = derr
	}
	s.sys.CloseMaintenance()
	if serr := s.sys.Snapshot(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// QueryResponse is the JSON body of a successful POST /query.
type QueryResponse struct {
	Columns          []string `json:"columns,omitempty"`
	Rows             [][]any  `json:"rows,omitempty"`
	CacheHit         bool     `json:"cache_hit,omitempty"`
	Rewritten        bool     `json:"rewritten,omitempty"`
	UsedView         string   `json:"used_view,omitempty"`
	FragmentsRead    int      `json:"fragments_read,omitempty"`
	Retries          int      `json:"retries,omitempty"`
	SimulatedSeconds float64  `json:"simulated_seconds"`
}

type errResponse struct {
	Error string `json:"error"`
}

// WriteJSON writes v as the JSON body of a response with the given
// status (HTML escaping off: error strings and view ids go out as
// written). The coordinator tier answers with it too.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// completionRing tracks request completions in one-second buckets so
// shed responses can estimate the server's drain rate without keeping
// per-request timestamps. The window is len(buckets) seconds; buckets
// older than the window are lazily zeroed as the clock wraps onto them.
type completionRing struct {
	mu      sync.Mutex
	buckets [8]uint64
	stamps  [8]int64 // unix second each bucket currently counts for
}

func (r *completionRing) note(now time.Time) {
	sec := now.Unix()
	i := int(sec % int64(len(r.buckets)))
	r.mu.Lock()
	if r.stamps[i] != sec {
		r.stamps[i] = sec
		r.buckets[i] = 0
	}
	r.buckets[i]++
	r.mu.Unlock()
}

// rate returns completions per second averaged over the full window.
// Idle seconds count as zeros (silence is signal); 0 means no
// completion landed inside the window at all.
func (r *completionRing) rate(now time.Time) float64 {
	sec := now.Unix()
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for i := range r.buckets {
		if age := sec - r.stamps[i]; age >= 0 && age < int64(len(r.buckets)) {
			n += r.buckets[i]
		}
	}
	return float64(n) / float64(len(r.buckets))
}

// retryAfter derives the Retry-After hint for a shed response: with
// depth requests already queued and the recent drain rate, a new
// arrival reaches the front in about (depth+1)/rate seconds. Clamped
// to [retryAfterFloor, 60]; an unknown rate (no recent completions)
// falls back to the floor.
func (s *Server) retryAfter() int {
	_, _, depth := s.lim.snapshot()
	rate := s.completions.rate(time.Now())
	if rate <= 0 {
		return retryAfterFloor
	}
	secs := int(math.Ceil(float64(depth+1) / rate))
	if secs < retryAfterFloor {
		secs = retryAfterFloor
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (s *Server) writeShed(w http.ResponseWriter) {
	s.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	WriteJSON(w, http.StatusTooManyRequests, errResponse{Error: ErrShed.Error()})
}

// guarded is the guard chain POST /query and POST /append share. In
// order: the method check; the drain handshake; prepare, which decodes
// and validates the body, writes its own 4xx and returns false to stop,
// or returns the request's time budget; the deadline context;
// admission. run executes holding one admission slot.
func (s *Server) guarded(w http.ResponseWriter, r *http.Request,
	prepare func() (timeout time.Duration, ok bool), run func(ctx context.Context)) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, errResponse{Error: "POST only"})
		return
	}
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, errResponse{Error: ErrDraining.Error()})
		return
	}
	s.reqWG.Add(1)
	defer s.reqWG.Done()
	// Re-check under the WaitGroup: a drain that started before the Add
	// observes either the flag refusing us or the Add it must wait for.
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, errResponse{Error: ErrDraining.Error()})
		return
	}

	timeout, ok := prepare()
	if !ok {
		return
	}

	// The request's deadline covers everything from here on — the
	// admission wait included, so a queued request whose budget is gone
	// sheds instead of executing. The server's base context parents it:
	// a drain past its deadline cancels stragglers centrally.
	ctx, cancelReq := context.WithTimeout(r.Context(), timeout)
	defer cancelReq()
	stop := context.AfterFunc(s.baseCtx, cancelReq)
	defer stop()

	// Queries and appends share the limiter: under overload both shed, so
	// an append burst cannot starve reads of slots (nor the reverse).
	if err := s.lim.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, ErrShed):
			s.writeShed(w)
		case errors.Is(err, context.DeadlineExceeded):
			s.timedOut.Add(1)
			WriteJSON(w, http.StatusGatewayTimeout, errResponse{Error: "deadline exceeded in queue"})
		default: // client went away
			s.failed.Add(1)
			WriteJSON(w, http.StatusServiceUnavailable, errResponse{Error: err.Error()})
		}
		return
	}
	// Every slot hand-back counts toward the drain rate, success or not:
	// Retry-After estimates slot turnover, not success throughput.
	defer func() {
		s.lim.release()
		s.completions.note(time.Now())
	}()

	run(ctx)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q *deepsea.Query
	s.guarded(w, r, func() (time.Duration, bool) {
		var spec QuerySpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			s.badRequest.Add(1)
			WriteJSON(w, http.StatusBadRequest, errResponse{Error: "bad JSON: " + err.Error()})
			return 0, false
		}
		lo, hi, keyed := spec.ItemRange()
		if resp, ok := s.checkOwnership(lo, hi, keyed); !ok {
			WriteJSON(w, http.StatusConflict, resp)
			return 0, false
		}
		var err error
		if q, err = spec.build(); err == nil {
			// Building the template key resolves every table the query
			// scans and every column it names, with the type its
			// operator reads: a malformed query is a client error,
			// caught here before admission and before planning.
			_, err = s.sys.TemplateKey(q)
		}
		if err != nil {
			s.badRequest.Add(1)
			WriteJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
			return 0, false
		}
		if spec.TimeoutMS > 0 {
			return time.Duration(spec.TimeoutMS) * time.Millisecond, true
		}
		return defaultTimeout, true
	}, func(ctx context.Context) {
		if s.testExecGate != nil {
			s.testExecGate(ctx)
		}
		rep, err := s.sys.RunContext(ctx, q)
		if err != nil {
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				s.timedOut.Add(1)
				WriteJSON(w, http.StatusGatewayTimeout, errResponse{Error: "deadline exceeded"})
			case errors.Is(err, context.Canceled):
				s.failed.Add(1)
				WriteJSON(w, http.StatusServiceUnavailable, errResponse{Error: err.Error()})
			default:
				s.failed.Add(1)
				WriteJSON(w, http.StatusInternalServerError, errResponse{Error: err.Error()})
			}
			return
		}
		s.served.Add(1)
		WriteJSON(w, http.StatusOK, QueryResponse{
			Columns:          rep.Columns(),
			Rows:             rep.Rows(),
			CacheHit:         rep.CacheHit,
			Rewritten:        rep.Rewritten,
			UsedView:         rep.UsedView,
			FragmentsRead:    rep.FragmentsRead,
			Retries:          rep.Retries,
			SimulatedSeconds: rep.SimulatedSeconds(),
		})
	})
}

// AppendResponse is the JSON body of a successful POST /append: the
// report of the request's own batch — NewCount is the table's row count
// right after its rows landed, and the view lists are what its append
// marked stale, refreshed, dropped or deferred. A deduplicated request
// replays the report of the request that landed the rows.
type AppendResponse struct {
	Table      string   `json:"table"`
	NewCount   int64    `json:"new_count"`
	StaleViews []string `json:"stale_views,omitempty"`
	Refreshed  []string `json:"refreshed,omitempty"`
	Dropped    []string `json:"dropped,omitempty"`
	// Deferred marks refresh work handed to the background maintenance
	// pool (views may be briefly stale but are never served stale).
	Deferred bool `json:"deferred,omitempty"`
	// Deduped marks a repeated idempotency token: the batch was already
	// applied by an earlier request and the response replays that
	// request's result — no rows landed twice.
	Deduped bool `json:"deduped,omitempty"`
}

// handleAppend is POST /append: the online ingest path. It runs behind
// the same drain/admission guards as /query, converts the batch
// against the table schema before admission (so bad rows 400 without
// taking a slot), and lands the converted rows on its own goroutine
// inside its admission slot — journaled, dependent views refreshed
// incrementally.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var sp *ingest.Spec
	var rows []relation.Row
	s.guarded(w, r, func() (time.Duration, bool) {
		var err error
		if sp, err = ingest.DecodeSpec(r.Body); err != nil {
			s.badRequest.Add(1)
			WriteJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
			return 0, false
		}
		lo, hi, keyed := sp.ItemRange(s.sys.RoutingKeyIndex(sp.Table))
		if resp, ok := s.checkOwnership(lo, hi, keyed); !ok {
			WriteJSON(w, http.StatusConflict, resp)
			return 0, false
		}
		if rows, err = s.sys.ConvertRows(sp.Table, sp.Rows); err != nil {
			s.badRequest.Add(1)
			WriteJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
			return 0, false
		}
		return defaultTimeout, true
	}, func(context.Context) {
		rep, deduped, err := s.landAppend(sp, rows)
		if err != nil {
			// Rows were converted before admission, so a failure here is a
			// server-side journal or refresh error, not the request's fault.
			s.failed.Add(1)
			WriteJSON(w, http.StatusInternalServerError, errResponse{Error: err.Error()})
			return
		}
		s.appends.Add(1)
		if deduped {
			s.appendDedups.Add(1)
		}
		WriteJSON(w, http.StatusOK, AppendResponse{
			Table:      rep.Table,
			NewCount:   rep.NewCount,
			StaleViews: rep.StaleViews,
			Refreshed:  rep.Refreshed,
			Dropped:    rep.Dropped,
			Deferred:   rep.Deferred,
			Deduped:    deduped,
		})
	})
}

// landAppend applies one batch with System.AppendRows on the calling
// handler's goroutine, deduplicating by the spec's idempotency token: a
// token already applied within the window returns the remembered result
// (deduped true) instead of appending the rows again. A token whose
// owning attempt failed is released — the waiter carries the same rows,
// so it retries as a fresh owner.
func (s *Server) landAppend(sp *ingest.Spec, rows []relation.Row) (deepsea.AppendReport, bool, error) {
	apply := func() (deepsea.AppendReport, error) {
		s.appendBatches.Add(1)
		return s.sys.AppendRows(sp.Table, rows)
	}
	if sp.Token == "" {
		rep, err := apply()
		return rep, false, err
	}
	for {
		e, owner := s.dedup.claim(sp.Token)
		if owner {
			rep, err := apply()
			s.dedup.finish(sp.Token, e, rep, err == nil)
			return rep, false, err
		}
		<-e.done
		if e.ok {
			return e.rep, true, nil
		}
	}
}

// healthzResponse is GET /healthz: a liveness summary. Status is "ok",
// "degraded" (quarantined files, blacklisted views, journal append
// errors, a saturated maintenance queue, a stuck ingest retry backlog,
// or a recovery that fell back to a cold start) or "draining".
type healthzResponse struct {
	Status    string `json:"status"`
	InFlight  int64  `json:"in_flight"`
	Queries   uint64 `json:"queries"`
	PoolBytes int64  `json:"pool_bytes"`
	PoolLimit int64  `json:"pool_limit"`
	// Quarantined is the most recent quarantined paths (bounded);
	// QuarantinedTotal counts every path ever quarantined.
	Quarantined      []string `json:"quarantined,omitempty"`
	QuarantinedTotal uint64   `json:"quarantined_total,omitempty"`
	Backoff          []string `json:"backoff,omitempty"`
	Blacklisted      []string `json:"blacklisted,omitempty"`
	// Journal durability summary (all zero without a datastore):
	// JournalAppendErrors > 0 or a non-empty RecoveryError degrades the
	// status — the server still answers queries, but state written since
	// the last good append would not survive a crash.
	JournalEnabled      bool   `json:"journal_enabled,omitempty"`
	JournalAppendErrors uint64 `json:"journal_append_errors,omitempty"`
	JournalLastSeq      uint64 `json:"journal_last_seq,omitempty"`
	RecoveryError       string `json:"recovery_error,omitempty"`
	// Background maintenance summary (absent in inline mode). A
	// saturated queue degrades the status: candidates are being dropped,
	// so the pool adapts slower than the workload demands.
	MaintEnabled    bool `json:"maint_enabled,omitempty"`
	MaintQueueDepth int  `json:"maint_queue_depth,omitempty"`
	MaintSaturated  bool `json:"maint_saturated,omitempty"`
	// Range ownership, present when the server runs as one shard of a
	// scatter-gather cluster: the owned partition-key range.
	RangeOwned bool  `json:"range_owned,omitempty"`
	OwnedLo    int64 `json:"owned_lo,omitempty"`
	OwnedHi    int64 `json:"owned_hi,omitempty"`
	// RangeRole is the replica role the last range assignment carried
	// ("primary" or "follower"; absent when standalone).
	RangeRole string `json:"range_role,omitempty"`
	// Ingest summary: appended batches and rows landed, incremental view
	// refreshes applied, and views currently stale awaiting a background
	// refresh (transient; stale views are never served).
	// IngestRetryBacklog > 0 degrades the status: those views are stuck
	// still-stale with no refresh scheduled — in inline mode only a
	// later append retries them, so an operator should notice.
	IngestAppends      uint64         `json:"ingest_appends,omitempty"`
	IngestRows         uint64         `json:"ingest_rows,omitempty"`
	IngestRefreshes    uint64         `json:"ingest_refreshes,omitempty"`
	IngestStaleViews   int            `json:"ingest_stale_views,omitempty"`
	IngestRetryBacklog int            `json:"ingest_retry_backlog,omitempty"`
	Admission          AdmissionStats `json:"admission"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.sys.Health()
	adm, _, _ := s.lim.snapshot()
	resp := healthzResponse{
		Status:              "ok",
		InFlight:            h.InFlight,
		Queries:             h.Queries,
		PoolBytes:           h.PoolBytes,
		PoolLimit:           h.PoolLimit,
		Quarantined:         h.Quarantined,
		QuarantinedTotal:    h.QuarantinedTotal,
		Backoff:             h.Backoff,
		Blacklisted:         h.Blacklisted,
		JournalEnabled:      h.JournalEnabled,
		JournalAppendErrors: h.JournalAppendErrors,
		JournalLastSeq:      h.JournalLastSeq,
		RecoveryError:       h.RecoveryError,
		MaintEnabled:        h.MaintEnabled,
		MaintQueueDepth:     h.MaintQueueDepth,
		MaintSaturated:      h.MaintSaturated,
		RangeOwned:          h.RangeOwned,
		OwnedLo:             h.OwnedLo,
		OwnedHi:             h.OwnedHi,
		RangeRole:           s.Role(),
		IngestAppends:       h.IngestAppends,
		IngestRows:          h.IngestAppendedRows,
		IngestRefreshes:     h.IngestRefreshes,
		IngestStaleViews:    h.IngestStaleViews,
		IngestRetryBacklog:  h.IngestRetryBacklog,
		Admission:           adm,
	}
	status := http.StatusOK
	if len(h.Quarantined) > 0 || len(h.Blacklisted) > 0 ||
		h.JournalAppendErrors > 0 || h.RecoveryError != "" || h.MaintSaturated ||
		h.IngestRetryBacklog > 0 {
		resp.Status = "degraded"
	}
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, resp)
}

// statzResponse is GET /statz: the full operational snapshot.
type statzResponse struct {
	Health    deepsea.Health `json:"health"`
	Admission AdmissionStats `json:"admission"`
	Serving   ServingStats   `json:"serving"`
	// InFlightSlots/QueueDepth are the limiter's instantaneous occupancy.
	InFlightSlots int `json:"in_flight_slots"`
	QueueDepth    int `json:"queue_depth"`
	// SnapshotTickErrors counts failed periodic checkpoints taken by the
	// SnapshotEvery ticker (store-level counters live in Health).
	SnapshotTickErrors uint64 `json:"snapshot_tick_errors,omitempty"`
	// CompletionRate is the recent slot-turnover rate (requests per
	// second over the drain-rate window); RetryAfterHint is the
	// Retry-After a shed response would carry right now.
	CompletionRate float64 `json:"completion_rate"`
	RetryAfterHint int     `json:"retry_after_hint"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	h := s.sys.Health()
	adm, inflight, depth := s.lim.snapshot()
	resp := statzResponse{
		Health:    h,
		Admission: adm,
		Serving: ServingStats{
			Served:        s.served.Load(),
			Failed:        s.failed.Load(),
			Shed:          s.shed.Load(),
			TimedOut:      s.timedOut.Load(),
			BadRequest:    s.badRequest.Load(),
			Appends:       s.appends.Load(),
			AppendBatches: s.appendBatches.Load(),
			AppendDedups:  s.appendDedups.Load(),
		},
		InFlightSlots:      inflight,
		QueueDepth:         depth,
		SnapshotTickErrors: s.snapErrs.Load(),
		CompletionRate:     s.completions.rate(time.Now()),
		RetryAfterHint:     s.retryAfter(),
	}
	WriteJSON(w, http.StatusOK, resp)
}

// poolzResponse is GET /poolz: the materialized pool's contents.
type poolzResponse struct {
	Bytes     int64    `json:"bytes"`
	Limit     int64    `json:"limit"`
	Views     int      `json:"views"`
	ViewFiles int      `json:"view_files"`
	Fragments int      `json:"fragments"`
	Contents  []string `json:"contents,omitempty"`
}

func (s *Server) handlePoolz(w http.ResponseWriter, r *http.Request) {
	h := s.sys.Health()
	WriteJSON(w, http.StatusOK, poolzResponse{
		Bytes:     h.PoolBytes,
		Limit:     h.PoolLimit,
		Views:     h.PoolViews,
		ViewFiles: h.PoolViewFiles,
		Fragments: h.PoolFragments,
		Contents:  s.sys.PoolContents(),
	})
}

// Replica roles a range assignment can carry. Base tables are static
// and fully replicated, so the roles do not gate reads — the primary is
// simply the coordinator's first-choice replica for the range.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// Role returns the replica role the last range assignment carried (""
// when the server is standalone or no assignment carried a role).
func (s *Server) Role() string {
	if v, ok := s.role.Load().(string); ok {
		return v
	}
	return ""
}

// RangeErrResponse is the 409 body for ownership violations. It names
// the range the shard owns.
type RangeErrResponse struct {
	Error   string `json:"error"`
	OwnedLo int64  `json:"owned_lo"`
	OwnedHi int64  `json:"owned_hi"`
}

// rangeConflict is a 409 body: what the request asked for, and the
// range the shard owns instead.
func rangeConflict(what string, or deepsea.OwnedRange) RangeErrResponse {
	return RangeErrResponse{Error: fmt.Sprintf("%s: shard owns [%d,%d]", what, or.Lo, or.Hi),
		OwnedLo: or.Lo, OwnedHi: or.Hi}
}

// checkOwnership enforces the shard's owned range against a query or an
// append whose partition keys span [lo, hi] when keyed (a
// replicated-dimension append is not). Standalone servers (no owned
// range) accept everything; a sharded server rejects keys outside its
// range with a 409 naming the range, since the caller routed the
// request to the wrong shard rather than sending a malformed one.
func (s *Server) checkOwnership(lo, hi int64, keyed bool) (RangeErrResponse, bool) {
	or, owned := s.sys.OwnedRange()
	if owned && keyed && (lo < or.Lo || hi > or.Hi) {
		return rangeConflict(fmt.Sprintf("keys [%d,%d] not owned", lo, hi), or), false
	}
	return RangeErrResponse{}, true
}

// rangeRequest is the JSON body of POST /admin/range: the range to own.
// Ownership is set once and lives in memory only: the first push sets
// it, a push of the same range is a 200 that may update the role, and a
// push of any other range is a 409 naming the owned range.
type rangeRequest struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// Role is the replica role this assignment carries ("primary" or
	// "follower"; empty keeps the current role). Informational — see
	// RolePrimary.
	Role string `json:"role,omitempty"`
}

// rangeResponse reports the owned range and role.
type rangeResponse struct {
	Lo   int64  `json:"lo"`
	Hi   int64  `json:"hi"`
	Role string `json:"role,omitempty"`
}

func (s *Server) handleAdminRange(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		or, owned := s.sys.OwnedRange()
		if !owned {
			WriteJSON(w, http.StatusOK, rangeResponse{Lo: 0, Hi: -1})
			return
		}
		WriteJSON(w, http.StatusOK, rangeResponse{Lo: or.Lo, Hi: or.Hi, Role: s.Role()})
		return
	case http.MethodPost:
	default:
		WriteJSON(w, http.StatusMethodNotAllowed, errResponse{Error: "GET or POST only"})
		return
	}
	var req rangeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteJSON(w, http.StatusBadRequest, errResponse{Error: "bad JSON: " + err.Error()})
		return
	}
	if req.Lo > req.Hi {
		WriteJSON(w, http.StatusBadRequest, errResponse{Error: "empty range"})
		return
	}
	or, ok := s.sys.SetOwnedRange(req.Lo, req.Hi)
	if !ok {
		WriteJSON(w, http.StatusConflict, rangeConflict(fmt.Sprintf("range [%d,%d] refused", req.Lo, req.Hi), or))
		return
	}
	if req.Role != "" {
		s.role.Store(req.Role)
	}
	WriteJSON(w, http.StatusOK, rangeResponse{Lo: or.Lo, Hi: or.Hi, Role: s.Role()})
}
