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
//	GET  /statz   — the status document: verdict, health, admission, serving
//	GET  /healthz — the same document, 503 while draining
//	GET  /poolz   — materialized-pool contents
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
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
	// MaxInFlight + MaxQueue requests already inside (reading their
	// bodies, queued or executing) is shed unread (default 4 ×
	// MaxInFlight).
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
	// shedRetryAfter is the Retry-After, in seconds, of a shed response.
	// It is a constant: the coordinator fails over on a 429 instead of
	// waiting, so no client reads an estimate of the drain rate.
	shedRetryAfter = "1"
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

	// owned is the partition-key range this server owns as one shard of
	// a scatter-gather cluster (nil when standalone). POST /admin/range
	// sets it once; checkOwnership reads it on every request.
	owned atomic.Pointer[keyRange]

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

func (s *Server) writeShed(w http.ResponseWriter) {
	s.shed.Add(1)
	w.Header().Set("Retry-After", shedRetryAfter)
	WriteError(w, http.StatusTooManyRequests, ErrShed.Error())
}

// guarded is the guard chain POST /query and POST /append share. In
// order: the drain handshake; the checks that need no body (405, or 413
// for a declared length over the cap — each counted as a bad request);
// the request's place in admission, taken before its body is read so
// MaxInFlight + MaxQueue bound the bodies held in memory, not only the
// executions (with every place taken the request is shed unread); the
// body reader (413 or 400, also for a body that stalls past
// bodyReadTimeout) with decode; prepare, which validates the
// decoded request, writes its own 4xx and returns false to stop, or
// returns the request's time budget; the deadline context; the wait for
// a slot, which only a decoded request takes, so a slow body holds a
// place but never a slot. run executes holding one admission slot.
func (s *Server) guarded(w http.ResponseWriter, r *http.Request, decode func(io.Reader) error,
	prepare func() (timeout time.Duration, ok bool), run func(ctx context.Context)) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	s.reqWG.Add(1)
	defer s.reqWG.Done()
	// Re-check under the WaitGroup: a drain that started before the Add
	// observes either the flag refusing us or the Add it must wait for.
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}

	if !checkRequest(w, r) {
		s.badRequest.Add(1)
		return
	}
	// Queries and appends share the limiter: under overload both shed, so
	// an append burst cannot starve reads of slots (nor the reverse).
	if err := s.lim.enter(); err != nil {
		s.writeShed(w)
		return
	}
	// The deadline covers the body read only: left armed, it would fail
	// the connection's background read mid-run and cancel r.Context().
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	read := readBody(w, r, decode)
	_ = rc.SetReadDeadline(time.Time{})
	if !read {
		s.lim.leave()
		s.badRequest.Add(1)
		return
	}
	timeout, ok := prepare()
	if !ok {
		s.lim.leave()
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

	if err := s.lim.wait(ctx); err != nil {
		switch {
		case errors.Is(err, ErrShed):
			s.writeShed(w)
		case errors.Is(err, context.DeadlineExceeded):
			s.timedOut.Add(1)
			WriteError(w, http.StatusGatewayTimeout, "deadline exceeded in queue")
		default: // client went away
			s.failed.Add(1)
			WriteError(w, http.StatusServiceUnavailable, err.Error())
		}
		return
	}
	defer s.lim.release()

	run(ctx)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var spec QuerySpec
	var q *deepsea.Query
	s.guarded(w, r, JSONInto(&spec), func() (time.Duration, bool) {
		lo, hi, keyed := spec.ItemRange()
		if !s.checkOwnership(w, lo, hi, keyed) {
			return 0, false
		}
		var err error
		if q, err = spec.build(); err == nil {
			// Building the template key resolves every table the query
			// scans and every column it names, with the type its
			// operator reads: a malformed query is a client error,
			// caught here before it waits for a slot and before
			// planning.
			_, err = s.sys.TemplateKey(q)
		}
		if err != nil {
			s.badRequest.Add(1)
			WriteError(w, http.StatusBadRequest, err.Error())
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
				WriteError(w, http.StatusGatewayTimeout, "deadline exceeded")
			case errors.Is(err, context.Canceled):
				s.failed.Add(1)
				WriteError(w, http.StatusServiceUnavailable, err.Error())
			default:
				s.failed.Add(1)
				WriteError(w, http.StatusInternalServerError, err.Error())
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
// against the table schema before it waits for a slot (so bad rows 400
// and give their admission place back without executing), and lands
// the converted rows on its own goroutine inside its admission slot —
// journaled, dependent views refreshed incrementally.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var sp *ingest.Spec
	var rows []relation.Row
	decode := func(body io.Reader) (err error) {
		sp, err = ingest.DecodeSpec(body)
		return err
	}
	s.guarded(w, r, decode, func() (time.Duration, bool) {
		lo, hi, keyed := sp.ItemRange(s.sys.RoutingKeyIndex(sp.Table))
		if !s.checkOwnership(w, lo, hi, keyed) {
			return 0, false
		}
		var err error
		if rows, err = s.sys.ConvertRows(sp.Table, sp.Rows); err != nil {
			s.badRequest.Add(1)
			WriteError(w, http.StatusBadRequest, err.Error())
			return 0, false
		}
		return defaultTimeout, true
	}, func(context.Context) {
		rep, deduped, err := s.landAppend(sp, rows)
		if err != nil {
			// Rows were converted before the slot was granted, so a failure
			// here is a server-side journal or refresh error, not the
			// request's fault.
			s.failed.Add(1)
			WriteError(w, http.StatusInternalServerError, err.Error())
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

// statusResponse is the one status document: GET /statz serves it with
// 200, and GET /healthz with its verdict's code — 503 while draining, 200
// otherwise (degraded is alive).
type statusResponse struct {
	// Status is the verdict: "ok", "degraded" or "draining" (see verdict).
	Status string `json:"status"`
	// Range is the partition-key range the server owns (absent when
	// standalone).
	Range     *keyRange      `json:"range,omitempty"`
	Health    deepsea.Health `json:"health"`
	Admission AdmissionStats `json:"admission"`
	Serving   ServingStats   `json:"serving"`
	// InFlightSlots/QueueDepth are the limiter's instantaneous occupancy.
	InFlightSlots int `json:"in_flight_slots"`
	QueueDepth    int `json:"queue_depth"`
	// SnapshotTickErrors counts failed periodic checkpoints taken by the
	// SnapshotEvery ticker (store-level counters live in Health).
	SnapshotTickErrors uint64 `json:"snapshot_tick_errors,omitempty"`
}

// status builds the status document.
func (s *Server) status() statusResponse {
	h := s.sys.Health()
	adm, inflight, depth := s.lim.snapshot()
	return statusResponse{
		Status:    verdict(h, s.draining.Load()),
		Range:     s.owned.Load(),
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
	}
}

// verdict is the status a health snapshot earns. "draining" once a drain
// began. "degraded" while the server still answers but an operator should
// look: quarantined files, blacklisted views, failed journal appends (state
// written since would not survive a crash), a recovery that fell back to a
// cold start, a saturated maintenance queue (candidates are dropped, so the
// pool adapts slower than the workload demands), or views stuck stale with
// no refresh scheduled. "ok" otherwise.
func verdict(h deepsea.Health, draining bool) string {
	switch {
	case draining:
		return "draining"
	case len(h.Quarantined) > 0 || len(h.Blacklisted) > 0 || h.JournalAppendErrors > 0 ||
		h.RecoveryError != "" || h.MaintSaturated || h.IngestRetryBacklog > 0:
		return "degraded"
	}
	return "ok"
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := s.status()
	code := http.StatusOK
	if doc.Status == "draining" {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, doc)
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

// writeRangeConflict answers 409: what the request asked for, and the
// range the shard owns instead.
func writeRangeConflict(w http.ResponseWriter, what string, or *keyRange) {
	WriteJSON(w, http.StatusConflict, ErrorResponse{
		Error:   fmt.Sprintf("%s: shard owns [%d,%d]", what, or.Lo, or.Hi),
		OwnedLo: &or.Lo, OwnedHi: &or.Hi})
}

// checkOwnership enforces the shard's owned range against a query or an
// append whose partition keys span [lo, hi] when keyed (a
// replicated-dimension append is not). Standalone servers (no owned
// range) accept everything; a sharded server rejects keys outside its
// range with a 409 naming the range, since the caller routed the
// request to the wrong shard rather than sending a malformed one. It
// returns false once it has answered.
func (s *Server) checkOwnership(w http.ResponseWriter, lo, hi int64, keyed bool) bool {
	or := s.owned.Load()
	if or != nil && keyed && (lo < or.Lo || hi > or.Hi) {
		writeRangeConflict(w, fmt.Sprintf("keys [%d,%d] not owned", lo, hi), or)
		return false
	}
	return true
}

// keyRange is a partition-key range [Lo, Hi]: the body of POST
// /admin/range (the range to own), its answer and GET's (the range
// owned; [0,-1] when standalone), and the status document's range.
// Ownership is set once and lives in memory only: the first push sets
// it, a push of the same range is a 200, and a push of any other range
// is a 409 naming the owned range. The range does not restrict what the
// System stores — every shard holds the full base tables — only which
// keys this server answers for.
type keyRange struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

func (s *Server) handleAdminRange(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		or := s.owned.Load()
		if or == nil {
			or = &keyRange{Lo: 0, Hi: -1}
		}
		WriteJSON(w, http.StatusOK, or)
		return
	}
	var req keyRange
	if !ReadRequest(w, r, JSONInto(&req)) {
		return
	}
	if req.Lo > req.Hi {
		WriteError(w, http.StatusBadRequest, "empty range")
		return
	}
	s.owned.CompareAndSwap(nil, &req)
	or := s.owned.Load()
	if *or != req {
		writeRangeConflict(w, fmt.Sprintf("range [%d,%d] refused", req.Lo, req.Hi), or)
		return
	}
	WriteJSON(w, http.StatusOK, or)
}
