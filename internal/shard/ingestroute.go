package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"deepsea/internal/ingest"
	"deepsea/internal/server"
)

// AppendResponse is the coordinator's POST /append body: how the batch
// was routed. Rows landed exactly once per owning group — every replica
// of a group receives its slice, so any replica can keep answering the
// group's range.
type AppendResponse struct {
	Table string `json:"table"`
	Rows  int    `json:"rows"`
	// GroupsContacted is how many range groups received a slice of the
	// batch; ReplicasAppended the total replica-level appends landed
	// (dedup-confirmed replicas — slices a replica already applied under
	// the same token — count as landed; they hold the rows).
	GroupsContacted  int `json:"groups_contacted"`
	ReplicasAppended int `json:"replicas_appended"`
	// Deferred is true when some replica handed its view refreshes to
	// background maintenance instead of applying them inline.
	Deferred bool `json:"deferred,omitempty"`
	// Token is the batch's idempotency key: the client's Spec.Token, or
	// a coordinator-generated one. Retrying the batch with this token
	// cannot duplicate rows on replicas that already applied it.
	Token string `json:"token,omitempty"`
}

// handleAppend is the coordinator's POST /append: split the batch by
// routing key across the range groups that own each row, and forward
// each slice to every replica of its owning group (replicas hold
// independent copies, and any of them may answer the group's range).
// Tables without a configured routing key are replicated dimensions:
// the whole batch broadcasts to every group. A 409 from a shard that is
// ahead of the routing table triggers one routing refresh and retry
// (withRefresh, shared with the query path).
//
// Retries never duplicate rows: every replica-level send carries an
// idempotency token derived from the batch token and the slice's range,
// so replicas that applied a slice in an earlier attempt answer the
// retry from their dedup window instead of appending again. If the
// refreshed routing table re-ranges groups that already landed rows —
// the one case where the retry would re-slice landed rows differently —
// the coordinator refuses to retry and reports the token so the caller
// can retry safely once routing stabilizes.
func (c *Coordinator) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteJSON(w, http.StatusMethodNotAllowed, errResponse{Error: "POST only"})
		return
	}
	sp, err := ingest.DecodeSpec(r.Body)
	if err != nil {
		server.WriteJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
		return
	}
	token := sp.Token
	if token == "" {
		token = fmt.Sprintf("%s-%d", c.appendNonce, c.appendSeq.Add(1))
	}
	landed := make(map[string]bool)
	status, body := c.withRefresh(r.Context(), func() (int, any, bool) {
		return c.appendOnce(r.Context(), sp, token, landed)
	})
	if status == http.StatusOK {
		c.appendsRouted.Add(1)
		c.appendRows.Add(uint64(len(sp.Rows)))
	} else {
		c.failures.Add(1)
	}
	server.WriteJSON(w, status, body)
}

// appendRangeKey identifies a group's range for landed-slice tracking
// and per-slice idempotency tokens.
func appendRangeKey(lo, hi int64) string { return fmt.Sprintf("%d:%d", lo, hi) }

// appendOnce routes one append batch through the current table. refresh
// is true when a shard reported a newer epoch than the routing table —
// the caller should refresh and retry once. landed accumulates, across
// attempts, the range keys of groups where at least one replica
// accepted its slice; a retry consults it to decide whether re-sending
// is provably safe.
func (c *Coordinator) appendOnce(ctx context.Context, sp *ingest.Spec, token string, landed map[string]bool) (int, any, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.shards) == 0 {
		return http.StatusServiceUnavailable,
			errResponse{Error: "no routing table (cluster not initialized?)", Token: token}, false
	}

	// Retry-safety guard: rows from an earlier attempt already landed on
	// the groups in `landed`, keyed by range. Re-sending is safe only
	// because identical ranges re-slice the batch identically, so the
	// per-slice tokens match and the landed replicas deduplicate. If the
	// refreshed table moved any of those range boundaries, the retry
	// would scatter already-landed rows under different slices/tokens —
	// refuse rather than duplicate.
	if len(landed) > 0 {
		current := make(map[string]bool, len(c.shards))
		for _, sh := range c.shards {
			current[appendRangeKey(sh.Lo, sh.Hi)] = true
		}
		for rk := range landed {
			if !current[rk] {
				return http.StatusBadGateway, errResponse{
					Error: fmt.Sprintf("routing ranges changed under a partially applied append "+
						"(rows landed for range %s, which no longer exists): not retrying to avoid "+
						"duplication; retry the batch with the same token once routing stabilizes", rk),
					Token: token,
				}, false
			}
		}
	}

	// Slice the batch: keyed tables split by owning range (row order
	// within each slice preserved); keyless tables broadcast whole.
	slices := make([][][]any, len(c.shards))
	ki, keyed := c.cfg.KeyIndex[sp.Table]
	if keyed {
		for _, row := range sp.Rows {
			if ki < 0 || ki >= len(row) {
				return http.StatusBadRequest, errResponse{
					Error: fmt.Sprintf("table %s routing key index %d out of row width %d",
						sp.Table, ki, len(row))}, false
			}
			k, ok := row[ki].(int64)
			if !ok {
				return http.StatusBadRequest, errResponse{
					Error: fmt.Sprintf("table %s routing key must be an integer, got %T", sp.Table, row[ki])}, false
			}
			if k < c.cfg.DomainLo || k > c.cfg.DomainHi {
				return http.StatusBadRequest, errResponse{
					Error: fmt.Sprintf("routing key %d outside domain [%d,%d]",
						k, c.cfg.DomainLo, c.cfg.DomainHi)}, false
			}
			gi := -1
			for i, sh := range c.shards {
				if k >= sh.Lo && k <= sh.Hi {
					gi = i
					break
				}
			}
			if gi < 0 {
				return http.StatusServiceUnavailable, errResponse{
					Error: fmt.Sprintf("no shard owns key %d", k)}, false
			}
			slices[gi] = append(slices[gi], row)
		}
	} else {
		for gi := range c.shards {
			slices[gi] = sp.Rows
		}
	}

	type groupResult struct {
		replicas int
		deferred bool
		conflict *conflict409
		err      error
	}
	results := make([]groupResult, len(c.shards))
	var wg sync.WaitGroup
	for gi := range c.shards {
		if len(slices[gi]) == 0 {
			continue
		}
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			r := &results[gi]
			r.replicas, r.deferred, r.conflict, r.err =
				c.appendGroup(ctx, gi, sp.Table, token, slices[gi])
		}(gi)
	}
	wg.Wait()

	// Record every group that accepted rows — including groups that then
	// hit a conflict or a failed replica — before deciding the outcome,
	// so a retry (coordinator-internal or a client re-POST with the same
	// token) knows which ranges hold partial state.
	for gi, res := range results {
		if res.replicas > 0 {
			landed[appendRangeKey(c.shards[gi].Lo, c.shards[gi].Hi)] = true
		}
	}

	resp := AppendResponse{Table: sp.Table, Rows: len(sp.Rows), Token: token}
	for gi, res := range results {
		if res.conflict != nil && res.conflict.Epoch > c.shards[gi].Epoch {
			return http.StatusServiceUnavailable, errResponse{
				Error: fmt.Sprintf("routing table stale for group %s: replica reports epoch %d > table epoch %d (%s)",
					c.shards[gi].Addr, res.conflict.Epoch, c.shards[gi].Epoch, res.conflict.Msg),
				Shard: c.shards[gi].Addr,
				Token: token,
			}, true
		}
		if res.err != nil || res.conflict != nil {
			cause := res.err
			if cause == nil {
				cause = res.conflict
			}
			flo, fhi := c.shards[gi].Lo, c.shards[gi].Hi
			return http.StatusBadGateway, errResponse{
				Error: fmt.Sprintf("append to group %s (range [%d,%d]) failed: %v",
					c.shards[gi].Addr, flo, fhi, cause),
				Shard:    c.shards[gi].Addr,
				FailedLo: &flo,
				FailedHi: &fhi,
				Token:    token,
			}, false
		}
		if res.replicas > 0 {
			resp.GroupsContacted++
			resp.ReplicasAppended += res.replicas
			resp.Deferred = resp.Deferred || res.deferred
		}
	}
	return http.StatusOK, resp, false
}

// appendGroup lands one slice on every replica of one group. Appends
// are writes, not reads: a replica that misses the batch would serve
// stale rows if failover or a preferred-replica switch later routed the
// range to it, so all replicas must accept — there is no routing-around
// for ingest. A replica's 409 propagates for the epoch-refresh path.
//
// The slice's idempotency token scopes the batch token to this group's
// range: identical ranges slice the batch identically, so a retried
// send carries the same token and rows, and replicas that already
// applied it answer from their dedup window instead of appending twice.
func (c *Coordinator) appendGroup(ctx context.Context, gi int, table, token string, rows [][]any) (int, bool, *conflict409, error) {
	sub := ingest.Spec{
		Table: table,
		Rows:  rows,
		Epoch: c.shards[gi].Epoch,
		Token: token + "@" + appendRangeKey(c.shards[gi].Lo, c.shards[gi].Hi),
	}
	body, err := json.Marshal(&sub)
	if err != nil {
		return 0, false, nil, err
	}
	landed := 0
	deferred := false
	for _, addr := range c.shards[gi].Replicas {
		c.attempts.Add(1)
		def, conflict, err := c.doAppend(ctx, addr, body)
		if conflict != nil {
			return landed, deferred, conflict, nil
		}
		if err != nil {
			return landed, deferred, nil, fmt.Errorf("%s: %w", addr, err)
		}
		landed++
		deferred = deferred || def
	}
	return landed, deferred, nil, nil
}

// doAppend runs one replica-level POST /append.
func (c *Coordinator) doAppend(ctx context.Context, addr string, body []byte) (bool, *conflict409, error) {
	status, b, conflict, err := c.call(ctx, http.MethodPost, addr+"/append", body)
	if err != nil || conflict != nil {
		return false, conflict, err
	}
	if status != http.StatusOK {
		return false, nil, statusError(status, b)
	}
	var ar struct {
		Deferred bool `json:"deferred"`
	}
	if derr := json.Unmarshal(b, &ar); derr != nil {
		return false, nil, fmt.Errorf("decoding append response: %w", derr)
	}
	return ar.Deferred, nil, nil
}
