package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

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

// appendOnce routes one append batch through the current table: one
// part per group that owns rows of the batch, covering the group's
// whole range, fanned out under the write policy (appendGroup) and
// settled by the rule reads share — a failed group is a 502. refresh is
// true when the caller should refresh and retry once. landed
// accumulates, across attempts, the range keys of groups where at least
// one replica accepted its slice; a retry consults it to decide whether
// re-sending is provably safe.
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

	// A part's idempotency token scopes the batch token to its group's
	// range: identical ranges slice the batch identically, so a retried
	// send carries the same token and rows, and replicas that already
	// applied it answer from their dedup window instead of appending twice.
	var parts []part
	for gi, sh := range c.shards {
		if len(slices[gi]) == 0 {
			continue
		}
		body, err := json.Marshal(&ingest.Spec{Table: sp.Table, Rows: slices[gi], Epoch: sh.Epoch,
			Token: token + "@" + appendRangeKey(sh.Lo, sh.Hi)})
		if err != nil {
			return http.StatusInternalServerError, errResponse{Error: err.Error(), Token: token}, false
		}
		parts = append(parts, part{shard: gi, lo: sh.Lo, hi: sh.Hi, body: body})
	}
	replies := fanOut(ctx, parts, c.appendGroup)

	// Record every group that accepted rows — including groups that then
	// hit a conflict or a failed replica — before deciding the outcome,
	// so a retry (coordinator-internal or a client re-POST with the same
	// token) knows which ranges hold partial state.
	for i, r := range replies {
		if r.landed > 0 {
			landed[appendRangeKey(parts[i].lo, parts[i].hi)] = true
		}
	}
	if status, body, refresh := c.settle(parts, replies, http.StatusBadGateway, token); status != http.StatusOK {
		return status, body, refresh
	}
	resp := AppendResponse{Table: sp.Table, Rows: len(sp.Rows), Token: token, GroupsContacted: len(parts)}
	for _, r := range replies {
		resp.ReplicasAppended += r.landed
		resp.Deferred = resp.Deferred || r.deferred
	}
	return http.StatusOK, resp, false
}
