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
// the whole batch broadcasts to every group. A failed group is a 502
// naming its range, by the outcome rule reads share (settle).
//
// Retries never duplicate rows: every replica-level send carries an
// idempotency token derived from the batch token and the group's range.
// The ranges never change, so a retried batch is sliced identically and
// carries the same tokens, and replicas that applied a slice in an
// earlier attempt answer the retry from their dedup window instead of
// appending again.
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
	status, body := c.routeAppend(r.Context(), sp, token)
	if status == http.StatusOK {
		c.appendsRouted.Add(1)
		c.appendRows.Add(uint64(len(sp.Rows)))
	} else {
		c.failures.Add(1)
	}
	server.WriteJSON(w, status, body)
}

// routeAppend routes one append batch: one part per group that owns
// rows of the batch, covering the group's whole range, fanned out under
// the write policy (appendGroup) and settled by the rule reads share.
func (c *Coordinator) routeAppend(ctx context.Context, sp *ingest.Spec, token string) (int, any) {
	// Slice the batch: keyed tables split by owning range (row order
	// within each slice preserved); keyless tables broadcast whole.
	slices := make([][][]any, len(c.shards))
	ki, keyed := c.cfg.KeyIndex[sp.Table]
	if keyed {
		for _, row := range sp.Rows {
			if ki < 0 || ki >= len(row) {
				return http.StatusBadRequest, errResponse{
					Error: fmt.Sprintf("table %s routing key index %d out of row width %d",
						sp.Table, ki, len(row))}
			}
			k, ok := row[ki].(int64)
			if !ok {
				return http.StatusBadRequest, errResponse{
					Error: fmt.Sprintf("table %s routing key must be an integer, got %T", sp.Table, row[ki])}
			}
			if k < c.cfg.DomainLo || k > c.cfg.DomainHi {
				return http.StatusBadRequest, errResponse{
					Error: fmt.Sprintf("routing key %d outside domain [%d,%d]",
						k, c.cfg.DomainLo, c.cfg.DomainHi)}
			}
			gi := 0 // the ranges tile the domain: the first whose Hi ≥ k owns k
			for k > c.shards[gi].Hi {
				gi++
			}
			slices[gi] = append(slices[gi], row)
		}
	} else {
		for gi := range c.shards {
			slices[gi] = sp.Rows
		}
	}

	// A part's idempotency token scopes the batch token to its group's
	// range, so each replica dedups the slice it holds.
	var parts []part
	for gi, sh := range c.shards {
		if len(slices[gi]) == 0 {
			continue
		}
		body, err := json.Marshal(&ingest.Spec{Table: sp.Table, Rows: slices[gi],
			Token: fmt.Sprintf("%s@%d:%d", token, sh.Lo, sh.Hi)})
		if err != nil {
			return http.StatusInternalServerError, errResponse{Error: err.Error(), Token: token}
		}
		parts = append(parts, part{shard: gi, lo: sh.Lo, hi: sh.Hi, body: body})
	}
	replies := fanOut(ctx, parts, c.appendGroup)
	if status, body := c.settle(parts, replies, http.StatusBadGateway, token); status != http.StatusOK {
		return status, body
	}
	resp := AppendResponse{Table: sp.Table, Rows: len(sp.Rows), Token: token, GroupsContacted: len(parts)}
	for _, r := range replies {
		resp.ReplicasAppended += r.landed
		resp.Deferred = resp.Deferred || r.deferred
	}
	return http.StatusOK, resp
}
