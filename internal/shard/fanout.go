package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"deepsea/internal/server"
)

// Every coordinator request, read or write, takes one path: it is cut
// into parts, one per owning group; fanOut sends the parts concurrently,
// each under its group's policy; settle turns the replies into the
// client's answer. A read's policy walks the group's replicas until one
// answers (queryRange); a write's lands on every replica in order
// (appendGroup). Both make their per-replica POST through exchange.

// part is one group's share of a coordinator request: the group's index
// in the routing table, the [lo, hi] slice of the key domain the part
// covers, and the body the group's replicas receive.
type part struct {
	shard  int
	lo, hi int64
	body   []byte
}

// reply is one part's outcome under its group's policy.
type reply struct {
	wire      *wireResponse // read: the answering replica's response
	failovers int           // read: retries on another replica
	landed    int           // write: replicas that accepted the part
	deferred  bool          // write: some replica deferred its view refreshes
	err       error
}

// fanOut runs send for every part concurrently and returns the replies
// in part order.
func fanOut(ctx context.Context, parts []part, send func(context.Context, part) reply) []reply {
	replies := make([]reply, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = send(ctx, p)
		}()
	}
	wg.Wait()
	return replies
}

// settle is the one outcome rule. A failed part fails the request with
// failStatus, naming the first such part's group and range; every part
// succeeding is http.StatusOK with a nil body. token, when set, rides on
// the error body.
func (c *Coordinator) settle(parts []part, replies []reply, failStatus int, token string) (int, any) {
	for i, r := range replies {
		if r.err == nil {
			continue
		}
		p := parts[i]
		primary := c.shards[p.shard].Replicas[0]
		return failStatus, server.ErrorResponse{
			Error: fmt.Sprintf("replica group %s serving range [%d,%d] failed: %v", primary, p.lo, p.hi, r.err),
			Shard: primary, FailedLo: &p.lo, FailedHi: &p.hi, Token: token,
		}
	}
	return http.StatusOK, nil
}

// errRefused marks a replica's refusal of the request itself — a 4xx
// other than 409 and 429 — which every sibling would repeat. Every
// other failed exchange is the replica's own fault: worth failing over.
var errRefused = errors.New("request refused")

// exchange POSTs a part's body to one replica's path (/query or
// /append) and classifies the answer: the 200 body, or an error naming
// the replica, wrapping errRefused when no sibling would answer
// differently. A 409 means the replica owns some other range than its
// group's (someone else assigned it one), so it counts as the replica's
// own fault, like a 5xx.
func (c *Coordinator) exchange(ctx context.Context, addr, path string, body []byte) ([]byte, error) {
	c.attempts.Add(1)
	status, b, err := c.call(ctx, http.MethodPost, addr+path, body)
	switch {
	case err != nil:
		return nil, fmt.Errorf("%s: %w", addr, err)
	case status == http.StatusOK:
		return b, nil
	case status >= 500 || status == http.StatusTooManyRequests || status == http.StatusConflict:
		// Broken, overloaded, shedding or misassigned: a sibling may answer.
		return nil, fmt.Errorf("%s: %w", addr, statusError(status, b))
	}
	return nil, fmt.Errorf("%s: %w: %w", addr, errRefused, statusError(status, b))
}

// queryRange is a read part's policy: the owning group's replicas in
// preference order — the preferred replica first, then the rest in
// declared order — each tried once. A connection error, timeout, 5xx,
// 409, 429 or undecodable answer moves on to the next replica; a
// refusal every sibling would repeat, or a cancelled caller, ends the
// walk.
func (c *Coordinator) queryRange(ctx context.Context, p part) reply {
	replicas := c.shards[p.shard].Replicas
	addrs := append([]string(nil), replicas...)
	if pi := int(c.preferred[p.shard].Load()); pi > 0 && pi < len(addrs) {
		addrs[0], addrs[pi] = addrs[pi], addrs[0]
	}
	var lastErr error
	for attempt, addr := range addrs {
		if attempt > 0 {
			c.failovers.Add(1)
		}
		b, err := c.exchange(ctx, addr, "/query", p.body)
		if err == nil {
			var wire wireResponse
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.UseNumber()
			if err = dec.Decode(&wire); err == nil {
				c.notePreferred(p.shard, replicas, addr)
				return reply{wire: &wire, failovers: attempt}
			}
			err = fmt.Errorf("%s: decoding response: %w", addr, err)
		}
		if errors.Is(err, errRefused) || errors.Is(err, context.Canceled) {
			return reply{failovers: attempt, err: err}
		}
		lastErr = err
	}
	return reply{failovers: len(addrs) - 1,
		err: fmt.Errorf("range [%d,%d]: %d replica attempts failed, last: %w", p.lo, p.hi, len(addrs), lastErr)}
}

// notePreferred records the replica that answered, so subsequent
// queries for the group go straight to a known-healthy replica instead
// of re-discovering a dead primary with a failed attempt each.
func (c *Coordinator) notePreferred(gi int, replicas []string, addr string) {
	for i, a := range replicas {
		if a == addr {
			c.preferred[gi].Store(int32(i))
			return
		}
	}
}

// appendGroup is a write part's policy: the part lands on every replica
// of its group, one after another. Appends are writes, not reads: a
// replica that misses the batch would serve stale rows if failover or a
// preferred-replica switch later routed the range to it, so there is no
// routing around a failed replica. Sends stay sequential: sending to a
// group's replicas at once measured no faster (DESIGN.md §13).
func (c *Coordinator) appendGroup(ctx context.Context, p part) reply {
	var r reply
	for _, addr := range c.shards[p.shard].Replicas {
		b, err := c.exchange(ctx, addr, "/append", p.body)
		if err != nil {
			r.err = err
			return r
		}
		r.landed++
		var ar server.AppendResponse
		if err := json.Unmarshal(b, &ar); err != nil {
			r.err = fmt.Errorf("%s: decoding append response: %w", addr, err)
			return r
		}
		r.deferred = r.deferred || ar.Deferred
	}
	return r
}
