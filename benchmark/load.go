package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client sends pre-encoded ops to one base URL over a connection pool
// no larger than the sender count.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer // nil with tracing off
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &client{hc: &http.Client{Transport: t}, base: base, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one op and returns the status and body; a transport error
// reports status 0.
func (c *client) do(ctx context.Context, id int64, o *op) (int, []byte) {
	var start time.Time
	if c.tr != nil {
		c.tr.op.Store(id)
		start = time.Now()
	}
	status, body := c.post(ctx, o)
	if c.tr != nil {
		c.tr.record("client"+o.path, start, time.Now(), int64(len(body)))
	}
	return status, body
}

func (c *client) post(ctx context.Context, o *op) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, body
}

// answer is a read's response kept for the oracle.
type answer struct {
	op   *op
	body []byte
}

// phase is what one timed phase observed, over the whole phase: every
// answered read's latency, every acknowledged append's, and how far
// behind its due time the generator sent each open-loop op.
type phase struct {
	reads, appends, late hist
	attempted, failed    int
	acked                []*op // appends the system acknowledged, in no particular order
	answers              []answer
	errs                 []string // the first few failures, for the operator
	elapsed              time.Duration
}

func (p *phase) merge(o *phase) {
	p.reads.merge(&o.reads)
	p.appends.merge(&o.appends)
	p.late.merge(&o.late)
	p.attempted += o.attempted
	p.failed += o.failed
	p.acked = append(p.acked, o.acked...)
	p.answers = append(p.answers, o.answers...)
	p.errs = append(p.errs, o.errs...)
}

// sampleEvery is the oracle's sampling stride over read-only phases.
const sampleEvery = 8

// note records one completed op and its latency; keep asks for a
// read's answer to be kept for the oracle.
func (p *phase) note(o *op, status int, body []byte, lat time.Duration, keep bool) {
	p.attempted++
	if status != http.StatusOK {
		p.failed++
		if len(p.errs) < 3 {
			p.errs = append(p.errs, fmt.Sprintf("%s: status %d: %.200s", o.path, status, body))
		}
		return
	}
	if o.path == "/append" {
		p.appends.add(lat)
		p.acked = append(p.acked, o)
		return
	}
	p.reads.add(lat)
	if keep {
		p.answers = append(p.answers, answer{op: o, body: body})
	}
}

// readRate is answered reads per second over the phase.
func (p *phase) readRate() float64 { return float64(p.reads.n) / p.elapsed.Seconds() }

// runClosed is the closed loop: each of callers sends its next op when
// the previous answer arrives, until d has passed, ops run out or ctx is
// cancelled; d = 0 sends every op. firstID numbers the ops for the
// tracer; every sample-th read's answer is kept (0 keeps none).
func runClosed(ctx context.Context, c *client, ops []*op, callers int, d time.Duration, firstID int64, sample int) *phase {
	var next atomic.Int64
	parts := make([]phase, callers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				t0 := time.Now()
				if d > 0 && t0.Sub(start) >= d {
					return
				}
				status, body := c.do(ctx, firstID+i, ops[i])
				p.note(ops[i], status, body, time.Since(t0), sample > 0 && i%int64(sample) == 0)
			}
		}(&parts[i])
	}
	wg.Wait()
	total := &phase{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// timedOp is one op of an open-loop schedule, due at an offset from the
// phase's start.
type timedOp struct {
	due time.Duration
	op  *op
}

// pace spreads ops evenly at rate per second, the first one due one
// interval in.
func pace(ops []*op, rate float64) []timedOp {
	out := make([]timedOp, len(ops))
	for i, o := range ops {
		out[i] = timedOp{due: time.Duration(float64(i+1) / rate * float64(time.Second)), op: o}
	}
	return out
}

// runOpen is the open loop: ops are due on a fixed schedule whatever
// the system does. senders pull the next op, wait for its due time if
// it has not come, and send. Latency runs from the due time, not the
// send time, so a stall is charged to every op that waited behind it;
// how late each op was actually sent is reported as well.
func runOpen(ctx context.Context, c *client, sched []timedOp, senders int, firstID int64, sample int) *phase {
	var next atomic.Int64
	parts := make([]phase, senders)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(sched)) {
					return
				}
				due := start.Add(sched[i].due)
				sleepUntil(due)
				if ctx.Err() != nil {
					return
				}
				p.late.add(time.Since(due))
				status, body := c.do(ctx, firstID+i, sched[i].op)
				p.note(sched[i].op, status, body, time.Since(due), sample > 0 && i%int64(sample) == 0)
			}
		}(&parts[i])
	}
	wg.Wait()
	total := &phase{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}
