package server

import (
	"sync"

	"deepsea"
)

// appendDedup makes POST /append idempotent per Spec.Token: the first
// request carrying a token applies its batch and remembers the result;
// a repeated token returns the remembered result without appending the
// rows again. This is what makes retries safe after partial failures:
// the coordinator lands a group's slice on its replicas one after
// another and answers 502 with the batch's token when one fails, so a
// client retrying that 502 re-sends a batch some replicas already hold
// — without it every such retry silently duplicates base-table rows.
//
// Scope: best-effort within one serving process. The window is bounded
// (oldest completed tokens evicted) and in-memory — after a restart the
// journal replay restores the rows but not the tokens, so a retry that
// straddles a server restart is not deduplicated.
type appendDedup struct {
	mu sync.Mutex
	// entries holds in-flight and completed tokens; order is the FIFO of
	// completed tokens, for eviction.
	entries map[string]*dedupEntry
	order   []string
	window  int
}

// dedupEntry is one token's outcome. done closes when the owning
// request finishes; ok is true when its batch applied (an entry that
// finished !ok is removed from the map before done closes, so waiters
// retry as fresh owners — their request carries the same rows).
type dedupEntry struct {
	done chan struct{}
	rep  deepsea.AppendReport
	ok   bool
}

func newAppendDedup(window int) *appendDedup {
	return &appendDedup{entries: make(map[string]*dedupEntry), window: window}
}

// claim registers the token if unseen. owner true means the caller must
// apply the batch and call finish; false means another request owns (or
// owned) the token — wait on entry.done and read rep/ok.
func (dd *appendDedup) claim(token string) (e *dedupEntry, owner bool) {
	dd.mu.Lock()
	defer dd.mu.Unlock()
	if e := dd.entries[token]; e != nil {
		return e, false
	}
	e = &dedupEntry{done: make(chan struct{})}
	dd.entries[token] = e
	return e, true
}

// finish publishes the owning request's outcome. A failed apply
// releases the token (the batch did not land, so a retry must re-apply);
// a successful one is remembered until the window evicts it.
func (dd *appendDedup) finish(token string, e *dedupEntry, rep deepsea.AppendReport, ok bool) {
	dd.mu.Lock()
	if !ok {
		delete(dd.entries, token)
	} else {
		e.rep, e.ok = rep, true
		dd.order = append(dd.order, token)
		for len(dd.order) > dd.window {
			delete(dd.entries, dd.order[0])
			dd.order = dd.order[1:]
		}
	}
	dd.mu.Unlock()
	close(e.done)
}
