package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The wire plumbing both HTTP tiers share: the serving tier here and the
// coordinator in internal/shard answer with WriteJSON and ErrorResponse,
// and read every request body with ReadRequest.

// MaxBodyBytes caps every body either tier reads: a request body (413
// past it) and, on the coordinator, one replica's answer. It is far above
// any append batch or aggregate answer the workloads produce, and a
// ceiling on what one peer can make a process hold.
const MaxBodyBytes = 64 << 20

// ReadHeaderTimeout bounds how long an http.Server serving either tier
// waits for a request's headers, so a client that stalls them cannot
// hold a connection and its goroutine without limit. It does not bound
// the body; the serving tier bounds that with bodyReadTimeout.
const ReadHeaderTimeout = 10 * time.Second

// bodyReadTimeout bounds how long the serving tier reads one request
// body, counted from when the request takes its admission place: a body
// that stalls past it fails like any unreadable body (400) and gives the
// place back. 60 s carries a MaxBodyBytes body at about 1.1 MB/s. A
// variable only so tests can shorten it.
var bodyReadTimeout = 60 * time.Second

// ErrorResponse is the JSON body of every error answer on both tiers.
// Error is always set; the other fields name what failed, when known.
type ErrorResponse struct {
	Error string `json:"error"`
	// OwnedLo/OwnedHi name the range a shard owns, on its 409 for a
	// request outside it.
	OwnedLo *int64 `json:"owned_lo,omitempty"`
	OwnedHi *int64 `json:"owned_hi,omitempty"`
	// Shard, FailedLo and FailedHi name the coordinator's replica group
	// whose every replica failed and the slice of the range it serves, so
	// operators see which part of the domain is down.
	Shard    string `json:"shard,omitempty"`
	FailedLo *int64 `json:"failed_lo,omitempty"`
	FailedHi *int64 `json:"failed_hi,omitempty"`
	// Token is a failed coordinator append's idempotency key (the
	// client's, or one the coordinator generated). The batch may have
	// landed on some replicas; retrying it with this exact token lets the
	// serving tier deduplicate the slices that already applied.
	Token string `json:"token,omitempty"`
}

// WriteJSON writes v as the JSON body of a response with the given
// status (HTML escaping off: error strings and view ids go out as
// written).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError answers status with an ErrorResponse carrying msg.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: msg})
}

// ReadRequest is the one reader of request bodies: it answers 405 unless
// r is a POST, then hands decode the body capped at MaxBodyBytes and
// answers 413 when the body is longer (a declared length over the cap is
// refused unread), 400 when decode failed otherwise. It returns false
// once it has answered. The serving tier runs its two halves apart,
// checkRequest before admission and readBody after it.
func ReadRequest(w http.ResponseWriter, r *http.Request, decode func(io.Reader) error) bool {
	return checkRequest(w, r) && readBody(w, r, decode)
}

// checkRequest is what ReadRequest refuses without reading the body: a
// method other than POST (405) and a declared length over MaxBodyBytes
// (413).
func checkRequest(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if r.ContentLength > MaxBodyBytes {
		writeTooLarge(w)
		return false
	}
	return true
}

// readBody is the rest of ReadRequest: decode the body capped at
// MaxBodyBytes, 413 past the cap, 400 when decode failed otherwise.
func readBody(w http.ResponseWriter, r *http.Request, decode func(io.Reader) error) bool {
	err := decode(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeTooLarge(w)
		return false
	case err != nil:
		WriteError(w, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

func writeTooLarge(w http.ResponseWriter) {
	WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", MaxBodyBytes))
}

// JSONInto returns a ReadRequest decoder that decodes one JSON value
// into v.
func JSONInto(v any) func(io.Reader) error {
	return func(r io.Reader) error {
		if err := json.NewDecoder(r).Decode(v); err != nil {
			return fmt.Errorf("bad JSON: %w", err)
		}
		return nil
	}
}
