// Package ingest is the wire layer of the batched append path: the
// JSON spec of POST /append on the serving and shard tiers, the value
// normalization that turns decoded JSON rows into the typed values the
// engine accepts, and the JSONL append-stream format deepsea-gen emits
// (one spec per line, each line one POST /append body).
//
// The package is deliberately engine-agnostic — it knows nothing about
// views, journals or refresh; everything here is encoding.
package ingest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Spec is the JSON body of POST /append: a batch of new rows for one
// base table.
//
//	{"table": "store_sales", "rows": [[17, 3, 12.5, "pad"], ...]}
//
// Row values align with the table's columns in order.
//
// Token, when nonempty, is the batch's idempotency key: a serving tier
// remembers recently applied tokens and answers a repeated token with
// the remembered result instead of appending the rows again, so a
// retry after a partial failure (a client retrying a 502 whose batch
// landed on some replicas) cannot duplicate rows. The window is bounded
// and in-memory — idempotence holds within a serving process's
// lifetime, not across its restarts.
type Spec struct {
	Table string  `json:"table"`
	Rows  [][]any `json:"rows"`
	Token string  `json:"token,omitempty"`
}

// Validate checks the structural invariants a handler should 400 on.
func (sp *Spec) Validate() error {
	if sp.Table == "" {
		return fmt.Errorf("ingest: append needs a table")
	}
	if len(sp.Rows) == 0 {
		return fmt.Errorf("ingest: append needs rows")
	}
	width := len(sp.Rows[0])
	for i, r := range sp.Rows {
		if len(r) != width {
			return fmt.Errorf("ingest: row %d has %d values, row 0 has %d", i, len(r), width)
		}
	}
	return nil
}

// Normalize converts decoded-JSON row values in place into the typed
// values the append path accepts: json.Number becomes int64 when
// integral and float64 otherwise, float64 stays, and integral float64
// (a plain json.Unmarshal without UseNumber) converts to int64 so int
// columns round-trip. Strings pass through; anything else errors.
//
// Integral means a whole number in int64's range however it is written
// ("3", "3.0", "3e0", "-0.0"), because Go encodes such a float64 as a
// bare integer: the coordinator re-encodes a decoded spec for its
// replicas, and they must decode the values it decoded.
func Normalize(rows [][]any) error {
	for i, row := range rows {
		for j, v := range row {
			switch x := v.(type) {
			case json.Number:
				if n, err := x.Int64(); err == nil {
					rows[i][j] = n
					continue
				}
				f, err := x.Float64()
				if err != nil {
					return fmt.Errorf("ingest: row %d col %d: bad number %q", i, j, x.String())
				}
				rows[i][j] = integral(f)
			case float64:
				rows[i][j] = integral(x)
			case int64, int, string:
				// already typed
			default:
				return fmt.Errorf("ingest: row %d col %d: unsupported value type %T", i, j, v)
			}
		}
	}
	return nil
}

// integral returns f as an int64 when it is a whole number in int64's
// range, and f otherwise.
func integral(f float64) any {
	if f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
		return int64(f)
	}
	return f
}

// DecodeSpec decodes one append spec, preserving number fidelity
// (UseNumber) and normalizing the rows.
func DecodeSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("ingest: decode append spec: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if err := Normalize(sp.Rows); err != nil {
		return nil, err
	}
	return &sp, nil
}

// ItemRange returns the [min, max] range of the routing-key column
// among the batch's rows, for shard scatter. ki is the column index of
// the partition key; ok is false if any row's key is not an integer.
func (sp *Spec) ItemRange(ki int) (lo, hi int64, ok bool) {
	if ki < 0 || len(sp.Rows) == 0 {
		return 0, 0, false
	}
	for i, row := range sp.Rows {
		if ki >= len(row) {
			return 0, 0, false
		}
		k, kok := row[ki].(int64)
		if !kok {
			return 0, 0, false
		}
		if i == 0 || k < lo {
			lo = k
		}
		if i == 0 || k > hi {
			hi = k
		}
	}
	return lo, hi, true
}

// WriteStream encodes specs as JSONL, one per line.
func WriteStream(w io.Writer, specs []*Spec) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range specs {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("ingest: write stream: %w", err)
		}
	}
	return bw.Flush()
}
