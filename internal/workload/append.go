package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"deepsea/internal/relation"
)

// KeyIndexes maps each table that carries the shard-routing key — an
// ordered integer column named *item_sk, the same rule the serving
// tier's ownership check applies — to that column's index. Tables
// absent from the map (customer, store) have no routing key; they are
// fully replicated, and a coordinator broadcasts their appends to
// every range group. The map is schema-derived, so it is identical at
// every instance size and seed.
func (d *Data) KeyIndexes() map[string]int {
	m := make(map[string]int)
	for name, t := range d.Tables {
		for i, c := range t.Schema.Cols {
			if c.Ordered && c.Type == relation.Int && strings.HasSuffix(c.Name, "item_sk") {
				m[name] = i
				break
			}
		}
	}
	return m
}

// AppendRows generates n held-out rows for one of the fact tables —
// rows drawn from the same distributions as Generate but from an
// independent stream, so they model fresh arrivals rather than replays
// of loaded data. Values use the public-API kinds (int64 / float64 /
// string), ready for System.Append, ingest.Spec.Rows, or the JSONL
// append stream.
func (d *Data) AppendRows(table string, n int, seed int64, sampler Sampler) [][]any {
	if sampler == nil {
		sampler = UniformSampler
	}
	// Offset the seed space so an append stream never replays the base
	// generator's draws even under the same user seed.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed1e57))
	nItem := len(d.ItemKeys)
	nCust := d.Tables["customer"].NumRows()
	nStore := d.Tables["store"].NumRows()
	rows := make([][]any, 0, n)
	for i := 0; i < n; i++ {
		switch table {
		case "store_sales":
			rows = append(rows, []any{
				d.ItemKeys[sampler(rng, nItem)],
				int64(rng.Intn(nCust)),
				int64(rng.Intn(nStore)),
				int64(rng.Intn(20) + 1),
				float64(rng.Intn(50000)) / 100,
				int64(rng.Intn(3651)),
				"",
			})
		case "web_clickstream":
			rows = append(rows, []any{
				d.ItemKeys[sampler(rng, nItem)],
				int64(rng.Intn(nCust)),
				int64(rng.Intn(3651)),
				"",
			})
		case "product_reviews":
			rows = append(rows, []any{
				d.ItemKeys[sampler(rng, nItem)],
				int64(rng.Intn(nCust)),
				float64(rng.Intn(41))/10 + 1,
				"",
			})
		default:
			panic(fmt.Sprintf("workload: no append generator for table %q", table))
		}
	}
	return rows
}

// TraceAppend is one append batch of a mixed read/write trace.
type TraceAppend struct {
	Table string
	Rows  [][]any
}

// AppendTrace generates a stream of append batches for one fact table:
// batches held-out rows of rowsPer rows each. The ingest-only workload
// for refresh-cost experiments and the deepsea-gen append stream.
func AppendTrace(d *Data, table string, batches, rowsPer int, seed int64) []TraceAppend {
	out := make([]TraceAppend, batches)
	for i := range out {
		out[i] = TraceAppend{Table: table, Rows: d.AppendRows(table, rowsPer, seed+int64(i), nil)}
	}
	return out
}
