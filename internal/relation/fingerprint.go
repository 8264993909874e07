package relation

import (
	"crypto/sha256"
	"fmt"
	"sort"
)

// Fingerprint returns an order-independent digest of the table's rows.
// Two tables with the same multiset of rows produce equal fingerprints
// regardless of row order. Tests use it to check that rewritten plans
// (views, fragment covers, remainder unions) return exactly the rows of
// the original plan.
func (t *Table) Fingerprint() string {
	keys := make([]string, len(t.Rows))
	var buf []byte
	for i, r := range t.Rows {
		buf = buf[:0]
		for j, v := range r {
			buf = AppendKey(buf, t.Schema.Cols[j].Type, v)
		}
		keys[i] = string(buf)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
