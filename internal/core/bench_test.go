package core

import (
	"fmt"
	"testing"
)

// Layer microbenchmark for the planning section — Algorithm 1 steps 1–7
// as a served query pays for them: take the manager lock, planLocked
// (the read snapshot, matching, statistics update, candidate generation,
// selection over the whole pool), release. ns/op and allocs/op are
// advisory; they are the baseline a cheaper selection will be held to.
//
//	go test -run '^$' -bench PlanSection -benchmem ./internal/core

// benchPlan is the measured call's result, kept so the call is not
// optimized away.
var benchPlan *plannedQuery

// BenchmarkPlanSection plans range queries against one materialized
// join view cut into exactly 10 / 100 / 1000 pool fragments (an
// equi-depth view: the fragment count is the configuration's, not the
// workload's). The 64 ranges repeat, each 5% of the key domain at a
// different offset, so after the warm-up pass the statistics records
// exist and only their use and hit lists grow.
func BenchmarkPlanSection(b *testing.B) {
	for _, frags := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("frags=%d", frags), func(b *testing.B) {
			cfg := testConfig()
			cfg.Partition = PartitionEquiDepth
			cfg.EquiDepthK = frags
			d := New(cfg)
			addTestTables(d)
			if _, err := d.ProcessQuery(q30(1000, 1499)); err != nil {
				b.Fatal(err)
			}
			if got := d.Pool.Occupancy().Fragments; got != frags {
				b.Fatalf("pool holds %d fragments, want %d", got, frags)
			}
			const ranges, width = 64, (testDomHi + 1) / 20
			plan := func(i int) {
				lo := int64(i%ranges) * (testDomHi + 1 - width) / (ranges - 1)
				d.mu.Lock()
				pq, err := d.planLocked(q30(lo, lo+width-1), nil)
				d.mu.Unlock()
				if err != nil {
					b.Fatal(err)
				}
				benchPlan = pq
			}
			for i := 0; i < ranges; i++ {
				plan(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan(i)
			}
		})
	}
}
