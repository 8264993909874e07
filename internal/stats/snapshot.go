package stats

import (
	"sort"

	"deepsea/internal/interval"
)

// The snapshot types mirror the registry's records with only exported,
// JSON-serializable state. Derived structures (the prefix sums) are
// rebuilt on restore by replaying the recorded uses and hits through the
// normal mutators, so a restored registry is indistinguishable from one
// that lived through the history.

// ViewSnap is one ViewStat's durable state.
type ViewSnap struct {
	ID       string `json:"id"`
	Size     int64  `json:"size,omitempty"`
	Cost     float64 `json:"cost,omitempty"`
	Measured bool   `json:"measured,omitempty"`
	Uses     []Use  `json:"uses,omitempty"`
}

// FragSnap is one FragStat's durable state.
type FragSnap struct {
	Iv       interval.Interval `json:"iv"`
	Size     int64             `json:"size,omitempty"`
	Measured bool              `json:"measured,omitempty"`
	Hits     []float64         `json:"hits,omitempty"`
}

// PartSnap is one PartitionStat's durable state.
type PartSnap struct {
	View  string            `json:"view"`
	Attr  string            `json:"attr"`
	Dom   interval.Interval `json:"dom"`
	Cand  interval.Set      `json:"cand,omitempty"`
	Frags []FragSnap        `json:"frags,omitempty"`
}

// RegistrySnap is a full registry snapshot, deterministically ordered.
type RegistrySnap struct {
	Views []ViewSnap `json:"views,omitempty"`
	Parts []PartSnap `json:"parts,omitempty"`
}

// Snapshot captures every tracked view and partition statistic. The
// caller must hold whatever lock serializes statistics writers (core's
// manager lock); the registry's own lock only protects the maps, not
// the records.
func (r *Registry) Snapshot() *RegistrySnap {
	snap := &RegistrySnap{}
	r.mu.RLock()
	for _, v := range r.views {
		snap.Views = append(snap.Views, ViewSnap{
			ID: v.ID, Size: v.Size, Cost: v.Cost, Measured: v.Measured,
			Uses: append([]Use(nil), v.Uses...),
		})
	}
	for _, m := range r.parts {
		for _, p := range m {
			ps := PartSnap{
				View: p.View, Attr: p.Attr, Dom: p.Dom,
				Cand: append(interval.Set(nil), p.Cand...),
			}
			for _, f := range p.Fragments() {
				ps.Frags = append(ps.Frags, FragSnap{
					Iv: f.Iv, Size: f.Size, Measured: f.Measured,
					Hits: append([]float64(nil), f.Hits...),
				})
			}
			snap.Parts = append(snap.Parts, ps)
		}
	}
	r.mu.RUnlock()
	sort.Slice(snap.Views, func(i, j int) bool { return snap.Views[i].ID < snap.Views[j].ID })
	sort.Slice(snap.Parts, func(i, j int) bool {
		a, b := snap.Parts[i], snap.Parts[j]
		if a.View != b.View {
			return a.View < b.View
		}
		return a.Attr < b.Attr
	})
	return snap
}

// Restore rebuilds the registry's records from a snapshot by feeding the
// recorded history through the normal mutators. Call on a freshly
// created registry before attaching a journal — the replayed mutations
// must not journal their own echoes.
func (r *Registry) Restore(snap *RegistrySnap) {
	if snap == nil {
		return
	}
	for _, vs := range snap.Views {
		v := r.View(vs.ID)
		v.Size, v.Cost, v.Measured = vs.Size, vs.Cost, vs.Measured
		for _, u := range vs.Uses {
			v.RecordUse(u.T, u.Saving)
		}
	}
	for _, ps := range snap.Parts {
		p := r.Partition(ps.View, ps.Attr, ps.Dom)
		p.Cand = append(interval.Set(nil), ps.Cand...)
		for _, fs := range ps.Frags {
			f := p.Frag(fs.Iv)
			f.Size, f.Measured = fs.Size, fs.Measured
			for _, t := range fs.Hits {
				f.RecordHit(t)
			}
		}
	}
}
