package serve

import (
	"math"
	"math/rand"
	"testing"

	"warper/internal/dataset"
	"warper/internal/query"
)

// TestFallbackRefreshFollowsTableVersion pins the histogram tier's rebuild
// rule: an unchanged table keeps the published histogram (no re-sort per
// period), a mutated one publishes a new histogram, and the old one — which
// an estimate may still be reading through the atomic pointer — is left
// exactly as it was.
func TestFallbackRefreshFollowsTableVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tbl := dataset.PRSA(2000, rng)
	sch := query.SchemaOf(tbl)
	p := query.NewFullRange(sch)
	p.SetRange(1, sch.Mins[1], (sch.Mins[1]+sch.Maxs[1])/2)

	f := newFallbackLadder()
	f.refresh(tbl)
	first := f.hist.Load()
	if first == nil {
		t.Fatal("no histogram after the first refresh")
	}
	before := first.Estimate(p)
	f.refresh(tbl)
	if f.hist.Load() != first {
		t.Error("refresh over an unchanged table replaced the histogram")
	}

	dataset.UpdateDrift(tbl, 1, 2, rng) // same row count: only Version tells
	f.refresh(tbl)
	second := f.hist.Load()
	if second == first {
		t.Fatal("refresh after UpdateDrift kept the stale histogram")
	}
	if got := first.Estimate(p); got != before {
		t.Errorf("published histogram changed under its readers: %v, was %v", got, before)
	}
	if second.Estimate(p) == before {
		t.Error("rebuilt histogram answers as the stale one did")
	}

	tbl.Truncate(1500)
	f.refresh(tbl)
	all := query.NewFullRange(sch) // the schema's ranges predate the drift
	for c := range all.Lows {
		all.SetRange(c, math.Inf(-1), math.Inf(1))
	}
	if got, want := f.estimate(all), 1500.0; got != want {
		t.Errorf("full-range fallback after Truncate = %v, want %v", got, want)
	}
}
