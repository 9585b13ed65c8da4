package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"warper/internal/query"
	"warper/internal/tpch"
)

// Property tests on the cost model and plan chooser.

func propFixture() (*Engine, *query.Schema, *query.Schema) {
	rng := rand.New(rand.NewSource(77))
	db := tpch.Generate(800, rng)
	eng := New(db)
	return eng, query.SchemaOf(db.Lineitem), query.SchemaOf(db.Orders)
}

// randPred builds a valid predicate from two raw floats on one column.
func randPred(sch *query.Schema, col int, a, b float64) query.Predicate {
	p := query.NewFullRange(sch)
	span := sch.Maxs[col] - sch.Mins[col]
	lo := sch.Mins[col] + clamp01(a)*span
	hi := sch.Mins[col] + clamp01(b)*span
	p.SetRange(col, lo, hi)
	return p.Normalize(sch)
}

func clamp01(x float64) float64 {
	if x != x || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Property: every scenario, every estimate — output rows identical and cost
// strictly positive; latency proportional to cost.
func TestExecutionInvariants(t *testing.T) {
	eng, schL, schO := propFixture()
	f := func(a, b, c, d float64, el, eo uint32) bool {
		predL := randPred(schL, tpch.LColQuantity, a, b)
		predO := randPred(schO, tpch.OColTotalPrice, c, d)
		var out []int
		for _, s := range []Scenario{S1BufferSpill, S2JoinType, S3BitmapSide} {
			st := eng.Run(s, predL, predO, float64(el%10000), float64(eo%10000))
			if st.Cost <= 0 {
				return false
			}
			if st.Latency != time.Duration(st.Cost*nsPerOp) {
				return false
			}
			out = append(out, st.OutputRows)
		}
		return out[0] == out[1] && out[1] == out[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: the true-cardinality plan is never more expensive than the plan
// chosen from arbitrary estimates (plan optimality of the cost model).
func TestTrueCardPlanIsOptimal(t *testing.T) {
	eng, schL, schO := propFixture()
	f := func(a, b, c, d float64, el, eo uint32) bool {
		predL := randPred(schL, tpch.LColQuantity, a, b)
		predO := randPred(schO, tpch.OColTotalPrice, c, d)
		// True cardinalities from a reference execution.
		ref := eng.Run(S2JoinType, predL, predO, 1e18, 1e18) // hash join path
		trueL, trueO := float64(ref.FilteredL), float64(ref.FilteredO)
		for _, s := range []Scenario{S1BufferSpill, S2JoinType, S3BitmapSide} {
			good, bad := eng.LatencyGap(s, predL, predO, float64(el%100000), float64(eo%100000), trueL, trueO)
			if bad < good {
				// An estimate-driven plan beat the true-cardinality plan:
				// the plan chooser would be suboptimal under truth.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}
