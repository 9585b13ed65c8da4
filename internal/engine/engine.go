// Package engine is a miniature cost-based query executor reproducing the
// three plan decisions of §4.2 that a production query optimizer makes from
// cardinality estimates:
//
//	S1  whether a hash-join build side fits in memory or must spill,
//	S2  nested-loop vs hash join,
//	S3  which join input to build a semi-join bitmap on.
//
// The engine executes real joins over the generated TPC-H-shaped tables;
// only the *plan choice* comes from the (possibly wrong) estimates, exactly
// as in the paper's setup where estimates are injected into the optimizer's
// memo. Latency is a deterministic cost model (row operations × calibrated
// per-op time), making the experiments reproducible on any machine while
// preserving the relative latency gaps between good and bad plans.
package engine

import (
	"time"

	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/tpch"
)

// Scenario selects which §4.2 plan decision is exercised.
type Scenario int

// The three end-to-end scenarios of Table 9.
const (
	S1BufferSpill Scenario = iota
	S2JoinType
	S3BitmapSide
)

// String returns the scenario label used in the paper.
func (s Scenario) String() string {
	switch s {
	case S1BufferSpill:
		return "S1-buffer-spill"
	case S2JoinType:
		return "S2-join-type"
	case S3BitmapSide:
		return "S3-bitmap-side"
	default:
		return "unknown"
	}
}

// Cost-model constants, in abstract row operations. The ratios are chosen so
// the good-vs-bad plan latency gaps land near the paper's Table 9 (≈2× for
// spills, orders of magnitude for a misplanned nested-loop join, ≈5× for the
// wrong bitmap side).
const (
	costScanRow    = 1.0
	costHashBuild  = 2.0
	costHashProbe  = 1.5
	costSpillRow   = 5.0  // write + re-read of a spilled partition row
	costNLCompare  = 0.25 // one inner-loop comparison
	costBitmapSet  = 0.5
	costBitmapTest = 0.25
	costOutputRow  = 1.0
)

// nsPerOp converts cost units into simulated latency.
const nsPerOp = 100

// Engine executes the Figure 1 query template
// SELECT ... FROM lineitem L JOIN orders O ON l_orderkey = o_orderkey
// WHERE <pred on L> AND <pred on O>.
type Engine struct {
	DB *tpch.DB
	// MemBudgetRows is the hash-join build-side memory budget for S1.
	MemBudgetRows int
	// NLThresholdRows is the per-input cardinality below which the planner
	// prefers a nested-loop join in S2.
	NLThresholdRows int
}

// New returns an engine with budget defaults scaled to the DB size.
func New(db *tpch.DB) *Engine {
	return &Engine{
		DB:              db,
		MemBudgetRows:   db.Orders.NumRows() / 8,
		NLThresholdRows: db.Orders.NumRows() / 16,
	}
}

// MemBudgetLRows is the S1 build-side budget on the lineitem input, scaled
// from the orders budget by the tables' size ratio.
func (e *Engine) MemBudgetLRows() int {
	if e.DB.Orders.NumRows() == 0 {
		return e.MemBudgetRows
	}
	return e.MemBudgetRows * e.DB.Lineitem.NumRows() / e.DB.Orders.NumRows()
}

// Plan is the optimizer's decision for one query.
type Plan struct {
	Scenario Scenario
	// UseNL selects nested-loop join (S2).
	UseNL bool
	// SpillPlanned pre-partitions the build side (S1).
	SpillPlanned bool
	// BitmapOnOrders builds the semi-join bitmap on the orders side (S3);
	// otherwise on lineitem.
	BitmapOnOrders bool
}

// Stats reports one execution.
type Stats struct {
	Plan        Plan
	FilteredL   int
	FilteredO   int
	OutputRows  int
	Cost        float64
	Latency     time.Duration
	SpilledMid  bool // S1: unplanned spill during build
	NLDisaster  bool // S2: nested loop over large inputs
	WrongBitmap bool // S3: bitmap built on the larger filtered input
}

// ChoosePlan makes the §4.2 plan decision from cardinality *estimates*.
func (e *Engine) ChoosePlan(s Scenario, estL, estO float64) Plan {
	p := Plan{Scenario: s}
	switch s {
	case S1BufferSpill:
		// S1 builds the hash table on the predicated lineitem input (the
		// paper's Figure 1 template drifts the L predicate); pre-partition
		// when its estimate exceeds the memory budget. Under-estimates skip
		// the pre-partitioning and pay a mid-build overflow instead.
		p.SpillPlanned = estL > float64(e.MemBudgetLRows())
	case S2JoinType:
		p.UseNL = estL <= float64(e.NLThresholdRows) && estO <= float64(e.NLThresholdRows)
	case S3BitmapSide:
		p.BitmapOnOrders = estO <= estL
	}
	return p
}

// filter scans a table with the predicate, returning matching row indices.
func filter(t *dataset.Table, p query.Predicate) []int {
	var out []int
	row := make([]float64, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		if p.Matches(t.Row(r, row)) {
			out = append(out, r)
		}
	}
	return out
}

// Execute runs the query under the given plan and returns measured stats.
// predL/predO are the actual predicates; the plan may have been chosen from
// arbitrarily wrong estimates.
func (e *Engine) Execute(plan Plan, predL, predO query.Predicate) Stats {
	L, O := e.DB.Lineitem, e.DB.Orders
	st := Stats{Plan: plan}
	cost := float64(L.NumRows()+O.NumRows()) * costScanRow // table scans

	lRows := filter(L, predL)
	oRows := filter(O, predO)
	st.FilteredL = len(lRows)
	st.FilteredO = len(oRows)

	lKeys := L.Cols[tpch.LColOrderKey].Vals
	oKeys := O.Cols[tpch.OColOrderKey].Vals

	switch {
	case plan.UseNL:
		// Nested loop: compare every filtered pair.
		cost += float64(float64(len(lRows)) * float64(len(oRows)) * costNLCompare)
		matches := 0
		for _, lr := range lRows {
			k := lKeys[lr]
			for _, or := range oRows {
				if oKeys[or] == k {
					matches++
				}
			}
		}
		st.OutputRows = matches
		cost += float64(matches) * costOutputRow
		if len(lRows) > e.NLThresholdRows || len(oRows) > e.NLThresholdRows {
			st.NLDisaster = true
		}

	case plan.Scenario == S3BitmapSide:
		// Semi-join bitmap: build on one input, pre-filter the other, then
		// hash join. The wrong (larger) build side costs more to build and
		// filters less.
		build, probe := oRows, lRows
		buildKeys, probeKeys := oKeys, lKeys
		if !plan.BitmapOnOrders {
			build, probe = lRows, oRows
			buildKeys, probeKeys = lKeys, oKeys
		}
		bitmap := make(map[float64]struct{}, len(build))
		for _, r := range build {
			bitmap[buildKeys[r]] = struct{}{}
		}
		cost += float64(float64(len(build)) * costBitmapSet)
		var surviving []int
		for _, r := range probe {
			if _, ok := bitmap[probeKeys[r]]; ok {
				surviving = append(surviving, r)
			}
		}
		cost += float64(float64(len(probe)) * costBitmapTest)
		// Hash join between build side and surviving probe rows.
		st.OutputRows = hashJoinCount(build, buildKeys, surviving, probeKeys)
		cost += float64(float64(len(build))*costHashBuild) + float64(float64(len(surviving))*costHashProbe)
		cost += float64(st.OutputRows) * costOutputRow
		st.WrongBitmap = len(build) > len(probe)

	default:
		// Hash join. S1 builds on the predicated lineitem input with a
		// memory budget; S2's hash path builds on orders (the smaller base
		// table) without spill modelling.
		build, probe := oRows, lRows
		buildKeys, probeKeys := oKeys, lKeys
		budget := -1 // no budget: spills cannot occur
		if plan.Scenario == S1BufferSpill {
			build, probe = lRows, oRows
			buildKeys, probeKeys = lKeys, oKeys
			budget = e.MemBudgetLRows()
		}
		if budget >= 0 {
			if plan.SpillPlanned {
				// Grace-style pre-partitioning: both inputs written and
				// re-read once.
				cost += float64(float64(len(build)+len(probe)) * costSpillRow)
			} else if len(build) > budget {
				// Unplanned overflow: the partially built table is flushed
				// and both inputs re-partitioned mid-flight — much more
				// expensive than having planned the spill.
				cost += float64(budget) * costHashBuild // wasted build work
				cost += float64(float64(len(build)+len(probe)) * costSpillRow * 2.5)
				st.SpilledMid = true
			}
		}
		st.OutputRows = hashJoinCount(build, buildKeys, probe, probeKeys)
		cost += float64(float64(len(build))*costHashBuild) + float64(float64(len(probe))*costHashProbe)
		cost += float64(st.OutputRows) * costOutputRow
	}

	st.Cost = cost
	st.Latency = time.Duration(cost * nsPerOp)
	return st
}

// hashJoinCount counts join matches building on the first input.
func hashJoinCount(build []int, buildKeys []float64, probe []int, probeKeys []float64) int {
	ht := make(map[float64]int, len(build))
	for _, r := range build {
		ht[buildKeys[r]]++
	}
	out := 0
	for _, r := range probe {
		out += ht[probeKeys[r]]
	}
	return out
}

// Run chooses a plan from the estimates and executes it.
func (e *Engine) Run(s Scenario, predL, predO query.Predicate, estL, estO float64) Stats {
	return e.Execute(e.ChoosePlan(s, estL, estO), predL, predO)
}

// LatencyGap runs the same query with true-cardinality planning and with the
// given estimates, returning (goodLatency, actualLatency).
func (e *Engine) LatencyGap(s Scenario, predL, predO query.Predicate, estL, estO, trueL, trueO float64) (time.Duration, time.Duration) {
	good := e.Run(s, predL, predO, trueL, trueO)
	actual := e.Run(s, predL, predO, estL, estO)
	return good.Latency, actual.Latency
}
