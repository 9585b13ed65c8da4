package adapt

import (
	"warper/internal/ce"
	"warper/internal/metrics"
	"warper/internal/query"
	"warper/internal/warper"
)

// Runner drives a Method through a sequence of adaptation periods and
// records its adaptation curve: GMQ on a hold-out test set as a function of
// the cumulative number of new-workload queries consumed. The curve's first
// point (0 queries) is the post-drift, pre-adaptation error α.
type Runner struct {
	Test []query.Labeled
}

// Run executes every period and returns the curve. The test set is never
// shown to the method. A failed step aborts the run with the curve recorded
// so far.
func (r *Runner) Run(m Method, periods [][]warper.Arrival) (*metrics.Curve, error) {
	curve := &metrics.Curve{}
	curve.Append(0, ce.EvalGMQ(m.Model(), r.Test))
	consumed := 0
	for _, p := range periods {
		if err := m.Step(p); err != nil {
			return curve, err
		}
		consumed += len(p)
		curve.Append(float64(consumed), ce.EvalGMQ(m.Model(), r.Test))
	}
	return curve, nil
}

// SplitPeriods chops a stream of arrivals into fixed-size periods (the last
// period may be short).
func SplitPeriods(arrivals []warper.Arrival, perPeriod int) [][]warper.Arrival {
	if perPeriod <= 0 {
		perPeriod = 1
	}
	var out [][]warper.Arrival
	for start := 0; start < len(arrivals); start += perPeriod {
		out = append(out, arrivals[start:min(start+perPeriod, len(arrivals))])
	}
	return out
}

// ArrivalsOf converts labeled queries into arrivals, optionally hiding the
// labels (the c3 scenarios).
func ArrivalsOf(lqs []query.Labeled, withGT bool) []warper.Arrival {
	out := make([]warper.Arrival, len(lqs))
	for i, lq := range lqs {
		out[i] = warper.Arrival{Pred: lq.Pred, GT: lq.Card, HasGT: withGT}
	}
	return out
}
