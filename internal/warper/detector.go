package warper

import (
	"context"
	"strings"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/drift"
	"warper/internal/metrics"
	"warper/internal/query"
)

// Mode is the det_drft output: a bitmask of the drift cases from Table 2.
type Mode uint8

// Drift modes. Multiple bits may be set when drifts co-occur.
const (
	// ModeNone means no drift detected; Warper keeps using 𝕄 as-is.
	ModeNone Mode = 0
	// C1 is a data drift: cardinality labels are outdated.
	C1 Mode = 1 << iota
	// C2 is a workload drift with inadequate incoming queries (n_t < γ).
	C2
	// C3 is a workload drift with inadequate labels (n_a < γ).
	C3
	// C4 is a workload drift with adequate labeled queries.
	C4
)

// Has reports whether every bit of m2 is set in m.
func (m Mode) Has(m2 Mode) bool { return m&m2 == m2 }

// String renders the mode as the paper's case labels.
func (m Mode) String() string {
	if m == ModeNone {
		return "none"
	}
	var parts []string
	if m.Has(C1) {
		parts = append(parts, "c1")
	}
	if m.Has(C2) {
		parts = append(parts, "c2")
	}
	if m.Has(C3) {
		parts = append(parts, "c3")
	}
	if m.Has(C4) {
		parts = append(parts, "c4")
	}
	return strings.Join(parts, "|")
}

// Arrival is one newly observed query: a predicate with an optional
// execution-feedback cardinality.
type Arrival struct {
	Pred  query.Predicate
	GT    float64
	HasGT bool
}

// detector implements det_drft (§3.1).
type detector struct {
	cfg       Config
	sch       *query.Schema
	telemetry *drift.DataTelemetry
	// trainPreds is the reference workload 𝕀train for δ_js.
	trainPreds []query.Predicate
	// trainGMQ is the error observed during training; the δ_m gap is
	// measured against it.
	trainGMQ float64
	// pi is the adaptive threshold π.
	pi float64
	// gamma is the adaptive γ.
	gamma int
	// pendingC1 keeps the c1 bit set across periods while the pool still
	// holds stale labels from an earlier data drift; a single annotation
	// budget rarely refreshes them all.
	pendingC1 bool
	// floorCache memoizes the same-distribution δ_js noise floor by sample
	// size.
	floorCache map[int]float64
}

// Detection carries everything det_drft measured, for reporting.
type Detection struct {
	Mode    Mode
	DeltaM  float64
	DeltaJS float64
	NT      int // arrivals this period (n_t)
	NA      int // labeled arrivals this period
	// FreshC1 is true when telemetry newly detected the data drift this
	// period (as opposed to a pending continuation); only a fresh c1
	// invalidates the pool's labels.
	FreshC1 bool
	// TelemetryDegraded is true when the canary probes failed and data-drift
	// detection fell back to the changed-row signal alone.
	TelemetryDegraded bool
}

// detect classifies the ongoing drift from this period's arrivals. recent
// holds earlier labeled arrivals still representative of the new workload;
// they widen the δ_m evaluation window so a 10-query period does not decide
// drift presence alone. Canary-probe failures degrade (detection proceeds on
// the δ_m/δ_js/changed-row signals, with Detection.TelemetryDegraded set);
// only a cancelled ctx aborts.
func (d *detector) detect(ctx context.Context, arrivals []Arrival, recent []query.Labeled, m ce.Estimator, src annotator.Source, changedFraction float64) (Detection, error) {
	det := Detection{NT: len(arrivals)}
	// δ_m: evaluation error of 𝕄 on arrivals that carry execution feedback,
	// padded with the recent-arrival window.
	var ests, acts []float64
	var newPreds []query.Predicate
	for _, a := range arrivals {
		newPreds = append(newPreds, a.Pred)
		if a.HasGT {
			det.NA++
			ests = append(ests, m.Estimate(a.Pred))
			acts = append(acts, a.GT)
		}
	}
	for _, lq := range recent {
		ests = append(ests, m.Estimate(lq.Pred))
		acts = append(acts, lq.Card)
	}
	if len(ests) > 0 {
		gmq := gmqOf(ests, acts)
		det.DeltaM = gmq - d.trainGMQ
		if det.DeltaM < 0 {
			det.DeltaM = 0
		}
	}
	// δ_js against the original training workload. Small samples bias δ_js
	// upward (sparse histograms), so the observed divergence is compared
	// against a same-distribution noise floor measured between two disjoint
	// training subsets, with all three sets subsampled to a common size so
	// the bias cancels.
	var jsExcess float64
	if len(newPreds) > 0 && len(d.trainPreds) >= 4 {
		m := len(newPreds)
		if half := len(d.trainPreds) / 2; m > half {
			m = half
		}
		if m > 200 {
			m = 200
		}
		half1 := d.trainPreds[:m]
		half2 := d.trainPreds[len(d.trainPreds)-m:]
		obsNew := newPreds
		if len(obsNew) > m {
			obsNew = obsNew[:m]
		}
		det.DeltaJS = drift.DeltaJS(obsNew, half1, d.sch)
		jsExcess = det.DeltaJS - d.jsNoiseFloor(m, half1, half2)
		if jsExcess < 0 {
			jsExcess = 0
		}
	}

	// Data drift from telemetry (changed rows and/or canaries), or a
	// pending data drift whose stale labels are still being re-annotated
	// across periods.
	freshC1 := false
	if d.telemetry != nil {
		var err error
		freshC1, err = d.telemetry.Detect(ctx, changedFraction, src)
		if err != nil {
			if ctx.Err() != nil {
				return det, ctx.Err()
			}
			// Best effort: a flaky source must not silence the whole
			// detector — the changed-row fraction already fired inside
			// Detect if it crossed its threshold, and δ_m/δ_js below
			// need no annotation.
			det.TelemetryDegraded = true
			freshC1 = false
		}
	}
	det.FreshC1 = freshC1
	dataDrift := freshC1 || d.pendingC1
	// Workload drift: the model's error gap exceeds π, or the intrinsic
	// distribution distance is large. During a data drift a high δ_m is
	// explained by the outdated labels, so only δ_js indicates a
	// simultaneous workload change (Table 2: c1 is "unchanged workload").
	wkldDrift := jsExcess > d.cfg.JSThreshold
	if !dataDrift && det.DeltaM > d.pi {
		wkldDrift = true
	}

	if dataDrift {
		det.Mode |= C1
	}
	if wkldDrift {
		switch {
		case det.NT < d.gamma && det.NA < d.gamma:
			det.Mode |= C2
			if det.NA < det.NT {
				// Labels also lag behind the (already scarce) arrivals.
				det.Mode |= C3
			}
		case det.NA < d.gamma:
			det.Mode |= C3
		default:
			det.Mode |= C4
		}
	}
	return det, nil
}

func gmqOf(ests, acts []float64) float64 { return metrics.GMQ(ests, acts) }

// jsNoiseFloor returns the δ_js expected between two same-distribution
// samples of size m, measured on disjoint training subsets and cached per
// sample size.
func (d *detector) jsNoiseFloor(m int, half1, half2 []query.Predicate) float64 {
	if d.floorCache == nil {
		d.floorCache = map[int]float64{}
	}
	if v, ok := d.floorCache[m]; ok {
		return v
	}
	v := drift.DeltaJS(half1, half2, d.sch)
	d.floorCache[m] = v
	return v
}
