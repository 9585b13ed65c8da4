// Package adapt implements the adaptation baselines the paper compares
// Warper against (§4.1): fine-tuning (FT; a model that cannot fine-tune
// re-trains on everything it has seen), Mixture (MIX), Gaussian-noise data
// augmentation (AUG) and hard-example mining (HEM) — and Warper itself and
// NoAdapt (no adaptation) behind the same Method interface, plus a shared
// period-driven runner that produces the adaptation curves (GMQ vs. consumed
// new-workload queries) behind Figures 6 and 8 and the Δ speedups of Tables
// 7, 8 and 10. Figures 1 and 9 step the same Methods, one per table of their
// join.
package adapt

import (
	"context"
	"math/rand"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/metrics"
	"warper/internal/query"
	"warper/internal/warper"
)

// Method consumes one period of newly arrived queries at a time and keeps
// its CE model as adapted as it can manage.
type Method interface {
	Name() string
	// Step processes one adaptation period's arrivals. A failed step (an
	// annotation or model-update failure) leaves the method's model in its
	// pre-step state where possible and is reported as an error.
	Step(arrivals []warper.Arrival) error
	// Model returns the live CE model.
	Model() ce.Estimator
	// AnnotationsSpent reports the cumulative ground-truth computations the
	// method has requested beyond the labels that arrived with queries.
	AnnotationsSpent() int
}

// learner is the skeleton FT, MIX, AUG and HEM share: the model, everything
// it has learned from, and the extra annotations it requested.
type learner struct {
	m       ce.Estimator
	history []query.Labeled // initial training + every learned batch
	spent   int
}

func newLearner(m ce.Estimator, train []query.Labeled) learner {
	return learner{m: m, history: append([]query.Labeled(nil), train...)}
}

// Model implements Method.
func (l *learner) Model() ce.Estimator { return l.m }

// AnnotationsSpent implements Method.
func (l *learner) AnnotationsSpent() int { return l.spent }

// learn appends seen to the history, then updates the model: a model that
// can fine-tune takes batch, a re-train model (the paper's fallback for
// models that cannot fine-tune) re-trains on the whole history.
func (l *learner) learn(seen, batch []query.Labeled) error {
	l.history = append(l.history, seen...)
	if l.m.Policy() == ce.Retrain {
		return l.m.Update(l.history)
	}
	return l.m.Update(batch)
}

// --- FT ----------------------------------------------------------------------

// FT fine-tunes the model with each period's labeled arrivals.
type FT struct{ learner }

// NewFT wraps a trained model with the original training corpus (needed by
// re-train models).
func NewFT(m ce.Estimator, train []query.Labeled) *FT {
	return &FT{newLearner(m, train)}
}

// Name implements Method.
func (f *FT) Name() string { return "FT" }

// Step implements Method.
func (f *FT) Step(arrivals []warper.Arrival) error {
	labeled := labeledOf(arrivals)
	if len(labeled) == 0 {
		return nil
	}
	return f.learn(labeled, labeled)
}

// --- MIX ---------------------------------------------------------------------

// MIX updates the model with a combination of the original training workload
// and the newly arrived labeled queries, improving generalization when the
// distributions overlap.
type MIX struct {
	learner
	train []query.Labeled
	rng   *rand.Rand
}

// NewMIX builds the mixture baseline.
func NewMIX(m ce.Estimator, train []query.Labeled, seed int64) *MIX {
	return &MIX{learner: newLearner(m, train), train: train, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Method.
func (x *MIX) Name() string { return "MIX" }

// Step implements Method: each period updates on the new labeled arrivals
// plus an equal-sized random draw from the original training workload.
func (x *MIX) Step(arrivals []warper.Arrival) error {
	labeled := labeledOf(arrivals)
	if len(labeled) == 0 {
		return nil
	}
	mixed := append([]query.Labeled(nil), labeled...)
	for i := 0; i < len(labeled) && len(x.train) > 0; i++ {
		mixed = append(mixed, x.train[x.rng.Intn(len(x.train))])
	}
	return x.learn(labeled, mixed)
}

// --- AUG ---------------------------------------------------------------------

// AUG augments each period's arrivals with Gaussian-noise copies (std = 10%
// of each column's range, §4.1) and annotates the synthetic queries.
type AUG struct {
	learner
	ann *annotator.Annotator
	sch *query.Schema
	rng *rand.Rand
}

// augGenFraction matches Warper's default n_g = 0.1·n_t (§4.1).
const augGenFraction = 0.1

// NewAUG builds the augmentation baseline.
func NewAUG(m ce.Estimator, sch *query.Schema, ann *annotator.Annotator, train []query.Labeled, seed int64) *AUG {
	return &AUG{
		learner: newLearner(m, train), ann: ann, sch: sch,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Name implements Method.
func (a *AUG) Name() string { return "AUG" }

// Step implements Method.
func (a *AUG) Step(arrivals []warper.Arrival) error {
	labeled := labeledOf(arrivals)
	nGen := int(augGenFraction * float64(len(arrivals)))
	var synth []query.Predicate
	for i := 0; i < nGen && len(arrivals) > 0; i++ {
		src := arrivals[a.rng.Intn(len(arrivals))]
		synth = append(synth, Noisy(src.Pred, a.sch, a.rng))
	}
	if len(synth) > 0 {
		annotated, err := a.ann.AnnotateAll(context.Background(), synth)
		if err != nil {
			return err
		}
		a.spent += len(synth)
		labeled = append(labeled, annotated...)
	}
	if len(labeled) == 0 {
		return nil
	}
	return a.learn(labeled, labeled)
}

// --- HEM ---------------------------------------------------------------------

// HEM (hard-example mining) weights the arrivals by the model's evaluation
// error — high-error queries are replicated in the update set — and adds the
// same Gaussian noise as AUG for robustness. It needs ground truth for the
// new queries and annotates any that arrive unlabeled.
type HEM struct {
	learner
	ann *annotator.Annotator
	sch *query.Schema
	rng *rand.Rand
}

// NewHEM builds the hard-example-mining baseline.
func NewHEM(m ce.Estimator, sch *query.Schema, ann *annotator.Annotator, train []query.Labeled, seed int64) *HEM {
	return &HEM{learner: newLearner(m, train), ann: ann, sch: sch, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Method.
func (h *HEM) Name() string { return "HEM" }

// Step implements Method.
func (h *HEM) Step(arrivals []warper.Arrival) error {
	var labeled []query.Labeled
	for _, ar := range arrivals {
		if ar.HasGT {
			labeled = append(labeled, query.Labeled{Pred: ar.Pred, Card: ar.GT})
		} else {
			card, err := h.ann.Count(context.Background(), ar.Pred)
			if err != nil {
				return err
			}
			labeled = append(labeled, query.Labeled{Pred: ar.Pred, Card: card})
			h.spent++
		}
	}
	if len(labeled) == 0 {
		return nil
	}
	// Weighted replication by q-error: every query appears once, the
	// hardest examples up to three more times.
	var batch []query.Labeled
	for _, lq := range labeled {
		batch = append(batch, lq)
		qe := metrics.QError(h.m.Estimate(lq.Pred), lq.Card)
		reps := 0
		switch {
		case qe >= 32:
			reps = 3
		case qe >= 8:
			reps = 2
		case qe >= 2:
			reps = 1
		}
		for r := 0; r < reps; r++ {
			// Noisy replica (AUG-style) for robustness; labels come from a
			// fresh annotation.
			noisy := Noisy(lq.Pred, h.sch, h.rng)
			card, err := h.ann.Count(context.Background(), noisy)
			if err != nil {
				return err
			}
			batch = append(batch, query.Labeled{Pred: noisy, Card: card})
			h.spent++
		}
	}
	return h.learn(batch, batch)
}

// --- Warper as a Method -------------------------------------------------------

// WarperMethod adapts the warper.Adapter to the Method interface.
type WarperMethod struct {
	Adapter *warper.Adapter
}

// NewWarper wraps an Adapter.
func NewWarper(a *warper.Adapter) *WarperMethod { return &WarperMethod{Adapter: a} }

// Name implements Method.
func (w *WarperMethod) Name() string { return "Warper" }

// Step implements Method.
func (w *WarperMethod) Step(arrivals []warper.Arrival) error {
	_, err := w.Adapter.Period(arrivals)
	return err
}

// Model implements Method.
func (w *WarperMethod) Model() ce.Estimator { return w.Adapter.M }

// AnnotationsSpent implements Method.
func (w *WarperMethod) AnnotationsSpent() int {
	n := 0
	for _, e := range w.Adapter.Pool.Entries {
		if e.Source != 0 && e.GT >= 0 { // non-train entries with labels
			n++
		}
	}
	return n
}

// --- NoAdapt ---------------------------------------------------------------

// NoAdapt leaves its model untouched: the "before adaptation" line of
// Figure 1.
type NoAdapt struct{ M ce.Estimator }

// Name implements Method.
func (NoAdapt) Name() string { return "NoAdapt" }

// Step implements Method: nothing is learned.
func (NoAdapt) Step([]warper.Arrival) error { return nil }

// Model implements Method.
func (n NoAdapt) Model() ce.Estimator { return n.M }

// AnnotationsSpent implements Method.
func (NoAdapt) AnnotationsSpent() int { return 0 }

// --- shared -------------------------------------------------------------------

// Noisy returns a copy of p with N(0, (0.1·range)²) noise on each bound —
// §4.1's AUG noise, also HEM's replicas and Table 10's 𝔾→AUG ablation. Per
// column it draws the low's noise, then the high's.
func Noisy(p query.Predicate, sch *query.Schema, rng *rand.Rand) query.Predicate {
	out := p.Clone()
	for i := range out.Lows {
		span := sch.Maxs[i] - sch.Mins[i]
		out.Lows[i] += rng.NormFloat64() * 0.1 * span
		out.Highs[i] += rng.NormFloat64() * 0.1 * span
	}
	return out.Normalize(sch)
}

func labeledOf(arrivals []warper.Arrival) []query.Labeled {
	var out []query.Labeled
	for _, ar := range arrivals {
		if ar.HasGT {
			out = append(out, query.Labeled{Pred: ar.Pred, Card: ar.GT})
		}
	}
	return out
}
