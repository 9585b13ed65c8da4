// Package ce implements the learned cardinality-estimation models that
// Warper adapts: the LM family (Dutt et al., VLDB'19) with MLP, gradient-
// boosted-tree, polynomial-kernel and RBF-kernel regression backends, and a
// simplified MSCN (Kipf et al., CIDR'19) set model covering both single-table
// and join cardinalities.
//
// Warper treats these models as black boxes behind the Estimator interface:
// it only estimates, evaluates and updates — never inspects structure —
// matching the paper's model-agnosticism requirement (§3.2).
package ce

import (
	"math"

	"warper/internal/metrics"
	"warper/internal/query"
)

// UpdatePolicy distinguishes how a model incorporates new labeled queries.
type UpdatePolicy int

// Update policies (§3.2: "neural networks are iteratively trained and can be
// fine-tuned but tree-based models usually need to be re-trained").
const (
	FineTune UpdatePolicy = iota
	Retrain
)

// Estimator is the black-box CE model 𝕄: any function that emits a
// cardinality for a predicate and can update itself with labeled predicates.
//
// Train and Update return an error instead of panicking when a backend
// cannot produce a model (e.g. a kernel solve fails): a failed repair must
// leave the caller free to keep serving the previous model (§6.4
// robustness). An estimator whose Update returned an error may be in a
// partially updated state; callers should discard it in favor of a clone
// taken before the update.
type Estimator interface {
	// Train builds the model from scratch on the given corpus.
	Train(examples []query.Labeled) error
	// Update incorporates labeled examples: a few fine-tuning epochs for
	// iterative models, a full re-train for the rest. Callers with a
	// Retrain-policy model must pass the entire corpus they want the new
	// model built from.
	Update(examples []query.Labeled) error
	// Estimate returns the predicted cardinality for a predicate.
	//
	// Estimate is NOT safe for concurrent use on one model value: forward
	// passes write model-owned scratch buffers (layer activations, batch
	// feature matrices). Concurrent serving must give each goroutine its
	// own clone — see Clone and the serve package's replica pool.
	Estimate(p query.Predicate) float64
	// Policy reports whether Update fine-tunes or re-trains.
	Policy() UpdatePolicy
	// Clone returns an independent deep copy of the current model.
	//
	// The clone contract, which the replica-pool serving path depends on:
	//   - the clone shares NO mutable state with the source: parameters are
	//     deep-copied and scratch buffers are never aliased, so the clone
	//     and the source can run Estimate concurrently with each other;
	//   - the clone is estimate-identical to the source: Estimate on the
	//     clone returns bit-identical float64s for every predicate;
	//   - Clone may read (and advance) the source's RNG to seed the clone's,
	//     so Clone itself must not race with other Clone/Train/Update calls
	//     on the same source.
	Clone() Estimator
	Name() string
}

// BatchEstimator is implemented by estimators that can answer many
// predicates in one pass (e.g. LM-mlp's batched forward). Results must be
// identical to calling Estimate per predicate.
type BatchEstimator interface {
	Estimator
	// EstimateAll writes the estimate for ps[i] into out[i].
	// len(out) must equal len(ps).
	EstimateAll(ps []query.Predicate, out []float64)
}

// Estimating is the one method EvalGMQ calls: every Estimator has it, and
// so does the data-driven HistogramEstimator baseline, which is no
// Estimator (it neither trains on queries nor serves from replicas).
type Estimating interface {
	Estimate(p query.Predicate) float64
}

// EvalGMQ evaluates an estimator on a labeled test set and returns the GMQ.
// Estimators implementing BatchEstimator are evaluated with one batched
// inference call instead of len(test) per-query forwards.
func EvalGMQ(e Estimating, test []query.Labeled) float64 {
	ests := make([]float64, len(test))
	acts := make([]float64, len(test))
	for i, lq := range test {
		acts[i] = lq.Card
	}
	if be, ok := e.(BatchEstimator); ok && len(test) > 0 {
		ps := make([]query.Predicate, len(test))
		for i, lq := range test {
			ps[i] = lq.Pred
		}
		be.EstimateAll(ps, ests)
	} else {
		for i, lq := range test {
			ests[i] = e.Estimate(lq.Pred)
		}
	}
	return metrics.GMQ(ests, acts)
}

// EvalJoinGMQ evaluates an MSCN model on labeled join queries with one
// batched call. Queries the model cannot featurize make it return an error.
func EvalJoinGMQ(m *MSCN, test []query.LabeledJoin) (float64, error) {
	ests := make([]float64, len(test))
	acts := make([]float64, len(test))
	qs := make([]*query.JoinQuery, len(test))
	for i, lq := range test {
		acts[i] = lq.Card
		qs[i] = lq.Query
	}
	if err := m.EstimateJoinAll(qs, ests); err != nil {
		return 0, err
	}
	return metrics.GMQ(ests, acts), nil
}

// Cardinality targets are regressed in log space: wide dynamic range plus
// the q-error metric make log the natural scale.

// cardToTarget maps a cardinality to the regression target log(1+card).
func cardToTarget(card float64) float64 {
	if card < 0 {
		card = 0
	}
	return math.Log1p(card)
}

// targetToCard inverts cardToTarget with clamping to non-negative values.
func targetToCard(t float64) float64 {
	c := math.Expm1(t)
	if c < 0 {
		return 0
	}
	if math.IsInf(c, 1) || math.IsNaN(c) {
		return math.MaxFloat64
	}
	return c
}
