package ce

import (
	"fmt"
	"math/rand"

	"warper/internal/gbt"
	"warper/internal/kernel"
	"warper/internal/nn"
	"warper/internal/query"
)

// LM is the lightweight range-predicate model of Dutt et al.: the predicate
// featurization {low₁..low_d, high₁..high_d} (normalized by column ranges)
// fed to a regression backend predicting log-cardinality. The paper's LM-mlp,
// LM-gbt, LM-ply and LM-rbf variants correspond to the four backends here.
type LM struct {
	Schema  *query.Schema
	backend lmBackend
	name    string
	policy  UpdatePolicy
	rng     *rand.Rand

	// batchBuf backs the feature matrix EstimateAll builds for batched MLP
	// inference; featBuf backs the single feature vector Estimate builds.
	// Both are model-owned scratch (like the layers' forward buffers):
	// grown on demand, reused across calls, and never shared between
	// clones — Clone resets them so two models can serve concurrently.
	batchBuf []float64
	featBuf  []float64
}

// lmBackend is the pluggable regressor behind LM. fit and finetune report
// failures (a kernel solve that does not converge) as errors so the caller
// can keep its previous model instead of dying mid-adaptation.
type lmBackend interface {
	fit(X [][]float64, y []float64, rng *rand.Rand) error
	// finetune runs a few incremental epochs; it returns false when the
	// backend only supports re-training.
	finetune(X [][]float64, y []float64, rng *rand.Rand) (bool, error)
	predict(x []float64) float64
	clone() lmBackend
}

// LMVariant names an LM backend.
type LMVariant string

// LM variants evaluated in the paper (§4.1.2).
const (
	LMMLP LMVariant = "lm-mlp"
	LMGBT LMVariant = "lm-gbt"
	LMPly LMVariant = "lm-ply"
	LMRBF LMVariant = "lm-rbf"
)

// ParseLMVariant maps a model name as flags and experiment specs spell it
// onto its variant.
func ParseLMVariant(name string) (LMVariant, error) {
	switch v := LMVariant(name); v {
	case LMMLP, LMGBT, LMPly, LMRBF:
		return v, nil
	}
	return "", fmt.Errorf("ce: unknown LM variant %q (want %s, %s, %s or %s)", name, LMMLP, LMGBT, LMPly, LMRBF)
}

// NewLM builds an untrained LM of the given variant over a schema. seed
// controls weight initialization and training shuffles.
func NewLM(variant LMVariant, s *query.Schema, seed int64) *LM {
	rng := rand.New(rand.NewSource(seed))
	lm := &LM{Schema: s, name: string(variant), rng: rng}
	switch variant {
	case LMMLP:
		lm.backend = newMLPBackend(s.FeatureDim(), rng)
		lm.policy = FineTune
	case LMGBT:
		lm.backend = &gbtBackend{cfg: gbt.Config{Stages: 120, Rate: 0.05, MaxDepth: 4, MinLeafSize: 3}}
		lm.policy = Retrain
	case LMPly:
		lm.backend = &krrBackend{cfg: kernel.DefaultPolyConfig()}
		lm.policy = Retrain
	case LMRBF:
		lm.backend = &krrBackend{cfg: kernel.DefaultRBFConfig()}
		lm.policy = Retrain
	default:
		// Constructor-time configuration validation: unreachable from the
		// serving path, which only ever sees successfully built models.
		panic("ce: unknown LM variant " + string(variant)) //lint:allow panicfree startup config validation
	}
	return lm
}

// Train implements Estimator.
func (lm *LM) Train(examples []query.Labeled) error {
	X, y := lm.featurizeAll(examples)
	return lm.backend.fit(X, y, lm.rng)
}

// Update implements Estimator: fine-tune when supported, otherwise re-train
// on the given examples.
func (lm *LM) Update(examples []query.Labeled) error {
	X, y := lm.featurizeAll(examples)
	ok, err := lm.backend.finetune(X, y, lm.rng)
	if err != nil {
		return err
	}
	if !ok {
		return lm.backend.fit(X, y, lm.rng)
	}
	return nil
}

// Estimate implements Estimator. The featurization goes through the
// model-owned scratch vector, so per-row serving (the tree and kernel
// backends, and the non-batch interface fallback) allocates nothing after
// the first call.
func (lm *LM) Estimate(p query.Predicate) float64 {
	in := lm.Schema.FeatureDim()
	if cap(lm.featBuf) < in {
		lm.featBuf = make([]float64, in) //lint:allow hotpathalloc grow-once feature scratch; steady state reuses its capacity
	}
	f := lm.featBuf[:in]
	p.FeaturizeInto(lm.Schema, f)
	return targetToCard(lm.backend.predict(f))
}

// EstimateAll implements BatchEstimator: the MLP backend answers the whole
// slice with one batched forward pass through the minibatch kernels; the
// tree and kernel backends predict row by row (their per-row cost is the
// model walk itself, there is nothing to batch).
func (lm *LM) EstimateAll(ps []query.Predicate, out []float64) {
	if len(ps) != len(out) {
		panic("ce: EstimateAll length mismatch") //lint:allow panicfree caller-side slice-length contract
	}
	if mlp, ok := lm.backend.(*mlpBackend); ok && len(ps) > 0 {
		// Featurize straight into the model-owned batch matrix, so a
		// steady-state serving group performs no allocations here.
		in := lm.Schema.FeatureDim()
		need := len(ps) * in
		if cap(lm.batchBuf) < need {
			lm.batchBuf = make([]float64, need) //lint:allow hotpathalloc grow-once batch matrix; steady state reuses its capacity
		}
		X := nn.Mat{Rows: len(ps), Cols: in, Stride: in, Data: lm.batchBuf[:need]}
		for i := range ps {
			ps[i].FeaturizeInto(lm.Schema, X.Row(i))
		}
		mlp.predictAllMat(X, out)
		for i := range out {
			out[i] = targetToCard(out[i])
		}
		return
	}
	for i := range ps {
		out[i] = lm.Estimate(ps[i])
	}
}

// Policy implements Estimator.
func (lm *LM) Policy() UpdatePolicy { return lm.policy }

// Name implements Estimator.
func (lm *LM) Name() string { return lm.name }

// Clone implements Estimator. The clone gets fresh backend scratch and its
// own batch buffer, so it can serve estimates concurrently with the source.
func (lm *LM) Clone() Estimator {
	c := *lm
	c.backend = lm.backend.clone()
	c.rng = rand.New(rand.NewSource(lm.rng.Int63()))
	c.batchBuf = nil
	c.featBuf = nil
	return &c
}

func (lm *LM) featurizeAll(examples []query.Labeled) ([][]float64, []float64) {
	X := make([][]float64, len(examples))
	y := make([]float64, len(examples))
	for i, ex := range examples {
		X[i] = ex.Pred.Featurize(lm.Schema)
		y[i] = cardToTarget(ex.Card)
	}
	return X, y
}

// --- MLP backend -----------------------------------------------------------

// Training-schedule constants for the MLP backend, following §4.1: batch
// size 32 and learning rate 1e-3.
const (
	mlpTrainEpochs    = 60
	mlpFinetuneEpochs = 8
	mlpBatch          = 32
	mlpRate           = 1e-3
	mlpHidden         = 64
	mlpDepth          = 2
)

type mlpBackend struct {
	net *nn.Network
	in  int
}

func newMLPBackend(in int, rng *rand.Rand) *mlpBackend {
	return &mlpBackend{net: nn.MLP(in, mlpHidden, mlpDepth, 1, rng), in: in}
}

func (b *mlpBackend) fit(X [][]float64, y []float64, rng *rand.Rand) error {
	// Re-train from scratch: fresh weights, full epoch budget.
	b.net = nn.MLP(b.in, mlpHidden, mlpDepth, 1, rng)
	return b.run(X, y, mlpTrainEpochs, rng)
}

func (b *mlpBackend) finetune(X [][]float64, y []float64, rng *rand.Rand) (bool, error) {
	return true, b.run(X, y, mlpFinetuneEpochs, rng)
}

func (b *mlpBackend) run(X [][]float64, y []float64, epochs int, rng *rand.Rand) error {
	if len(X) == 0 {
		return nil
	}
	ys := make([][]float64, len(y))
	for i, v := range y {
		ys[i] = []float64{v}
	}
	_, err := b.net.Fit(X, ys, nn.MSE{}, nn.NewAdam(mlpRate), epochs, mlpBatch, rng)
	return err
}

func (b *mlpBackend) predict(x []float64) float64 { return b.net.Forward(x)[0] }

// predictAllMat runs one batched forward pass over the rows of X, using the
// network's minibatch kernels instead of X.Rows per-sample Forward calls.
// X must already hold the featurized predicates. The tile-resident
// InferBatch path serves full 4-row blocks without materializing activation
// matrices; where it cannot run it falls back to BatchForward, which is
// byte-identical by the same contract.
func (b *mlpBackend) predictAllMat(X nn.Mat, out []float64) {
	if b.net.InferBatch(X, out) {
		return
	}
	//lint:allow hotpathalloc fallback for layer kinds the in-place kernels cannot drive; LM's MLP stays on InferBatch
	y := b.net.BatchForward(X)
	for i := range out {
		out[i] = y.Row(i)[0]
	}
}

func (b *mlpBackend) clone() lmBackend { return &mlpBackend{net: b.net.Clone(), in: b.in} }

// --- GBT backend -----------------------------------------------------------

type gbtBackend struct {
	cfg   gbt.Config
	model *gbt.Regressor
}

func (b *gbtBackend) fit(X [][]float64, y []float64, _ *rand.Rand) error {
	m, err := gbt.Fit(X, y, b.cfg)
	if err != nil {
		// Keep the previous ensemble (if any); a failed re-train must not
		// leave the estimator without a model mid-adaptation.
		return fmt.Errorf("ce: gbt fit failed: %w", err)
	}
	b.model = m
	return nil
}

func (b *gbtBackend) finetune([][]float64, []float64, *rand.Rand) (bool, error) {
	return false, nil
}

func (b *gbtBackend) predict(x []float64) float64 {
	if b.model == nil {
		return 0
	}
	return b.model.Predict(x)
}

func (b *gbtBackend) clone() lmBackend {
	// The fitted ensemble is immutable after Fit, so sharing it is safe; a
	// subsequent fit replaces the pointer rather than mutating trees.
	return &gbtBackend{cfg: b.cfg, model: b.model}
}

// --- Kernel ridge backend (LM-ply / LM-rbf) ---------------------------------

type krrBackend struct {
	cfg   kernel.Config
	model *kernel.Regressor
}

func (b *krrBackend) fit(X [][]float64, y []float64, rng *rand.Rand) error {
	m, err := kernel.Fit(X, y, b.cfg, rng)
	if err != nil {
		// Gram matrix not PD at this regularization; retry stiffer rather
		// than leaving a stale model behind.
		cfg := b.cfg
		cfg.Lambda *= 100
		m, err = kernel.Fit(X, y, cfg, rng)
		if err != nil {
			// Both solves failed: keep the previous model (if any) and let
			// the caller decide — on the serving path a failed repair must
			// not kill the estimator process.
			return fmt.Errorf("ce: kernel fit failed: %w", err)
		}
	}
	b.model = m
	return nil
}

func (b *krrBackend) finetune([][]float64, []float64, *rand.Rand) (bool, error) {
	return false, nil
}

func (b *krrBackend) predict(x []float64) float64 {
	if b.model == nil {
		return 0
	}
	return b.model.Predict(x)
}

func (b *krrBackend) clone() lmBackend { return &krrBackend{cfg: b.cfg, model: b.model} }
