package gbt

// Config controls a gradient-boosted ensemble.
type Config struct {
	Stages      int     // number of boosting rounds
	Rate        float64 // shrinkage / learning rate (the paper's LM-gbt uses 1e-2; DESIGN §5)
	MaxDepth    int     // per-tree depth
	MinLeafSize int
}

// Regressor is a gradient-boosted regression ensemble for squared loss:
// F_0 = mean(y); F_m = F_{m-1} + rate * tree_m(residuals).
type Regressor struct {
	cfg   Config
	base  float64
	trees []*Tree
}

// Fit trains the ensemble from scratch. Boosted trees cannot be incrementally
// fine-tuned, so estimator code calls Fit again on every model update. The
// feature matrix is transposed and presorted once; every boosting stage
// reuses those orders, so the per-stage cost is linear scans only.
func Fit(X [][]float64, y []float64, cfg Config) (*Regressor, error) {
	if err := validate(X, y); err != nil {
		return nil, err
	}
	r := &Regressor{cfg: cfg}
	if len(y) == 0 {
		return r, nil
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	r.base = mean

	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = mean
	}
	resid := make([]float64, len(y))
	tc := TreeConfig{MaxDepth: cfg.MaxDepth, MinLeafSize: cfg.MinLeafSize}
	g := newGrower(X, resid, tc)
	for m := 0; m < cfg.Stages; m++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		tree := g.fitTree()
		r.trees = append(r.trees, tree)
		for i := range pred {
			pred[i] += cfg.Rate * tree.Predict(X[i])
		}
	}
	return r, nil
}

// Predict returns the ensemble output for x.
func (r *Regressor) Predict(x []float64) float64 {
	out := r.base
	for _, t := range r.trees {
		out += r.cfg.Rate * t.Predict(x)
	}
	return out
}

// NumTrees returns the number of fitted boosting stages.
func (r *Regressor) NumTrees() int { return len(r.trees) }
