// Package warper implements the paper's core contribution: a model-agnostic
// adaptation layer that detects data and workload drifts (det_drft, §3.1),
// synthesizes realistic predicates with a 3-class GAN when new queries are
// scarce (𝔼/𝔾/𝔻, §3.3), picks the most useful queries to annotate (ℙ, §3.2)
// and updates the underlying CE model (Algorithm 1), with the early-stopping
// and γ-tuning robustness mechanisms of §3.4.
package warper

// Config holds the tunables some caller varies (the Figure 10/11 sweeps,
// the experiments' scales, the examples); what the paper fixes once lives as
// constants beside its readers in components.go and adapter.go. Zero values
// are replaced with the paper's defaults by withDefaults.
type Config struct {
	// EmbedDim is |z|, the encoder output width. Table 3 fixes it at 16 and
	// every caller outside the tests leaves it there; it stays a field
	// because the component tests train at |z| = 8.
	EmbedDim int
	// Hidden and Depth shape 𝔼 and 𝔾 (Table 3 uses 3 hidden FC-128 layers);
	// Figure 10 sweeps these.
	Hidden int
	Depth  int
	// NIters is n_i, the per-invocation cap on GAN update iterations (§3.5
	// uses 100 with early stopping on loss convergence).
	NIters int

	// GenFraction sets n_g = GenFraction·n_t generated queries per step
	// (§4.1 uses 10%); the generator is disabled when n_g < 1.
	GenFraction float64
	// PickSize is n_p, the number of queries the picker returns (§4.1 uses
	// a fixed 1K; scaled deployments set it near their γ).
	PickSize int
	// AnnotateBudget caps annotations per invocation (n_a). 0 = unlimited.
	AnnotateBudget int

	// Gamma is γ, the number of annotated queries needed for a robust
	// model, estimated offline from the training curve and tuned online.
	Gamma int

	// Canaries is the number of canary predicates for data-drift telemetry.
	// Every caller outside the tests leaves it at 10; it stays a field
	// because the canary draws share the adapter's RNG stream and
	// TestGoldenBitsLM/TestGoldenBitsMSCN were pinned at 5.
	Canaries int

	// Seed drives all of Warper's internal randomness.
	Seed int64
}

// DefaultConfig returns the §3.5/§4.1 settings scaled to this reproduction.
func DefaultConfig() Config {
	return Config{
		EmbedDim:       16,
		Hidden:         128,
		Depth:          3,
		NIters:         100,
		GenFraction:    0.1,
		PickSize:       1000,
		AnnotateBudget: 0,
		Gamma:          400,
		Canaries:       10,
		Seed:           1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.EmbedDim <= 0 {
		c.EmbedDim = d.EmbedDim
	}
	if c.Hidden <= 0 {
		c.Hidden = d.Hidden
	}
	if c.Depth <= 0 {
		c.Depth = d.Depth
	}
	if c.NIters <= 0 {
		c.NIters = d.NIters
	}
	if c.GenFraction <= 0 {
		c.GenFraction = d.GenFraction
	}
	if c.PickSize <= 0 {
		c.PickSize = d.PickSize
	}
	if c.Gamma <= 0 {
		c.Gamma = d.Gamma
	}
	if c.Canaries <= 0 {
		c.Canaries = d.Canaries
	}
	return c
}
