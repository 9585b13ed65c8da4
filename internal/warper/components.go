package warper

import (
	"math"
	"math/rand"

	"warper/internal/nn"
	"warper/internal/pool"
	"warper/internal/query"
)

// components bundles Warper's learned modules of Table 3, trained together
// as one autoencoder (§3.3's update_AutoEncoder):
//
//	encoder 𝔼:  (featurized predicate, gt signal) → z
//	generator 𝔾: z (+ noise) → featurized predicate    (also the AE decoder)
//
// The paper also trains 𝔾 against a 3-class discriminator 𝔻 {gen, new,
// train}; this implementation does not (DESIGN.md §5, "No discriminator").
type components struct {
	enc *nn.Network
	gen *nn.Network

	sch *query.Schema

	optEnc *nn.Adam
	optGen *nn.Adam
	rng    *rand.Rand

	// The networks' parameter lists, built once: Network.Params allocates.
	encParams, genParams []*nn.Param

	// gtScale normalizes log-cardinality inputs to the encoder.
	gtScale float64

	// trained counts minibatch rows consumed by autoencoder steps since the
	// last TakeTrained call (feeds the per-period training throughput in
	// Report.TrainedSamples and /metrics).
	trained int

	arena stepArena
}

// stepArena holds every buffer a training step, an embedding refresh or a
// generation needs, reused across calls so that a steady-state autoencoder
// step allocates nothing. Everything is sized by the minibatch, by
// embedChunk rows or by the generation count, never by the pool.
type stepArena struct {
	encIn nn.Mat // 𝔼 inputs: featurization + the two gt slots
	zIn   nn.Mat // 𝔾 inputs: z + ε
	outG  nn.Mat // loss gradient at 𝔾's output

	batch []*pool.Entry // the minibatch
	picks []*pool.Entry // generator seeds

	sigma, mean []float64 // embeddingStd result and its scratch
}

// Training hyper-parameters the paper fixes once (§3.5 / Table 3) and never
// sweeps; Figure 10 varies only width and depth, which stay in Config.
const (
	// batchSize is the minibatch size for component training.
	batchSize = 32
	// learningRate is the component learning rate (§3.5: 1e-3). It stays
	// constant: the paper halves it every 10 epochs, this implementation
	// never does (Adam steps at this rate throughout; see DESIGN.md).
	learningRate = 1e-3
	// periodSteps is n_i (§3.5), the autoencoder minibatches one period
	// trains: a fixed budget, so a period's training cost stays the same as
	// the pool grows.
	periodSteps = 100
)

// embedDim is |z|, the encoder output width (Table 3).
const embedDim = 16

// embedChunk is the row count of one batched 𝔼 refresh pass: refreshes run
// in chunks of this size so the networks' activation arenas are sized by it,
// not by the pool.
const embedChunk = 256

// TakeTrained returns the number of samples trained since the last call and
// resets the counter.
func (c *components) TakeTrained() int {
	n := c.trained
	c.trained = 0
	return n
}

// newComponents builds 𝔼 and 𝔾 per Table 3 (with configurable width/depth
// for the Figure 10 sweep). nRows scales the encoder's gt input.
func newComponents(cfg Config, sch *query.Schema, nRows int, rng *rand.Rand) *components {
	featDim := sch.FeatureDim()
	encIn := featDim + 2 // features + normalized log-gt + has-gt flag
	c := &components{
		sch:     sch,
		rng:     rng,
		gtScale: math.Log1p(float64(nRows) + 1),
	}
	// A tanh bottleneck bounds z to [-1,1]^k: unbounded embeddings make the
	// decoder brittle under the ε perturbation.
	enc := nn.MLP(encIn, cfg.Hidden, cfg.Depth, embedDim, rng)
	enc.Layers = append(enc.Layers, nn.NewTanh())
	c.enc = enc
	// 𝔾 maps z → m (the featurization consumed by 𝕄). The output layer is
	// linear — query.Unfeaturize clamps into the unit feature box; a sigmoid
	// here would saturate at the (very common) 0/1 feature values and kill
	// the reconstruction gradient exactly where predicates deviate.
	c.gen = nn.MLP(embedDim, cfg.Hidden, cfg.Depth, featDim, rng)

	// §3.5 trains with lr=1e-3; Adam (the sklearn/PyTorch default the paper
	// builds on) converges in the few hundred steps available per
	// invocation, where plain SGD at this rate would not.
	c.optEnc = nn.NewAdam(learningRate)
	c.optGen = nn.NewAdam(learningRate)
	c.encParams, c.genParams = c.enc.Params(), c.gen.Params()
	return c
}

// encoderInputInto writes the 𝔼 input for e into dst (len FeatureDim()+2):
// the featurized predicate plus the ground-truth signal when available and
// fresh (§3.2: "embed() uses the ground truth labels as an additional input
// ... whenever they are available and up-to-date").
func (c *components) encoderInputInto(e *pool.Entry, dst []float64) {
	d := c.sch.FeatureDim()
	e.Pred.FeaturizeInto(c.sch, dst[:d])
	if e.HasGT() {
		dst[d] = math.Log1p(e.GT) / c.gtScale
		dst[d+1] = 1
	} else {
		dst[d] = 0
		dst[d+1] = 0
	}
}

// embedEntries refreshes e.Z for every given entry with batched 𝔼 passes of
// at most embedChunk rows (duplicate entries are simply re-written with the
// same value). A row's embedding does not depend on what else is in its
// batch, so chunking changes no bits.
func (c *components) embedEntries(entries []*pool.Entry) {
	for len(entries) > 0 {
		chunk := entries[:min(len(entries), embedChunk)]
		entries = entries[len(chunk):]
		c.arena.encIn = c.arena.encIn.Resized(len(chunk), c.sch.FeatureDim()+2)
		in := c.arena.encIn
		for i, e := range chunk {
			c.encoderInputInto(e, in.Row(i))
		}
		z := c.enc.BatchForward(in)
		for i, e := range chunk {
			e.Z = append(e.Z[:0], z.Row(i)...)
		}
	}
}

// sampleEntries draws n entries uniformly with replacement.
func sampleEntries(entries []*pool.Entry, n int, rng *rand.Rand) []*pool.Entry {
	if len(entries) == 0 {
		return nil
	}
	return sampleInto(make([]*pool.Entry, 0, n), entries, n, rng)
}

// sampleInto appends n entries drawn uniformly with replacement to dst.
func sampleInto(dst, entries []*pool.Entry, n int, rng *rand.Rand) []*pool.Entry {
	if len(entries) == 0 {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, entries[rng.Intn(len(entries))])
	}
	return dst
}

// aeStep runs one autoencoder minibatch: q → 𝔼 → z → 𝔾 → q̂ with L1
// reconstruction loss (Eq. 1), updating 𝔼 and 𝔾. The whole batch moves
// through both networks as matrices (one batched forward/backward pair per
// network instead of per-sample calls).
func (c *components) aeStep(batch []*pool.Entry) float64 {
	if len(batch) == 0 {
		return 0
	}
	b := len(batch)
	featDim := c.sch.FeatureDim()
	a := &c.arena
	a.encIn = a.encIn.Resized(b, featDim+2)
	a.outG = a.outG.Resized(b, featDim)
	in, g := a.encIn, a.outG
	for i, e := range batch {
		c.encoderInputInto(e, in.Row(i))
	}
	z := c.enc.BatchForward(in)
	rec := c.gen.BatchForward(z)
	var total float64
	for r := 0; r < b; r++ {
		total += nn.LossGradInto(nn.L1{}, g.Row(r), rec.Row(r), in.Row(r)[:featDim])
	}
	scale := 1 / float64(b)
	gz := c.gen.BatchBackward(g, scale)
	c.enc.BatchBackward(gz, scale)
	c.trained += b
	c.optEnc.Step(c.encParams)
	c.optGen.Step(c.genParams)
	return total / float64(b)
}

// UpdateAutoEncoder implements update_AutoEncoder (§3.3) over the whole pool,
// regardless of label availability: steps minibatches drawn from successive
// random permutations of the pool, each pass ending in a partial batch. It
// returns the mean loss of those minibatches.
func (c *components) UpdateAutoEncoder(p *pool.Pool, steps int) float64 {
	entries := p.Entries
	if len(entries) == 0 {
		return 0
	}
	var perm []int
	var total float64
	for s, start := 0, 0; s < steps; s, start = s+1, start+batchSize {
		if start >= len(perm) {
			perm, start = c.rng.Perm(len(entries)), 0
		}
		batch := c.arena.batch[:0]
		for _, j := range perm[start:min(start+batchSize, len(perm))] {
			batch = append(batch, entries[j])
		}
		c.arena.batch = batch
		total += c.aeStep(batch)
	}
	return total / float64(steps)
}

// epochSteps is the minibatch count of n passes over the pool.
func epochSteps(p *pool.Pool, n int) int {
	return n * ((p.Len() + batchSize - 1) / batchSize)
}

// noiseScale shrinks the ε noise below the raw per-dimension embedding std:
// seeding with z + N(0, σ²) would double the generated distribution's
// variance relative to the real new workload, which measurably widens it
// (higher δ_js to the target workload).
const noiseScale = 0.4

// noisyInto writes z + ε into dst, with ε ~ N(0, (noiseScale·σ)²) per
// dimension (§3.2: σ derives from the std of the embeddings of previously
// seen predicates).
func (c *components) noisyInto(dst, z, sigma []float64) {
	for i := range z {
		dst[i] = z[i] + float64(c.rng.NormFloat64()*sigma[i]*noiseScale)
	}
}

// embeddingStd computes the per-dimension population std of the given
// entries' embeddings, reading them in place; every entry must carry one
// (Generate embeds its seeds first). The result lives in the step arena and
// is valid until the next call.
func (c *components) embeddingStd(entries []*pool.Entry) []float64 {
	a := &c.arena
	if len(a.sigma) != embedDim {
		a.sigma = make([]float64, embedDim)
		a.mean = make([]float64, embedDim)
	}
	sigma, mean := a.sigma, a.mean
	if len(entries) < 2 {
		for i := range sigma {
			sigma[i] = 0.1
		}
		return sigma
	}
	// Two passes, each dimension accumulating in entry order: mean, then the
	// mean squared deviation.
	n := float64(len(entries))
	clear(mean)
	for _, e := range entries {
		for d, z := range e.Z {
			mean[d] += z
		}
	}
	for d := range mean {
		mean[d] /= n
	}
	clear(sigma)
	for _, e := range entries {
		for d, z := range e.Z {
			dev := z - mean[d]
			sigma[d] += float64(dev * dev)
		}
	}
	for d := range sigma {
		sigma[d] = math.Sqrt(sigma[d] / n)
		if sigma[d] <= 0 {
			sigma[d] = 0.05
		}
	}
	return sigma
}

// generateFeats synthesizes n featurizations seeded from random
// new-workload embeddings with one batched 𝔾 pass. The returned matrix is a
// scratch view valid until the next 𝔾 batch operation.
func (c *components) generateFeats(newEntries []*pool.Entry, n int, sigma []float64) nn.Mat {
	a := &c.arena
	a.picks = sampleInto(a.picks[:0], newEntries, n, c.rng)
	a.zIn = a.zIn.Resized(n, embedDim)
	for i, e := range a.picks {
		c.noisyInto(a.zIn.Row(i), e.Z, sigma)
	}
	return c.gen.BatchForward(a.zIn)
}

// Generate implements pool.gen(𝔾, 𝔼, n): n synthetic predicates seeded from
// the embeddings of newly arrived queries plus Gaussian noise. It re-embeds
// the new queries first, so both the seeds and σ come from the current 𝔼.
func (c *components) Generate(p *pool.Pool, n int) []query.Predicate {
	newEntries := p.BySource(pool.SrcNew)
	if len(newEntries) == 0 || n <= 0 {
		return nil
	}
	c.embedEntries(newEntries)
	sigma := c.embeddingStd(newEntries)
	feats := c.generateFeats(newEntries, n, sigma)
	out := make([]query.Predicate, n)
	for i := range out {
		out[i] = query.Unfeaturize(feats.Row(i), c.sch)
	}
	return out
}
