package warper

import (
	"math"
	"math/rand"

	"warper/internal/nn"
	"warper/internal/pool"
	"warper/internal/query"
)

// components bundles the three learned Warper modules of Table 3:
//
//	encoder 𝔼:  (featurized predicate, gt signal) → z
//	generator 𝔾: z (+ noise) → featurized predicate    (also the AE decoder)
//	discriminator 𝔻: z → logits over {gen, new, train}
type components struct {
	enc  *nn.Network
	gen  *nn.Network
	disc *nn.Network

	sch      *query.Schema
	embedDim int

	optEnc  *nn.Adam
	optGen  *nn.Adam
	optDisc *nn.Adam
	rng     *rand.Rand

	// The networks' parameter lists, built once: Network.Params allocates.
	encParams, genParams, discParams []*nn.Param

	// gtScale normalizes log-cardinality inputs to the encoder.
	gtScale float64

	// trained counts minibatch rows consumed by AE/discriminator/generator
	// steps since the last TakeTrained call (feeds the per-period training
	// throughput in Report.TrainedSamples and /metrics).
	trained int

	arena stepArena
}

// stepArena holds every buffer a training step or an embedding refresh
// needs, reused across calls so that a steady-state GAN iteration allocates
// nothing. Everything is sized by the minibatch or by embedChunk rows, never
// by the pool.
type stepArena struct {
	encIn  nn.Mat // 𝔼 inputs: featurization + the two gt slots
	zIn    nn.Mat // 𝔾 / 𝔻 inputs: z + ε, or stored embeddings
	outG   nn.Mat // loss gradient at a network's output
	featG  nn.Mat // genStep: anchor-loss gradient, then dLoss/d𝔾-output
	anchor nn.Mat // genStep: the seeds' featurizations

	batch   []*pool.Entry // the sampled minibatch
	picks   []*pool.Entry // generator seeds for the throw-away fakes
	missing []*pool.Entry // entries found without an embedding
	fakes   []pool.Entry  // throw-away generated entries for 𝔻

	sigma, mean []float64 // embeddingStd result and its scratch
	probs       [numClasses]float64
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
)

// embedChunk is the row count of one batched 𝔼/𝔻 refresh pass: whole-pool
// refreshes run in chunks of this size so the networks' activation arenas
// are sized by it, not by the pool.
const embedChunk = 256

// oneHot holds the discriminator's three target distributions.
var oneHot = [numClasses][numClasses]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}

// TakeTrained returns the number of samples trained since the last call and
// resets the counter.
func (c *components) TakeTrained() int {
	n := c.trained
	c.trained = 0
	return n
}

// discriminator class indices: the source order {gen, new, train} from §3.3.
const (
	classGen   = 0
	classNew   = 1
	classTrain = 2
	numClasses = 3
)

// sourceOf maps a discriminator class back to the pool source it stands for.
var sourceOf = [numClasses]pool.Source{classGen: pool.SrcGen, classNew: pool.SrcNew, classTrain: pool.SrcTrain}

func classOf(s pool.Source) int {
	switch s {
	case pool.SrcGen:
		return classGen
	case pool.SrcNew:
		return classNew
	default:
		return classTrain
	}
}

// newComponents builds 𝔼, 𝔾, 𝔻 per Table 3 (with configurable width/depth
// for the Figure 10 sweep). nRows scales the encoder's gt input.
func newComponents(cfg Config, sch *query.Schema, nRows int, rng *rand.Rand) *components {
	featDim := sch.FeatureDim()
	encIn := featDim + 2 // features + normalized log-gt + has-gt flag
	c := &components{
		sch:      sch,
		embedDim: cfg.EmbedDim,
		rng:      rng,
		gtScale:  math.Log1p(float64(nRows) + 1),
	}
	// A tanh bottleneck bounds z to [-1,1]^k: unbounded embeddings make the
	// decoder brittle under the ε perturbation and destabilize 𝔻 training.
	enc := nn.MLP(encIn, cfg.Hidden, cfg.Depth, cfg.EmbedDim, rng)
	enc.Layers = append(enc.Layers, nn.NewTanh())
	c.enc = enc
	// 𝔾 maps z → m (the featurization consumed by 𝕄). The output layer is
	// linear — query.Unfeaturize clamps into the unit feature box; a sigmoid
	// here would saturate at the (very common) 0/1 feature values and kill
	// the reconstruction gradient exactly where predicates deviate.
	c.gen = nn.MLP(cfg.EmbedDim, cfg.Hidden, cfg.Depth, featDim, rng)
	// 𝔻 is a single FC layer (Table 3).
	c.disc = nn.NewNetwork(nn.NewDense(cfg.EmbedDim, numClasses, rng))

	// §3.5 trains with lr=1e-3; Adam (the sklearn/PyTorch default the paper
	// builds on) converges in the few hundred steps available per
	// invocation, where plain SGD at this rate would not.
	c.optEnc = nn.NewAdam(learningRate)
	c.optGen = nn.NewAdam(learningRate)
	c.optDisc = nn.NewAdam(learningRate)
	c.encParams, c.genParams, c.discParams = c.enc.Params(), c.gen.Params(), c.disc.Params()
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

// EmbedAll refreshes the embedding of every entry (each Algorithm-1
// invocation re-embeds so stale z never lingers after 𝔼 updates).
func (c *components) EmbedAll(p *pool.Pool) {
	c.embedEntries(p.Entries)
}

// embedMissing embeds the entries that carry no embedding of the configured
// width yet.
func (c *components) embedMissing(entries []*pool.Entry) {
	missing := c.arena.missing[:0]
	for _, e := range entries {
		if len(e.Z) != c.embedDim {
			missing = append(missing, e)
		}
	}
	c.arena.missing = missing
	c.embedEntries(missing)
}

// ClassifyAll refreshes l', s' for the given entries — the discriminator's
// predicted origin and the softmax probability that the predicate resembles
// the new workload — with batched 𝔻 passes of at most embedChunk rows over
// their embeddings.
func (c *components) ClassifyAll(entries []*pool.Entry) {
	c.embedMissing(entries)
	for len(entries) > 0 {
		chunk := entries[:min(len(entries), embedChunk)]
		entries = entries[len(chunk):]
		c.arena.zIn = c.arena.zIn.Resized(len(chunk), c.embedDim)
		zm := c.arena.zIn
		for i, e := range chunk {
			copy(zm.Row(i), e.Z)
		}
		logits := c.disc.BatchForward(zm)
		for i, e := range chunk {
			probs := nn.SoftmaxInto(c.arena.probs[:], logits.Row(i))
			best := classGen
			for k := 1; k < numClasses; k++ {
				if probs[k] > probs[best] {
					best = k
				}
			}
			e.PredSource = sourceOf[best]
			e.Conf = probs[classNew]
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
		total += nn.LossGradInto(nn.L1{}, g.Row(r), nil, rec.Row(r), in.Row(r)[:featDim])
	}
	scale := 1 / float64(b)
	gz := c.gen.BatchBackward(g, scale)
	c.enc.BatchBackward(gz, scale)
	c.trained += b
	c.optEnc.Step(c.encParams)
	c.optGen.Step(c.genParams)
	return total / float64(b)
}

// UpdateAutoEncoder implements update_AutoEncoder (§3.3) over the whole pool
// for the given number of epochs, regardless of label availability.
func (c *components) UpdateAutoEncoder(p *pool.Pool, epochs int) float64 {
	entries := p.Entries
	if len(entries) == 0 {
		return 0
	}
	var last float64
	for e := 0; e < epochs; e++ {
		perm := c.rng.Perm(len(entries))
		var epochLoss float64
		var batches int
		for start := 0; start < len(perm); start += batchSize {
			batch := c.arena.batch[:0]
			for _, j := range perm[start:min(start+batchSize, len(perm))] {
				batch = append(batch, entries[j])
			}
			c.arena.batch = batch
			epochLoss += c.aeStep(batch)
			batches++
		}
		last = epochLoss / float64(batches)
	}
	return last
}

// discStep trains 𝔻 on one minibatch with the 3-class cross-entropy
// 𝓛_discr = CE(l, l_d). 𝔼 provides embeddings (one batched forward, fresh so
// post-AE-step weights are used) but is held fixed here; it learns through
// the autoencoder task each iteration.
func (c *components) discStep(batch []*pool.Entry) float64 {
	if len(batch) == 0 {
		return 0
	}
	b := len(batch)
	a := &c.arena
	a.encIn = a.encIn.Resized(b, c.sch.FeatureDim()+2)
	a.outG = a.outG.Resized(b, numClasses)
	in, g := a.encIn, a.outG
	for i, e := range batch {
		c.encoderInputInto(e, in.Row(i))
	}
	z := c.enc.BatchForward(in)
	logits := c.disc.BatchForward(z)
	var total float64
	for r := 0; r < b; r++ {
		target := oneHot[classOf(batch[r].Source)][:]
		total += nn.LossGradInto(nn.SoftmaxCrossEntropy{}, g.Row(r), a.probs[:], logits.Row(r), target)
	}
	c.disc.BatchBackward(g, 1/float64(b))
	c.trained += b
	c.optDisc.Step(c.discParams)
	return total / float64(b)
}

// genAnchorWeight balances the adversarial objective against an L1 anchor to
// the seed predicate's featurization. The anchor keeps 𝔾 a usable decoder:
// without it the adversarial gradient collapses 𝔾 to a single fooling point
// and the generated queries stop resembling any real workload.
const (
	genAnchorWeight = 1.0
	genAdvWeight    = 0.2
)

// noiseScale shrinks the ε noise below the raw per-dimension embedding std:
// seeding with z + N(0, σ²) would double the generated distribution's
// variance relative to the real new workload, which measurably widens it
// (higher δ_js to the target workload).
const noiseScale = 0.4

// genStep trains 𝔾 adversarially: z+ε → 𝔾 → q_gen → 𝔼 → z' → 𝔻 → l', with
// 𝓛_gen = CE(l', new) + anchor·L1(q_gen, q_seed). Gradients flow through 𝔻
// and 𝔼 but only 𝔾 steps.
func (c *components) genStep(seeds []*pool.Entry, sigma []float64) float64 {
	if len(seeds) == 0 {
		return 0
	}
	b := len(seeds)
	featDim := c.sch.FeatureDim()
	a := &c.arena
	c.embedMissing(seeds)
	a.zIn = a.zIn.Resized(b, c.embedDim)
	a.encIn = a.encIn.Resized(b, featDim+2)
	a.outG = a.outG.Resized(b, numClasses)
	a.featG = a.featG.Resized(b, featDim)
	a.anchor = a.anchor.Resized(b, featDim)
	zin, encIn, gCE, gFeat, anchor := a.zIn, a.encIn, a.outG, a.featG, a.anchor

	for i, seed := range seeds {
		c.noisyInto(zin.Row(i), seed.Z, sigma)
	}
	feat := c.gen.BatchForward(zin)
	// Pad generated featurizations into encoder inputs; the two gt slots are
	// zero (no ground truth for synthetic queries).
	for r := 0; r < b; r++ {
		row := encIn.Row(r)
		copy(row, feat.Row(r))
		row[featDim], row[featDim+1] = 0, 0
	}
	z2 := c.enc.BatchForward(encIn)
	logits := c.disc.BatchForward(z2)

	// Per row: the adversarial gradient (scaled in place) goes back through
	// 𝔻 and 𝔼; the anchor gradient waits in gFeat for what comes back.
	var total float64
	target := oneHot[classNew][:]
	for r := 0; r < b; r++ {
		seeds[r].Pred.FeaturizeInto(c.sch, anchor.Row(r))
		adv := nn.LossGradInto(nn.SoftmaxCrossEntropy{}, gCE.Row(r), a.probs[:], logits.Row(r), target)
		total += genAdvWeight*adv + genAnchorWeight*nn.LossGradInto(nn.L1{}, gFeat.Row(r), nil, feat.Row(r), anchor.Row(r))
		row := gCE.Row(r)
		for i := range row {
			row[i] = genAdvWeight * row[i]
		}
	}
	// Gradients flow through 𝔻 and 𝔼 as data only (BatchBackwardData leaves
	// their parameter gradients alone): only 𝔾 steps here.
	gz2 := c.disc.BatchBackwardData(gCE)
	gEncIn := c.enc.BatchBackwardData(gz2)
	for r := 0; r < b; r++ {
		row, back := gFeat.Row(r), gEncIn.Row(r)
		for i := range row {
			row[i] = back[i] + genAnchorWeight*row[i]
		}
	}
	c.gen.BatchBackward(gFeat, 1/float64(b))
	c.trained += b
	c.optGen.Step(c.genParams)
	return total / float64(b)
}

// noisyInto writes z + ε into dst, with ε ~ N(0, (noiseScale·σ)²) per
// dimension (§3.2: σ derives from the std of the embeddings of previously
// seen predicates).
func (c *components) noisyInto(dst, z, sigma []float64) {
	for i := range z {
		dst[i] = z[i] + c.rng.NormFloat64()*sigma[i]*noiseScale
	}
}

// embeddingStd computes the per-dimension population std of the given
// entries' embeddings (entries without one are left out), reading the
// embeddings in place. The result lives in the step arena and is valid until
// the next call.
func (c *components) embeddingStd(entries []*pool.Entry) []float64 {
	a := &c.arena
	if len(a.sigma) != c.embedDim {
		a.sigma = make([]float64, c.embedDim)
		a.mean = make([]float64, c.embedDim)
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
	clear(mean)
	n := 0
	for _, e := range entries {
		if len(e.Z) == c.embedDim {
			n++
			for d, z := range e.Z {
				mean[d] += z
			}
		}
	}
	for d := range mean {
		mean[d] /= float64(n)
	}
	clear(sigma)
	for _, e := range entries {
		if len(e.Z) == c.embedDim {
			for d, z := range e.Z {
				dev := z - mean[d]
				sigma[d] += dev * dev
			}
		}
	}
	for d := range sigma {
		sigma[d] = math.Sqrt(sigma[d] / float64(n))
		if n < 2 || sigma[d] <= 0 {
			sigma[d] = 0.05
		}
	}
	return sigma
}

// ganLoss is one combined measurement of 𝓛_GAN = 𝓛_gen + 𝓛_discr used for
// the convergence-based early stop in the GAN loop.
type ganLoss struct{ AE, Gen, Disc float64 }

func (g ganLoss) total() float64 { return g.Gen + g.Disc }

// UpdateMultiTask implements update_MultiTask (§3.3): up to nIters GAN
// iterations (see ganIteration). It early-stops when 𝓛_GAN converges (§3.5).
func (c *components) UpdateMultiTask(p *pool.Pool, nIters int) ganLoss {
	newEntries := p.BySource(pool.SrcNew)
	if len(newEntries) == 0 {
		// Nothing to imitate; fall back to the autoencoder task.
		c.UpdateAutoEncoder(p, 1)
		return ganLoss{}
	}
	// Only the new-workload embeddings are read below (noise scale, seeds);
	// every caller re-embeds the whole pool once 𝔼 has stopped moving.
	c.embedEntries(newEntries)
	var last ganLoss
	prev := math.Inf(1)
	stall := 0
	for it := 0; it < nIters; it++ {
		last = c.ganIteration(p, newEntries)

		// Early stop when 𝓛_GAN stops improving.
		if math.Abs(prev-last.total()) < 1e-3 {
			stall++
			if stall >= 5 {
				break
			}
		} else {
			stall = 0
		}
		prev = last.total()
	}
	return last
}

// ganIteration is one round of the three tasks: an autoencoder step (so 𝔼/𝔾
// keep adapting on the fly), a discriminator step over {gen,new,train}
// samples, and an adversarial generator step from new-workload embeddings.
// In steady state it allocates nothing.
func (c *components) ganIteration(p *pool.Pool, newEntries []*pool.Entry) ganLoss {
	a := &c.arena
	var l ganLoss

	// Task 1: autoencoder minibatch over the whole pool.
	a.batch = sampleInto(a.batch[:0], p.Entries, batchSize, c.rng)
	l.AE = c.aeStep(a.batch)

	// Task 2: discriminator on real pool entries plus freshly generated
	// fakes so 𝔻 sees all three classes.
	a.batch = sampleInto(a.batch[:0], p.Entries, batchSize/2, c.rng)
	sigma := c.embeddingStd(newEntries)
	a.batch = c.appendFakes(a.batch, newEntries, batchSize/2, sigma)
	l.Disc = c.discStep(a.batch)

	// Task 3: adversarial generator step seeded from new-workload
	// embeddings.
	a.batch = sampleInto(a.batch[:0], newEntries, batchSize/2, c.rng)
	l.Gen = c.genStep(a.batch, sigma)
	return l
}

// generateFeats synthesizes n featurizations seeded from random
// new-workload embeddings: one batched 𝔼 refresh over the picks (𝔼 may have
// changed since their Z was cached) plus one batched 𝔾 pass. The returned
// matrix is a scratch view valid until the next 𝔾 batch operation.
func (c *components) generateFeats(newEntries []*pool.Entry, n int, sigma []float64) nn.Mat {
	a := &c.arena
	a.picks = sampleInto(a.picks[:0], newEntries, n, c.rng)
	c.embedEntries(a.picks)
	a.zIn = a.zIn.Resized(n, c.embedDim)
	for i, e := range a.picks {
		c.noisyInto(a.zIn.Row(i), e.Z, sigma)
	}
	return c.gen.BatchForward(a.zIn)
}

// appendFakes synthesizes n throwaway entries (never added to the pool) for
// discriminator training and appends them to dst. They live in the step
// arena and are overwritten by the next call.
func (c *components) appendFakes(dst, newEntries []*pool.Entry, n int, sigma []float64) []*pool.Entry {
	feats := c.generateFeats(newEntries, n, sigma)
	a := &c.arena
	for len(a.fakes) < n {
		a.fakes = append(a.fakes, pool.Entry{Pred: query.NewFullRange(c.sch), GT: pool.NoGT, Source: pool.SrcGen})
	}
	for i := 0; i < n; i++ {
		query.UnfeaturizeInto(feats.Row(i), c.sch, a.fakes[i].Pred)
		dst = append(dst, &a.fakes[i])
	}
	return dst
}

// Generate implements pool.gen(𝔾, 𝔼, n): n synthetic predicates seeded from
// the embeddings of newly arrived queries plus Gaussian noise.
func (c *components) Generate(p *pool.Pool, n int) []query.Predicate {
	newEntries := p.BySource(pool.SrcNew)
	if len(newEntries) == 0 || n <= 0 {
		return nil
	}
	sigma := c.embeddingStd(newEntries)
	feats := c.generateFeats(newEntries, n, sigma)
	out := make([]query.Predicate, n)
	for i := range out {
		out[i] = query.Unfeaturize(feats.Row(i), c.sch)
	}
	return out
}
