package warper

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/drift"
	"warper/internal/pool"
	"warper/internal/query"
	"warper/internal/simclock"
)

// Adapter is the Warper system (Figure 4): it owns the query pool, the
// learned components 𝔼/𝔾/𝔻, the picker ℙ, the drift detector, and a
// black-box reference to the CE model 𝕄 and the annotator 𝔸.
type Adapter struct {
	Cfg    Config
	M      ce.Estimator
	Pool   *pool.Pool
	Ledger *simclock.Ledger
	Picker *Picker
	// GenFunc overrides the synthetic-query source (the Table 10 "𝔾→AUG"
	// ablation swaps in Gaussian-noise augmentation). Nil uses the GAN
	// generator 𝔾.
	GenFunc func(p *pool.Pool, n int) []query.Predicate

	sch   *query.Schema
	ann   *annotator.Annotator
	comps *components
	det   *detector
	rng   *rand.Rand

	// src is the active ground-truth source: a.ann by default, or whatever
	// SetSource installed (typically a resilience.Resilient wrapper, under
	// test a resilience.Faulty). All period-time annotation — picked
	// entries, canary probes, rebase — goes through it.
	src annotator.Source
	// fallback is the lazily built sampled annotator used when src loses
	// more than MinLabelFraction of a batch.
	fallback annotator.Source

	// bestEvalGMQ tracks the best post-update error seen, for the
	// early-stop gain check (§3.4); stall counts consecutive periods with
	// no improvement over that best.
	bestEvalGMQ float64
	haveBest    bool
	stall       int
}

// Drift-threshold constants (§3.4): the initial threshold π on the accuracy
// gap δ_m (also the floor online tuning decays back to), the number of
// consecutive small-gain periods before π is raised, the factor it is raised
// by, and the cap on π growth (×initialPi).
const (
	initialPi      = 0.2
	earlyStopStall = 3
	piBoost        = 2.0
	maxPiGrowth    = 8.0
)

// Period constants the paper fixes once (§3.5) and no caller varies.
const (
	// errorBuckets is the stratification bucket count for the c1/c3 picker.
	errorBuckets = 5
	// pickerKNN is the neighbor count when assigning unlabeled queries to
	// error buckets by embedding distance.
	pickerKNN = 3
	// maxPoolGen bounds retained generated entries across periods.
	maxPoolGen = 4000
	// fallbackSampleRate is the row-sample rate of the approximate annotator
	// used when exact annotation loses more than Config.MinLabelFraction of
	// a batch.
	fallbackSampleRate = 0.1
)

// New builds an Adapter around a previously trained CE model. It fails only
// when the construction-time canary annotation fails (a training workload
// inconsistent with the live table's schema).
//
//   - m is the black-box CE model 𝕄, already trained on trainSet.
//   - ann is the annotator 𝔸 over the live table.
//   - trainSet is 𝕀train, used to seed the pool, pre-train the autoencoder
//     offline (§3.5) and anchor the δ_js reference workload.
func New(cfg Config, m ce.Estimator, sch *query.Schema, ann *annotator.Annotator, trainSet []query.Labeled) (*Adapter, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	a := &Adapter{
		Cfg:    cfg,
		M:      m,
		Pool:   pool.InitFromTraining(trainSet),
		Ledger: simclock.NewLedger(),
		Picker: &Picker{Strategy: StrategyWarper, Buckets: errorBuckets, KNN: pickerKNN},
		sch:    sch,
		ann:    ann,
		src:    ann,
		rng:    rng,
	}
	a.comps = newComponents(cfg, sch, ann.Table().NumRows(), rng)

	// Pre-train 𝔼 and 𝔾 offline as an autoencoder on 𝕀train (§3.5); this
	// one-time cost mirrors training the LM model offline.
	w := simclock.StartWatch()
	a.comps.UpdateAutoEncoder(a.Pool, 60)
	a.comps.EmbedAll(a.Pool)
	a.Ledger.Charge("pretrain", w.Stop())

	// Training-time error baseline for δ_m and the detector state.
	trainGMQ := ce.EvalGMQ(m, trainSet)
	var trainPreds []query.Predicate
	for _, lq := range trainSet {
		trainPreds = append(trainPreds, lq.Pred)
	}
	canaryCount := cfg.Canaries
	if canaryCount > len(trainSet) {
		canaryCount = len(trainSet)
	}
	canaries := &drift.Canaries{}
	if canaryCount > 0 {
		var err error
		canaries, err = drift.NewCanaries(context.Background(), canaryCount, staticGen(trainPreds), ann, rng)
		if err != nil {
			return nil, err
		}
	}
	a.det = &detector{
		cfg:        cfg,
		sch:        sch,
		telemetry:  &drift.DataTelemetry{Canaries: canaries},
		trainPreds: trainPreds,
		trainGMQ:   trainGMQ,
		pi:         initialPi,
		gamma:      cfg.Gamma,
	}
	return a, nil
}

// staticGen adapts a fixed predicate list to the workload.Generator shape
// needed by drift.NewCanaries without importing the workload package.
type staticGenT struct{ preds []query.Predicate }

func staticGen(preds []query.Predicate) staticGenT { return staticGenT{preds} }

func (s staticGenT) Gen(rng *rand.Rand) query.Predicate {
	return s.preds[rng.Intn(len(s.preds))].Clone()
}
func (s staticGenT) Name() string { return "canary" }

// Period stages, the index of Report.Stages. Every period reports every
// stage — one skipped by the drift mode (generate during a quiet period)
// reports a zero duration — so downstream per-stage histograms stay aligned
// with the period count.
const (
	StageDetect = iota
	StageGenerate
	StagePick
	StageAnnotate
	StageUpdate
)

// StageNames names the period stages, indexed like Report.Stages.
var StageNames = [...]string{"detect", "generate", "pick", "annotate", "update"}

// Report is the one record of an Algorithm-1 invocation: what the period
// decided and did, and where its time went.
type Report struct {
	Detection Detection
	// Generated is the number of synthetic queries added to the pool.
	Generated int
	// Annotated is the number of ground-truth computations spent (n_a).
	Annotated int
	// Picked is the number of distinct queries selected by ℙ.
	Picked int
	// Updated is true when 𝕄 was updated this period.
	Updated bool
	// EarlyStopped is true when the gain check raised π instead of adapting
	// further.
	EarlyStopped bool
	// GANLoss carries the last GAN losses when update_MultiTask ran.
	GANLoss ganLoss
	// TrainedSamples is the number of minibatch rows the learned components
	// (𝔼/𝔾/𝔻) consumed this period; TrainedSamples/Busy is the training
	// throughput an operator watches when sizing the adaptation budget.
	TrainedSamples int
	// Busy is the compute charged to the virtual clock this period.
	Busy time.Duration
	// Stages splits Busy by stage (indexed like StageNames): the period runs
	// on one clock whose every lap lands in exactly one stage and one Ledger
	// key, so Σ Stages == Busy and the period's Ledger deltas sum to Stages,
	// on error returns too.
	Stages [len(StageNames)]time.Duration

	// Partial is true when the ground-truth source lost part of the
	// annotation batch but the period proceeded with the labels it got
	// (≥ Config.MinLabelFraction of the request).
	Partial bool
	// AnnotateFailed counts annotation calls that failed this period
	// (after the source's own retries, if it wraps any).
	AnnotateFailed int
	// UsedFallback is true when the sampled fallback annotator supplied
	// labels because exact annotation fell below MinLabelFraction.
	UsedFallback bool
	// TelemetryDegraded is true when canary telemetry or its rebase failed
	// and was skipped; detection ran on the remaining signals.
	TelemetryDegraded bool
}

// Period runs one Warper invocation (Figure 3 + Algorithm 1) over the
// queries that arrived in the current adaptation period, without a deadline.
// Serving callers use PeriodCtx so a request deadline bounds the period.
func (a *Adapter) Period(arrivals []Arrival) (Report, error) {
	return a.PeriodCtx(context.Background(), arrivals)
}

// Table returns the live table behind the adapter's annotator. Serving
// layers use it to build data-driven fallback estimators (equi-depth
// histograms) that stay answerable when the learned model cannot be
// reached; treat it as read-owned by the annotation pipeline.
func (a *Adapter) Table() *dataset.Table { return a.ann.Table() }

// ModelSnapshot returns a private deep copy of the current model M, the
// swap seam serving layers build their replica pools from: the snapshot
// shares no mutable state with M, so it can serve estimates while a period
// mutates M. It must not be called concurrently with a running Period or
// another snapshot — both clone from (and advance the RNG of) the same M.
func (a *Adapter) ModelSnapshot() ce.Estimator { return a.M.Clone() }

// PeriodCtx runs one Warper invocation (Figure 3 + Algorithm 1) over the
// queries that arrived in the current adaptation period.
//
// Annotation faults degrade before they abort: failed calls are skipped
// while at least Config.MinLabelFraction of the requested labels arrive;
// below that the sampled fallback fills in; only when even the fallback
// cannot reach the floor — or ctx is cancelled — does the period return an
// error. A non-nil error means the repair failed partway and the adapter's
// model may be partially updated: callers that serve traffic should discard
// a.M in favor of a pre-period clone so the previous model keeps serving.
func (a *Adapter) PeriodCtx(ctx context.Context, arrivals []Arrival) (rep Report, err error) {
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	clk := periodClock{watch: simclock.StartWatch(), rep: &rep, ledger: a.Ledger, stage: StageDetect, key: "detect"}
	defer func() {
		clk.lap()
		if err == nil {
			// Samples trained during a period that errored out are
			// attributed to the next period that completes.
			rep.TrainedSamples = a.comps.TakeTrained()
		}
	}()

	tbl := a.ann.Table()
	recent := lastN(a.Pool.LabeledBySource(pool.SrcNew), 90)
	det, err := a.det.detect(ctx, arrivals, recent, a.M, a.src, tbl.ChangedFraction())
	rep.Detection, rep.TelemetryDegraded = det, det.TelemetryDegraded
	if err != nil {
		return rep, err
	}

	// Line 1: inject arrivals into the pool regardless of mode.
	var newEntries []*pool.Entry
	for _, ar := range arrivals {
		newEntries = append(newEntries, a.Pool.AddNew(ar.Pred, ar.GT, ar.HasGT))
	}

	if det.Mode == ModeNone {
		// Quiet period: relax an early-stop-raised π back toward its base
		// value so a later real drift (or resumed progress) re-triggers
		// detection rather than staying silenced forever.
		if a.det.pi > initialPi {
			a.det.pi = maxF(initialPi, a.det.pi*0.8)
		}
		return rep, nil
	}

	if det.FreshC1 {
		// A new data drift: every stored label may be outdated. (A pending
		// c1 continuation must not re-stale freshly re-annotated entries.)
		a.Pool.MarkAllStale()
		// Fresh arrivals with execution feedback are current by definition.
		for i, ar := range arrivals {
			if ar.HasGT {
				newEntries[i].GT = ar.GT
				newEntries[i].Stale = false
			}
		}
		tbl.ResetChangeTracking()
	}

	// Lines 3–8: update the learned components; generate when in c2.
	if det.Mode.Has(C2) {
		clk.enter(StageGenerate, "gan")
		rep.GANLoss = a.comps.UpdateMultiTask(a.Pool, a.Cfg.NIters)

		nGen := int(a.Cfg.GenFraction * float64(maxI(det.NT, 1)))
		if nGen >= 1 { // §4.3: generator disabled when n_g < 1
			clk.enter(StageGenerate, "gen")
			genFn := a.GenFunc
			if genFn == nil {
				genFn = a.comps.Generate
			}
			preds := genFn(a.Pool, nGen)
			for _, p := range preds {
				a.Pool.AddGenerated(p)
			}
			rep.Generated = len(preds)
		}
	} else {
		clk.enter(StageGenerate, "ae")
		a.comps.UpdateAutoEncoder(a.Pool, 2)
	}

	// Refresh embeddings so the picker sees current z (and the freshly
	// generated entries get theirs, with l' and s').
	clk.enter(StageGenerate, "embed")
	a.comps.EmbedAll(a.Pool)
	a.comps.ClassifyAll(a.Pool.BySource(pool.SrcGen))

	// Line 9: pick queries and annotate them.
	clk.enter(StagePick, "pick")
	picked := a.pick(det.Mode)
	rep.Picked = len(picked)

	clk.enter(StageAnnotate, "annotate")
	rep.Annotated, err = a.annotate(ctx, picked, &rep)
	if err != nil {
		return rep, err
	}

	// Line 10: update 𝕄 from the pool. A failed update aborts the period:
	// the caller keeps its pre-period model, and the pool/detector state
	// stays consistent for the next attempt.
	clk.enter(StageUpdate, "model")
	if err := a.updateModel(picked); err != nil {
		return rep, err
	}
	rep.Updated = true

	// The rest of the update stage — the early-stop evaluation and the pool
	// and canary maintenance below — is no part of Table 6's model-update
	// cost, so it runs under its own ledger key.
	clk.enter(StageUpdate, "finish")

	// Early stop (§3.4): when the model stops improving on its best
	// observed error for several consecutive periods, raise π so det_drft
	// goes quiet until a larger drift appears. Comparing against the best
	// (not the previous period) makes the check robust to evaluation
	// noise, and π growth is capped so a real new drift can always
	// re-trigger detection.
	evalSet := a.Pool.LabeledBySource(pool.SrcNew)
	if len(evalSet) >= 10 {
		cur := ce.EvalGMQ(a.M, lastN(evalSet, 200))
		if !a.haveBest || cur < a.bestEvalGMQ-a.Cfg.GainEps {
			if !a.haveBest || cur < a.bestEvalGMQ {
				a.bestEvalGMQ = cur
			}
			a.haveBest = true
			a.stall = 0
			a.det.pi = initialPi
		} else {
			a.stall++
			if a.stall >= earlyStopStall {
				if a.det.pi < initialPi*maxPiGrowth {
					a.det.pi *= piBoost
				}
				rep.EarlyStopped = true
			}
			// γ online tuning: slow improvement under c4 suggests γ was
			// underestimated (§3.4).
			if det.Mode.Has(C4) {
				a.det.gamma = a.det.gamma * 3 / 2
			}
		}
	}

	a.Pool.TrimGenerated(maxPoolGen)
	if det.Mode.Has(C1) {
		// Rebase is best-effort: a flaky source must not abort a period
		// whose model update already succeeded. A skipped rebase leaves
		// the canary baselines stale, so the c1 signal may re-fire next
		// period and the rebase retries then.
		if err := a.det.telemetry.Canaries.Rebase(ctx, a.src); err != nil {
			if ctx.Err() != nil {
				return rep, ctx.Err()
			}
			rep.TelemetryDegraded = true
		}
		// Keep c1 pending while stale labels remain (unless the early stop
		// decided further adaptation is not worth it).
		staleLeft := false
		for _, pe := range a.Pool.Entries {
			if pe.Stale {
				staleLeft = true
				break
			}
		}
		a.det.pendingC1 = staleLeft && !rep.EarlyStopped
	}
	return rep, nil
}

// periodClock is the one clock of a period. lap closes the interval since
// the previous lap into the stage and Ledger key it ran under; enter does
// that and names what runs next. PeriodCtx defers the last lap, so every
// return path accounts for every instant since the period began exactly once.
type periodClock struct {
	watch  simclock.Stopwatch
	rep    *Report
	ledger *simclock.Ledger
	stage  int
	key    string
}

func (c *periodClock) lap() {
	d := c.watch.Lap()
	c.rep.Stages[c.stage] += d
	c.rep.Busy += d
	c.ledger.Charge(c.key, d)
}

func (c *periodClock) enter(stage int, key string) {
	c.lap()
	c.stage, c.key = stage, key
}

// pick runs ℙ according to the drift mode (Table 2).
func (a *Adapter) pick(mode Mode) []*pool.Entry {
	n := a.Cfg.PickSize
	switch {
	case mode.Has(C2):
		// Generated queries weighted by discriminator confidence — labeled
		// ones included, so previously annotated synthetic queries are
		// re-used only while they still resemble the new workload; freshly
		// arrived unlabeled queries ride along (they are the signal).
		cands := a.Pool.BySource(pool.SrcGen)
		picked := a.Picker.PickGenerated(cands, n, a.rng)
		return append(picked, a.Pool.Unlabeled(pool.SrcNew)...)
	case mode.Has(C1):
		// Re-annotate the most useful training-set queries.
		labeled := a.entriesWithAnyGT()
		return a.Picker.PickStratified(a.M, labeled, a.Pool.BySource(pool.SrcTrain), n, a.rng)
	case mode.Has(C3):
		// Annotate the most useful unlabeled new queries.
		labeled := a.entriesWithAnyGT()
		return a.Picker.PickStratified(a.M, labeled, a.Pool.Unlabeled(pool.SrcNew), n, a.rng)
	default: // c4: adequate labeled queries; nothing to pick.
		return nil
	}
}

// entriesWithAnyGT returns entries carrying a label, fresh or stale — stale
// labels still inform the error stratification.
func (a *Adapter) entriesWithAnyGT() []*pool.Entry {
	var out []*pool.Entry
	for _, e := range a.Pool.Entries {
		if e.GT >= 0 {
			out = append(out, e)
		}
	}
	return out
}

// annotate computes ground truth for picked entries that lack a fresh label,
// honoring the annotation budget and deadline. It returns the number of
// labels obtained and records degradation in rep.
//
// The ladder: failed exact calls are skipped; when at least
// MinLabelFraction of the requested labels arrive, the period proceeds
// partial. Below the floor, the sampled fallback annotator labels the
// remainder (noisy labels beat no labels, §2); its labels are committed only
// if they lift the fraction over the floor, so an abort never leaves
// approximate cardinalities in the pool. Cancellation of the parent ctx
// aborts immediately — that is the caller giving up, not the source failing.
func (a *Adapter) annotate(ctx context.Context, picked []*pool.Entry, rep *Report) (int, error) {
	budget := a.Cfg.AnnotateBudget
	var todo []*pool.Entry
	for _, e := range picked {
		if e.HasGT() {
			continue
		}
		if budget > 0 && len(todo) >= budget {
			break
		}
		todo = append(todo, e)
	}
	if len(todo) == 0 {
		return 0, nil
	}

	actx := ctx
	cancel := func() {}
	if a.Cfg.AnnotateDeadline > 0 {
		actx, cancel = context.WithTimeout(ctx, a.Cfg.AnnotateDeadline)
	}
	defer cancel()

	count := 0
	for _, e := range todo {
		if ctx.Err() != nil {
			return count, ctx.Err()
		}
		if actx.Err() != nil {
			break // annotation deadline expired: degrade with what we have
		}
		card, err := a.src.Count(actx, e.Pred)
		if err != nil {
			if ctx.Err() != nil {
				return count, ctx.Err()
			}
			rep.AnnotateFailed++
			continue
		}
		e.GT = card
		e.Stale = false
		count++
	}
	if count == len(todo) {
		return count, nil
	}
	if frac := float64(count) / float64(len(todo)); frac >= a.Cfg.MinLabelFraction {
		rep.Partial = true
		return count, nil
	}

	// Exact annotation fell below the floor: try the sampled fallback for
	// the still-missing labels, staging them so a failed rescue leaves no
	// noisy labels behind.
	type staged struct {
		e    *pool.Entry
		card float64
	}
	var rescue []staged
	if fb, err := a.fallbackSource(); err == nil {
		for _, e := range todo {
			if e.HasGT() {
				continue
			}
			if ctx.Err() != nil {
				return count, ctx.Err()
			}
			card, ferr := fb.Count(ctx, e.Pred)
			if ferr != nil {
				if ctx.Err() != nil {
					return count, ctx.Err()
				}
				continue
			}
			rescue = append(rescue, staged{e, card})
		}
	}
	if frac := float64(count+len(rescue)) / float64(len(todo)); frac >= a.Cfg.MinLabelFraction {
		for _, s := range rescue {
			s.e.GT = s.card
			s.e.Stale = false
		}
		count += len(rescue)
		rep.Partial = true
		rep.UsedFallback = true
		return count, nil
	}
	return count, fmt.Errorf("warper: annotation got %d/%d labels, below the %.0f%% floor: aborting period",
		count, len(todo), a.Cfg.MinLabelFraction*100)
}

// fallbackSource lazily builds the sampled fallback annotator over the live
// table. It is seeded from the adapter's RNG, so the sampled rows — and
// with them the fallback labels — are a deterministic function of Config.
func (a *Adapter) fallbackSource() (annotator.Source, error) {
	if a.fallback == nil {
		s, err := annotator.NewSampled(a.ann.Table(), fallbackSampleRate, a.rng)
		if err != nil {
			return nil, err
		}
		a.fallback = s
	}
	return a.fallback, nil
}

// SetSource installs the active ground-truth source — typically the exact
// annotator behind a resilience.Resilient wrapper. A nil src restores the
// raw exact annotator.
func (a *Adapter) SetSource(src annotator.Source) {
	if src == nil {
		a.src = a.ann
		return
	}
	a.src = src
}

// Source returns the active ground-truth source.
func (a *Adapter) Source() annotator.Source { return a.src }

// updateModel runs line 10 of Algorithm 1: fine-tuning models get the
// labeled picked/new queries; re-training models get the full labeled pool.
// A backend that cannot produce a model (e.g. a failed kernel solve)
// surfaces as an error.
func (a *Adapter) updateModel(picked []*pool.Entry) error {
	if a.M.Policy() == ce.Retrain {
		all := a.Pool.Labeled()
		if len(all) > 0 {
			return a.M.Update(all)
		}
		return nil
	}
	// Fine-tune on the labeled picked set (which re-samples the useful
	// generated queries by current discriminator confidence) plus every
	// labeled new arrival accumulated in the pool — the pool is Warper's
	// advantage over plain fine-tuning, which only ever sees the fresh
	// arrivals.
	seen := map[*pool.Entry]bool{}
	var examples []query.Labeled
	add := func(e *pool.Entry) {
		if e.HasGT() && !seen[e] {
			seen[e] = true
			examples = append(examples, query.Labeled{Pred: e.Pred, Card: e.GT})
		}
	}
	for _, e := range picked {
		add(e)
	}
	for _, e := range a.Pool.BySource(pool.SrcNew) {
		add(e)
	}
	if len(examples) > 0 {
		return a.M.Update(examples)
	}
	return nil
}

// Gamma exposes the current (online-tuned) γ.
func (a *Adapter) Gamma() int { return a.det.gamma }

// Pi exposes the current drift threshold π.
func (a *Adapter) Pi() float64 { return a.det.pi }

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func lastN(xs []query.Labeled, n int) []query.Labeled {
	if len(xs) <= n {
		return xs
	}
	return xs[len(xs)-n:]
}
