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
// learned components 𝔼/𝔾, the picker ℙ, the drift detector, and a
// black-box reference to the CE model 𝕄 and the annotator 𝔸.
type Adapter struct {
	Cfg  Config
	M    ce.Estimator
	Pool *pool.Pool
	// Ledger is the §4.3 cost record: the one-time "pretrain" charge, then
	// every period's time under StageNames — the names a period's Report,
	// the serving metrics and the benchmark use. A resilience wrapper may
	// add "annotate_retry": its failed attempts, already inside whichever
	// stage called src (annotate, detect's canary probes, update's rebase).
	Ledger *simclock.Ledger
	Picker *Picker
	// GenFunc overrides the synthetic-query source (the Table 10 "𝔾→AUG"
	// ablation swaps in Gaussian-noise augmentation). Nil uses the
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
	// more than minLabelFraction of a batch; fallbackRows is the table's
	// row count when its sample was drawn.
	fallback     *annotator.Sampled
	fallbackRows int

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
	// gainEps is the smallest gain over the best post-update GMQ that
	// counts as progress for the early stop (§3.4).
	gainEps = 0.02
	// maxPoolGen bounds retained generated entries across periods.
	maxPoolGen = 4000
	// minLabelFraction is the smallest fraction of requested annotations a
	// period may proceed with when the ground-truth source partially fails.
	// Below it the missing labels go to the sampled fallback; if even that
	// leaves the fraction short, the period aborts cleanly so the caller
	// keeps its pre-period model.
	minLabelFraction = 0.5
	// fallbackSampleRate is the row-sample rate of that fallback.
	fallbackSampleRate = 0.1
	// canaries is the number of canary predicates New draws from 𝕀train
	// for data-drift telemetry.
	canaries = 10
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
		Picker: &Picker{Strategy: StrategyWarper},
		sch:    sch,
		ann:    ann,
		src:    ann,
		rng:    rng,
	}
	a.comps = newComponents(cfg, sch, ann.Table().NumRows(), rng)

	// Pre-train 𝔼 and 𝔾 offline as an autoencoder on 𝕀train (§3.5); this
	// one-time cost mirrors training the LM model offline.
	w := simclock.StartWatch()
	a.comps.UpdateAutoEncoder(a.Pool, epochSteps(a.Pool, 60))
	a.comps.EmbedAll(a.Pool)
	a.Ledger.Charge("pretrain", w.Stop())

	// Training-time error baseline for δ_m and the detector state.
	trainGMQ := ce.EvalGMQ(m, trainSet)
	var trainPreds []query.Predicate
	for _, lq := range trainSet {
		trainPreds = append(trainPreds, lq.Pred)
	}
	probes := make([]query.Predicate, min(canaries, len(trainPreds)))
	for i := range probes {
		probes[i] = trainPreds[rng.Intn(len(trainPreds))].Clone()
	}
	can, err := drift.NewCanaries(context.Background(), probes, ann)
	if err != nil {
		return nil, err
	}
	a.det = &detector{
		sch:        sch,
		canaries:   can,
		trainPreds: trainPreds,
		trainGMQ:   trainGMQ,
		pi:         initialPi,
		gamma:      cfg.Gamma,
	}
	return a, nil
}

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
	// TrainedSamples is the number of minibatch rows the learned components
	// (𝔼/𝔾) consumed this period; TrainedSamples/Busy is the training
	// throughput an operator watches when sizing the adaptation budget.
	TrainedSamples int
	// Busy is the compute charged to the virtual clock this period.
	Busy time.Duration
	// Stages splits Busy by stage (indexed like StageNames): the period runs
	// on one clock whose every lap lands in exactly one stage and is charged
	// to the Ledger under that stage's name, so Σ Stages == Busy and the
	// period's Ledger delta under StageNames[s] == Stages[s], on error
	// returns too.
	Stages [len(StageNames)]time.Duration

	// Partial is true when the ground-truth source lost part of the
	// annotation batch but the period proceeded with the labels it got
	// (at least half of the request).
	Partial bool
	// AnnotateFailed counts annotation calls that failed this period
	// (after the source's own retries, if it wraps any).
	AnnotateFailed int
	// UsedFallback is true when the sampled fallback annotator supplied
	// labels because exact annotation fell below half of the request.
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
// while at least half of the requested labels arrive;
// below that the sampled fallback fills in; only when even the fallback
// cannot reach the floor — or ctx is cancelled — does the period return an
// error. A non-nil error means the repair failed partway and the adapter's
// model may be partially updated: callers that serve traffic should discard
// a.M in favor of a pre-period clone so the previous model keeps serving.
func (a *Adapter) PeriodCtx(ctx context.Context, arrivals []Arrival) (rep Report, err error) {
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	clk := periodClock{watch: simclock.StartWatch(), rep: &rep, ledger: a.Ledger, stage: StageDetect}
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
			a.det.pi = max(initialPi, a.det.pi*0.8)
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

	// Lines 3–8: update the learned components as one autoencoder in every
	// mode; generate when in c2.
	clk.enter(StageGenerate)
	a.comps.UpdateAutoEncoder(a.Pool, periodSteps)
	if det.Mode.Has(C2) {
		nGen := int(a.Cfg.GenFraction * float64(max(det.NT, 1)))
		if nGen >= 1 { // §4.3: generator disabled when n_g < 1
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
	}

	// Refresh embeddings so the picker sees current z (and the freshly
	// generated entries get theirs).
	a.comps.EmbedAll(a.Pool)

	// Line 9: pick queries and annotate them.
	clk.enter(StagePick)
	picked := a.pick(det.Mode)
	rep.Picked = len(picked)

	clk.enter(StageAnnotate)
	rep.Annotated, err = a.annotate(ctx, picked, &rep)
	if err != nil {
		return rep, err
	}

	// Line 10: update 𝕄 from the pool. A failed update aborts the period:
	// the caller keeps its pre-period model, and the pool/detector state
	// stays consistent for the next attempt.
	clk.enter(StageUpdate)
	if err := a.updateModel(picked); err != nil {
		return rep, err
	}
	rep.Updated = true

	// Early stop (§3.4): when the model stops improving on its best
	// observed error for several consecutive periods, raise π so det_drft
	// goes quiet until a larger drift appears. Comparing against the best
	// (not the previous period) makes the check robust to evaluation
	// noise, and π growth is capped so a real new drift can always
	// re-trigger detection.
	evalSet := a.Pool.LabeledBySource(pool.SrcNew)
	if len(evalSet) >= 10 {
		cur := ce.EvalGMQ(a.M, lastN(evalSet, 200))
		if !a.haveBest || cur < a.bestEvalGMQ-gainEps {
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
		if err := a.det.canaries.Rebase(ctx, a.src); err != nil {
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
// the previous lap into the stage it ran under — Report.Stages, Busy and the
// Ledger key StageNames[stage]; enter does that and names the stage that
// runs next. PeriodCtx defers the last lap, so every return path accounts
// for every instant since the period began exactly once.
type periodClock struct {
	watch  simclock.Stopwatch
	rep    *Report
	ledger *simclock.Ledger
	stage  int
}

func (c *periodClock) lap() {
	d := c.watch.Lap()
	c.rep.Stages[c.stage] += d
	c.rep.Busy += d
	c.ledger.Charge(StageNames[c.stage], d)
}

func (c *periodClock) enter(stage int) {
	c.lap()
	c.stage = stage
}

// pick runs ℙ according to the drift mode (Table 2).
func (a *Adapter) pick(mode Mode) []*pool.Entry {
	n := a.Cfg.PickSize
	switch {
	case mode.Has(C2):
		// Generated queries drawn uniformly — labeled ones included, so
		// previously annotated synthetic queries are re-used; freshly
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
// honoring the annotation budget. It returns the number of labels obtained
// and records degradation in rep.
//
// The ladder: failed exact calls are skipped; when at least
// minLabelFraction of the requested labels arrive, the period proceeds
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

	count := 0
	for _, e := range todo {
		if ctx.Err() != nil {
			return count, ctx.Err()
		}
		card, err := a.src.Count(ctx, e.Pred)
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
	if frac := float64(count) / float64(len(todo)); frac >= minLabelFraction {
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
	if frac := float64(count+len(rescue)) / float64(len(todo)); frac >= minLabelFraction {
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
		count, len(todo), minLabelFraction*100)
}

// fallbackSource returns the sampled fallback annotator over the live
// table, drawing its row sample on first use and again whenever the table's
// row count differs from the one it was drawn over: an append or a truncate
// would leave the old sample's indices and scale describing another table.
// An in-place update keeps the sample, whose rows still exist. Draws come
// from the adapter's RNG, so the sampled rows — and with them the fallback
// labels — are a deterministic function of Config and the table's history.
func (a *Adapter) fallbackSource() (annotator.Source, error) {
	tbl := a.ann.Table()
	if a.fallback == nil || a.fallbackRows != tbl.NumRows() {
		s, err := annotator.NewSampled(tbl, fallbackSampleRate, a.rng)
		if err != nil {
			return nil, err
		}
		a.fallback, a.fallbackRows = s, tbl.NumRows()
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
	// Fine-tune on the labeled picked set (which re-samples the generated
	// queries) plus every labeled new arrival accumulated in the pool — the
	// pool is Warper's advantage over plain fine-tuning, which only ever
	// sees the fresh arrivals.
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

func lastN(xs []query.Labeled, n int) []query.Labeled {
	if len(xs) <= n {
		return xs
	}
	return xs[len(xs)-n:]
}
