package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/query"
	"warper/internal/resilience"
	"warper/internal/warper"
	"warper/internal/wire"
	"warper/internal/workload"
)

// The differential driver: a seeded random sequence of operations sent to a
// Server (cache, replica pool, binary protocol, fallback ladder, fault
// injection through the model all on) and to a refServer built from an identically seeded
// adapter stack, with every answer compared. DESIGN.md §"The reference
// server and the differential driver" has the op alphabet, the two modes,
// the invariants and how to replay a failing seed.

// TestDifferential runs the driver over four seeds in each mode: 750
// operations per seed under plain `go test`, 25 000 — 10⁵ per mode — under
// WARPER_CHAOS=1 (make chaos, scripts/check.sh), where the race detector is
// on.
func TestDifferential(t *testing.T) {
	ops := 750
	if os.Getenv("WARPER_CHAOS") != "" {
		ops = 25000
	}
	for _, mode := range []string{"sequential", "concurrent"} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				// A quick health machine for the concurrent mode: four readers
				// on two starved replicas overflow the queue and walk the
				// server through degraded and shedding and back. The
				// sequential driver draws each request's admission state
				// itself (opEstimate); requests are the machine's clock, so
				// one that quick would recover out from under the draw.
				evalInterval := time.Millisecond
				if mode == "sequential" {
					evalInterval = time.Hour
				}
				d := newDiffDriver(t, seed, evalInterval)
				if mode == "sequential" {
					d.runSequential(ops)
				} else {
					d.runConcurrent(ops)
				}
				t.Logf("%d ops: %+v", ops, d.stats)
			})
		}
	}
}

// errInjectedUpdate is what an armed hookModel's Update reports.
var errInjectedUpdate = errors.New("differential driver: injected model-update failure")

// modelHooks is the fault switchboard one adapter stack's models share.
type modelHooks struct {
	// failUpdate makes Update fail after it has changed the weights: a
	// half-applied repair the server must roll back.
	failUpdate atomic.Bool
	// midInfer, when set, runs once at the start of the next inference —
	// the driver's way to land a whole adaptation period in the middle of an
	// in-flight estimate, deterministically.
	midInfer atomic.Pointer[func()]
	// chaos is the overload plan the models inject while chaosOn holds. It
	// is set before the server is built and only read after.
	chaos   chaosPlan
	chaosOn atomic.Bool
	// inferences counts replica inferences: the starvation schedule's clock.
	inferences atomic.Int64
}

// chaosPlan is the serving layer's own failure modes, injected through the
// served models. The schedule is count-based, so a plan replays alike
// whatever the timing.
type chaosPlan struct {
	// starveEvery holds every N-th replica inference (one Estimate or
	// EstimateAll call, which is one checkout) for starveHold before it
	// answers, as a slow forward pass would: the replica stays out of the
	// free list and the admission queue starves. 0 disables starvation.
	starveEvery int64
	starveHold  time.Duration
	// swapDelay stalls every Clone of the adapter's own model — among them
	// the one swap takes inside warper_model_swap_seconds — as a large
	// model's would. Replicas refresh from the pool's source, whose Clone
	// is never delayed.
	swapDelay time.Duration
}

// wrap installs the switchboard around the trained model the adapter will
// own (newTestAdapter's wrap argument).
func (h *modelHooks) wrap(lm *ce.LM) ce.Estimator { return &hookModel{LM: lm, h: h} }

// modelRole says which copy of a stack's model a hookModel is. Clone moves
// one role down: the adapter's own model yields a private copy (the pool's
// source, the rollback snapshot), and a copy yields a replica.
type modelRole int

const (
	roleAdapter modelRole = iota
	roleCopy
	roleReplica
)

// hookModel is an LM-mlp with the modelHooks wired in. Clones share the
// switchboard.
type hookModel struct {
	*ce.LM
	h    *modelHooks
	role modelRole
}

func (m *hookModel) fire() {
	if f := m.h.midInfer.Swap(nil); f != nil {
		(*f)()
	}
	if c := m.h.chaos; m.role == roleReplica && c.starveEvery > 0 && m.h.chaosOn.Load() &&
		m.h.inferences.Add(1)%c.starveEvery == 0 {
		time.Sleep(c.starveHold)
	}
}

func (m *hookModel) Estimate(p query.Predicate) float64 {
	m.fire()
	return m.LM.Estimate(p)
}

func (m *hookModel) EstimateAll(ps []query.Predicate, out []float64) {
	m.fire()
	m.LM.EstimateAll(ps, out)
}

func (m *hookModel) Update(examples []query.Labeled) error {
	if err := m.LM.Update(examples); err != nil {
		return err
	}
	if m.h.failUpdate.Load() {
		return errInjectedUpdate
	}
	return nil
}

func (m *hookModel) Clone() ce.Estimator {
	role := roleReplica
	if m.role == roleAdapter {
		role = roleCopy
		if m.h.chaosOn.Load() {
			time.Sleep(m.h.chaos.swapDelay)
		}
	}
	return &hookModel{LM: m.LM.Clone().(*ce.LM), h: m.h, role: role}
}

// flakySource fails every k-th Count while armed (k = 1 fails them all):
// count-based, so two stacks armed alike fail alike.
type flakySource struct {
	annotator.Source
	every, calls, failed atomic.Int64
}

func (f *flakySource) arm(every int64) {
	f.every.Store(every)
	f.calls.Store(0)
	f.failed.Store(0)
}

func (f *flakySource) Count(ctx context.Context, p query.Predicate) (float64, error) {
	if k := f.every.Load(); k > 0 && f.calls.Add(1)%k == 0 {
		f.failed.Add(1)
		return 0, resilience.ErrInjected
	}
	return f.Source.Count(ctx, p)
}

// diffStack is one side's adapter with its fault switches.
type diffStack struct {
	ad    *warper.Adapter
	hooks *modelHooks
	flaky *flakySource
}

// newDiffStack builds one side; equal seeds build bit-identical sides.
func newDiffStack(t testing.TB, seed int64) (diffStack, *query.Schema, *annotator.Annotator, workload.Generator) {
	s := diffStack{hooks: &modelHooks{}}
	ad, sch, ann, gen := newTestAdapter(t, 100+seed, s.hooks.wrap)
	s.ad, s.flaky = ad, &flakySource{Source: ad.Source()}
	ad.SetSource(s.flaky)
	return s, sch, ann, gen
}

// arm sets (or, with the zero values, clears) the faults of the next period.
func (s diffStack) arm(failUpdate bool, flakyEvery int64) {
	s.hooks.failUpdate.Store(failUpdate)
	s.flaky.arm(flakyEvery)
}

// pred is one predicate as the driver holds it: raw for the doors that
// normalize server-side (JSON, binary), normalized for the in-process doors
// and the reference.
type pred struct{ raw, norm query.Predicate }

// door is an estimate entry point.
type door int

const (
	doorEstimate door = iota // Server.Estimate
	doorBudget               // Server.estimateOne under the current health state
	doorJSON                 // POST /estimate
	doorBatch                // POST /estimate/batch
	doorWire                 // Server.EstimateBatchWire
	numDoors
)

func (d door) String() string {
	return [...]string{"Estimate", "estimateOne", "POST /estimate", "POST /estimate/batch", "EstimateBatchWire"}[d]
}

// answer is one answered request, scalar or batch.
type answer struct {
	preds []pred
	cards []float64
	out   EstimateOutcome // the reason only where the door carries one
	gen   uint64          // generation echo; 0 where the door carries none
}

// diffStats counts what a run exercised.
type diffStats struct {
	Full, Degraded, Shed          int64
	Periods, Updated, Failed      int
	PartialPeriods, MidInferSwaps int
	CacheHits                     int64
}

type diffDriver struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand // the op sequence; reader goroutines bring their own

	srv    *Server
	h      http.Handler
	served diffStack

	ref    *refServer
	shadow diffStack // the reference's stack, armed like served

	sch       *query.Schema
	ann       *annotator.Annotator
	gen       workload.Generator
	templates []pred

	// lo is the newest generation the Server has acknowledged (POST /period
	// returned), hi the newest the reference has reached. A request that
	// reads lo before it is sent and hi after it is answered must have been
	// answered by a generation in [lo, hi]; outside a period lo == hi.
	lo, hi atomic.Uint64

	op      int // index of the operation in flight, for failure messages
	stop    atomic.Bool
	readers sync.WaitGroup
	stats   diffStats
}

func newDiffDriver(t *testing.T, seed int64, evalEvery time.Duration) *diffDriver {
	d := &diffDriver{t: t, seed: seed, rng: rand.New(rand.NewSource(seed))}
	d.shadow, _, _, _ = newDiffStack(t, seed)
	d.ref = newRefServer(d.shadow.ad)
	d.served, d.sch, d.ann, d.gen = newDiffStack(t, seed)
	d.served.hooks.chaos = chaosPlan{starveEvery: 2, starveHold: 500 * time.Microsecond, swapDelay: time.Millisecond}
	d.srv = NewWithOptions(d.served.ad, d.sch, Options{
		Replicas:      2,
		CacheEntries:  256, // small: eviction churn
		DriftAlarmGMQ: 1.5,
	})
	// One queue slot: concurrent readers overflow it at once.
	boundQueue(d.srv, 1)
	d.srv.health.evalEvery = evalEvery
	d.h = d.srv.Handler()
	d.lo.Store(1)
	d.hi.Store(1)
	for i := 0; i < 96; i++ {
		d.templates = append(d.templates, d.newPred(d.rng))
	}
	return d
}

func (d *diffDriver) newPred(rng *rand.Rand) pred {
	raw := d.gen.Gen(rng)
	return pred{raw: raw, norm: raw.Clone().Normalize(d.sch)}
}

// pick draws a predicate: mostly a template, skewed toward the low indices
// so the cache has something to hit, otherwise a fresh one.
func (d *diffDriver) pick(rng *rand.Rand) pred {
	if rng.Float64() < 0.3 {
		return d.newPred(rng)
	}
	u := rng.Float64()
	return d.templates[int(u*u*float64(len(d.templates)))]
}

// failf stops the readers, then fails the test with the seed and op index.
func (d *diffDriver) failf(format string, args ...any) {
	d.t.Helper()
	d.stop.Store(true)
	d.readers.Wait()
	d.t.Fatalf("seed %d op %d: %s", d.seed, d.op, fmt.Sprintf(format, args...))
}

// call sends one in-process request through the Server's handler.
func (d *diffDriver) call(method, path, ctype string, body []byte, budget time.Duration) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if budget > 0 {
		req.Header.Set(deadlineHeader, strconv.FormatInt(max(1, budget.Milliseconds()), 10))
	}
	rw := httptest.NewRecorder()
	d.h.ServeHTTP(rw, req)
	return rw
}

// issue sends rows through one door and returns the answer. An error is a
// protocol violation: an unexpected status, an answer with the wrong row
// count, a shed that is not all-or-nothing.
func (d *diffDriver) issue(dr door, rows []pred, budget time.Duration) (answer, error) {
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	shed429 := func(rw *httptest.ResponseRecorder) (answer, error) {
		out, err := parseShed(rw.Code, rw.Body.Bytes())
		if err != nil {
			return answer{}, fmt.Errorf("%v: %v", dr, err)
		}
		return answer{preds: rows, out: out}, nil
	}
	decode := func(frame []byte) (answer, error) {
		h, cards, err := wire.DecodeResponse(frame, nil)
		if err != nil {
			return answer{}, fmt.Errorf("%v: response frame: %v", dr, err)
		}
		if len(cards) != len(rows) {
			return answer{}, fmt.Errorf("%v: %d rows answered, %d sent", dr, len(cards), len(rows))
		}
		return answer{preds: rows, cards: cards, out: EstimateOutcome{Degraded: h.Degraded()}, gen: h.Generation}, nil
	}
	raws := make([]query.Predicate, len(rows))
	for i, p := range rows {
		raws[i] = p.raw
	}
	frame, err := wire.AppendRequest(nil, 0, raws, false)
	if err != nil {
		return answer{}, err
	}

	switch dr {
	case doorEstimate:
		return answer{preds: rows, cards: []float64{d.srv.Estimate(rows[0].norm)}}, nil
	case doorBudget:
		card, out := d.srv.estimateOne(rows[0].norm, d.srv.health.current(), deadline, nil)
		a := answer{preds: rows, out: out}
		if !out.Shed {
			a.cards = []float64{card}
		}
		return a, nil
	case doorJSON:
		body, err := json.Marshal(predicateJSON{Lows: rows[0].raw.Lows, Highs: rows[0].raw.Highs})
		if err != nil {
			return answer{}, err
		}
		rw := d.call("POST", "/estimate", "application/json", body, budget)
		if rw.Code != http.StatusOK {
			return shed429(rw)
		}
		var er estimateResponse
		if err := json.Unmarshal(rw.Body.Bytes(), &er); err != nil {
			return answer{}, fmt.Errorf("%v: %v", dr, err)
		}
		return answer{preds: rows, cards: []float64{er.Cardinality}, out: EstimateOutcome{Degraded: er.Degraded, Reason: er.Reason}}, nil
	case doorBatch:
		rw := d.call("POST", "/estimate/batch", wireContentType, frame, budget)
		if rw.Code != http.StatusOK {
			return shed429(rw)
		}
		return decode(rw.Body.Bytes())
	default: // doorWire
		resp, err := d.srv.EstimateBatchWire(nil, frame, deadline)
		if err == errShed {
			if len(resp) != 0 {
				return answer{}, fmt.Errorf("%v: shed with %d response bytes", dr, len(resp))
			}
			return answer{preds: rows, out: EstimateOutcome{Shed: true}}, nil
		}
		if err != nil {
			return answer{}, fmt.Errorf("%v: %v", dr, err)
		}
		return decode(resp)
	}
}

// verify checks an answer against the reference. A shed answer carries no
// rows; a degraded answer is flagged as such and its ladder values are not
// the reference's business; every row of a full-model answer carries the
// bits the reference answers at some generation in [lo, hi] — at exactly
// the echoed generation for a one-row answer that echoes one (that row was
// a miss, computed by the replica whose generation the answer reports).
func (d *diffDriver) verify(dr door, a answer, lo, hi uint64) error {
	switch {
	case a.out.Shed:
		atomic.AddInt64(&d.stats.Shed, 1)
		if len(a.cards) != 0 {
			return fmt.Errorf("%v: shed, yet %d rows answered", dr, len(a.cards))
		}
		return nil
	case a.out.Degraded:
		atomic.AddInt64(&d.stats.Degraded, 1)
		return nil
	}
	atomic.AddInt64(&d.stats.Full, 1)
	glo, ghi := lo, hi
	if a.gen != 0 {
		if a.gen < lo || a.gen > hi {
			return fmt.Errorf("%v: answered by generation %d, outside the request's window [%d, %d]", dr, a.gen, lo, hi)
		}
		if len(a.preds) == 1 {
			glo, ghi = a.gen, a.gen
		}
	}
rows:
	for i, p := range a.preds {
		var want []float64
		for g := glo; g <= ghi; g++ {
			w := d.ref.estimateAt(g, p.norm)
			if math.Float64bits(w) == math.Float64bits(a.cards[i]) {
				continue rows
			}
			want = append(want, w)
		}
		return fmt.Errorf("%v: row %d of %d = %v, reference answers %v at generations [%d, %d] (echo %d): %s",
			dr, i, len(a.preds), a.cards[i], want, glo, ghi, a.gen, p.norm.WhereClause(d.sch))
	}
	return nil
}

// randomRequest draws a door and the rows to send through it.
func (d *diffDriver) randomRequest(rng *rand.Rand) (dr door, rows []pred) {
	dr = door(rng.Intn(int(numDoors)))
	n := 1
	if dr >= doorBatch {
		switch k := rng.Intn(25); {
		case k == 0:
			n = wireGroupRows - 40 + rng.Intn(400) // around and across the group boundary
		case k < 17:
			n = 2 + rng.Intn(16)
		}
	}
	rows = make([]pred, n)
	for i := range rows {
		rows[i] = d.pick(rng)
	}
	return dr, rows
}

// runSequential is the exact mode: one operation at a time, every answer
// equal to the reference's.
func (d *diffDriver) runSequential(ops int) {
	pPeriod, pFeedback := adaptShares(ops)
	for d.op = 0; d.op < ops; d.op++ {
		u := d.rng.Float64()
		is := func(share float64) bool { u -= share; return u < 0 }
		switch {
		case is(pPeriod):
			d.opPeriod()
		case is(pFeedback):
			d.opFeedback()
		case is(pPeriod / 2):
			d.opSwapMidInference()
		case is(0.01):
			d.opToggleChaos()
		case is(0.01):
			d.opScrape()
		default:
			d.opEstimate()
		}
	}
	d.stats.CacheHits = d.srv.met.cacheHits.Value()
	// The sequence is a pure function of the seed, so a run that exercised
	// nothing is a driver bug, not bad luck.
	if s := d.stats; s.Full == 0 || s.Degraded == 0 || s.Shed == 0 || s.Updated == 0 || s.CacheHits == 0 {
		d.t.Errorf("seed %d: the sequence left part of the alphabet unexercised: %+v", d.seed, s)
	}
}

// adaptShares sizes the adaptation part of the op mix: about one period per
// hundred operations, capped so a long run does not grow the adapter's query
// pool (and with it the cost of a period) without bound, and 25 feedback
// arrivals per period.
func adaptShares(ops int) (pPeriod, pFeedback float64) {
	pPeriod = float64(min(max(ops/100, 8), 32)) / float64(ops)
	return pPeriod, 25 * pPeriod
}

// opEstimate sends one request under a drawn admission situation — health
// state, breaker, replicas held or free, deadline or none — and checks the
// answer bits and the outcome class against the admission table.
func (d *diffDriver) opEstimate() {
	dr, rows := d.randomRequest(d.rng)
	state, breaker := Healthy, false
	switch d.rng.Intn(6) {
	case 0:
		state, breaker = Degraded, d.rng.Intn(2) == 0
	case 1:
		state = Shedding
	}
	// Estimate promises the model's answer however long it takes: with the
	// replicas held it would wait for ever, as a held healthy request
	// without a deadline would.
	held := dr != doorEstimate && d.rng.Intn(6) == 0
	var budget time.Duration
	if dr != doorEstimate && (d.rng.Intn(2) == 0 || held && state == Healthy) {
		budget = time.Millisecond
	}

	d.srv.health.state.Store(int32(state))
	d.srv.health.breakerOpen.Store(breaker)
	var replicas []*replica
	if held {
		replicas = drainReplicas(d.t, d.srv)
	}
	lo := d.lo.Load()
	a, err := d.issue(dr, rows, budget)
	restoreReplicas(d.srv, replicas)
	d.srv.health.state.Store(int32(Healthy))
	d.srv.health.breakerOpen.Store(false)
	if err == nil {
		err = d.verify(dr, a, lo, d.hi.Load())
	}
	if err != nil {
		d.failf("%v", err)
	}
	// Rows that hit the cache need no replica, so a held request may still
	// come back full; nothing else may differ from the table.
	want := admissionOutcome(state, breaker, held, budget > 0)
	if dr == doorEstimate {
		want = EstimateOutcome{}
	}
	full := !a.out.Shed && !a.out.Degraded
	if a.out.Shed != want.Shed && !full || a.out.Degraded != want.Degraded && !full ||
		a.out.Reason != "" && a.out.Reason != want.Reason {
		d.failf("%v (%v, breaker %v, held %v, budget %v): outcome %+v, admission table says %+v",
			dr, state, breaker, held, budget, a.out, want)
	}
}

// opFeedback posts one arrival of the drifted workload, mostly with its
// true cardinality, to both servers.
func (d *diffDriver) opFeedback() {
	p := d.pick(d.rng)
	ar := warper.Arrival{Pred: p.norm.Clone()}
	req := feedbackRequest{predicateJSON: predicateJSON{Lows: p.raw.Lows, Highs: p.raw.Highs}}
	if d.rng.Intn(5) != 0 {
		card, err := d.ann.Count(context.Background(), p.norm)
		if err != nil {
			d.failf("ground truth: %v", err)
		}
		ar.GT, ar.HasGT, req.Cardinality = card, true, &card
	}
	body, err := json.Marshal(req)
	if err != nil {
		d.failf("%v", err)
	}
	want := d.ref.feedback(ar)
	rw := d.call("POST", "/feedback", "application/json", body, 0)
	var fr feedbackResponse
	if rw.Code != http.StatusOK || json.Unmarshal(rw.Body.Bytes(), &fr) != nil || fr.Buffered != want {
		d.failf("POST /feedback = %d %s, reference buffered %d", rw.Code, rw.Body, want)
	}
}

// opPeriod runs one adaptation period on both servers, clean or under an
// injected fault, and compares the reports field for field. A failed period
// must leave the served model and the arrival buffer as they were; a period
// that lost ground-truth calls must say so in its response.
func (d *diffDriver) opPeriod() {
	var failUpdate bool
	var flakyEvery int64
	switch d.rng.Intn(8) {
	case 0:
		failUpdate = true
	case 1:
		flakyEvery = 3 // a third of the exact counts fail: partial labels
	case 2:
		flakyEvery = 1 // all of them fail: the sampled fallback annotator
	}
	d.shadow.arm(failUpdate, flakyEvery)
	d.served.arm(failUpdate, flakyEvery)
	gen := d.lo.Load()
	probes := d.templates[:8]
	before := make([]float64, len(probes))
	for i, p := range probes {
		before[i] = d.srv.Estimate(p.norm)
	}
	buffered := d.status().Buffered

	rep, refErr := d.ref.period(context.Background())
	if refErr == nil {
		d.hi.Store(gen + 1)
	}
	rw := d.call("POST", "/period", "application/json", []byte("{}"), 0)
	lostCalls := d.served.flaky.failed.Load()
	d.shadow.arm(false, 0)
	d.served.arm(false, 0)
	d.stats.Periods++

	if refErr != nil {
		d.stats.Failed++
		if rw.Code != http.StatusInternalServerError {
			d.failf("POST /period = %d %s, the reference's period failed: %v", rw.Code, rw.Body, refErr)
		}
		// The reinstated pre-period snapshot is the adapter's model now.
		d.served.ad.M.(*hookModel).role = roleAdapter
		if st := d.status(); st.Buffered != buffered || st.Periods != int(gen)-1 {
			d.failf("failed period left %d buffered arrivals and %d periods, want %d and %d", st.Buffered, st.Periods, buffered, gen-1)
		}
		if g := d.srv.pool.generation(); g != gen {
			d.failf("failed period moved the serving generation %d → %d", gen, g)
		}
		for i, p := range probes {
			if got := d.srv.Estimate(p.norm); math.Float64bits(got) != math.Float64bits(before[i]) {
				d.failf("failed period changed the served answer of probe %d: %v → %v", i, before[i], got)
			}
		}
		return
	}
	var pr periodResponse
	if rw.Code != http.StatusOK || json.Unmarshal(rw.Body.Bytes(), &pr) != nil {
		d.failf("POST /period = %d %s, the reference's period succeeded", rw.Code, rw.Body)
	}
	d.lo.Store(gen + 1)
	want := periodResponse{
		Mode: rep.Detection.Mode.String(), Arrivals: buffered,
		Generated: rep.Generated, Picked: rep.Picked, Annotated: rep.Annotated,
		Updated: rep.Updated, EarlyStopped: rep.EarlyStopped,
		DeltaM: rep.Detection.DeltaM, DeltaJS: rep.Detection.DeltaJS,
		BusyMillis: pr.BusyMillis, // wall clock
		Partial:    rep.Partial, AnnotateFailed: rep.AnnotateFailed,
		UsedFallback: rep.UsedFallback, TelemetryDegraded: rep.TelemetryDegraded,
	}
	if pr != want {
		d.failf("period reports differ:\nserved    %+v\nreference %+v", pr, want)
	}
	if lostCalls > 0 && !(pr.Partial || pr.UsedFallback || pr.TelemetryDegraded || pr.AnnotateFailed > 0) {
		d.failf("period lost %d ground-truth calls and its response flags nothing: %+v", lostCalls, pr)
	}
	if pr.Updated {
		d.stats.Updated++
	}
	if pr.Partial || pr.UsedFallback {
		d.stats.PartialPeriods++
	}
}

// status fetches GET /status.
func (d *diffDriver) status() statusDoc {
	rw := d.call("GET", "/status", "", nil, 0)
	var st statusDoc
	if rw.Code != http.StatusOK || json.Unmarshal(rw.Body.Bytes(), &st) != nil {
		d.failf("GET /status = %d %s", rw.Code, rw.Body)
	}
	return st
}

// opSwapMidInference lands a whole adaptation period — swap included —
// between a request's replica checkout and its answer. The in-flight
// request was computed by the old generation and must say so; whoever asks
// next gets the new generation, not what the old one left in the cache.
func (d *diffDriver) opSwapMidInference() {
	p := d.uncached() // the request must miss to reach a replica
	gen := d.lo.Load()
	period := d.opPeriod
	d.served.hooks.midInfer.Store(&period)
	d.oneRowExact(p, gen)
	d.oneRowExact(p, d.lo.Load())
	d.stats.MidInferSwaps++
}

// uncached draws a fresh predicate the cache holds no answer for at the
// serving generation.
func (d *diffDriver) uncached() pred {
	for {
		p := d.newPred(d.rng)
		if _, hit := d.srv.cache.get(p.norm, cacheHash(p.norm), d.srv.pool.generation()); !hit {
			return p
		}
	}
}

// oneRowExact sends p alone through a drawn door, unbudgeted on a healthy
// server, and requires the reference's answer at exactly generation gen.
func (d *diffDriver) oneRowExact(p pred, gen uint64) {
	dr := door(d.rng.Intn(int(numDoors)))
	a, err := d.issue(dr, []pred{p}, 0)
	if d.served.hooks.midInfer.Swap(nil) != nil {
		d.failf("%v: the request never reached the model", dr)
	}
	if err == nil {
		err = d.verify(dr, a, gen, gen)
	}
	if err == nil && (a.out != EstimateOutcome{}) {
		err = fmt.Errorf("%v: outcome %+v on a healthy idle server", dr, a.out)
	}
	if err != nil {
		d.failf("%v", err)
	}
}

// opToggleChaos turns replica starvation and slow swaps on or off.
func (d *diffDriver) opToggleChaos() {
	d.served.hooks.chaosOn.Store(d.rng.Intn(2) == 0)
}

// opScrape reads the observability endpoints — all three evaluate health —
// and cross-checks /status against the driver's generation.
func (d *diffDriver) opScrape() {
	for _, path := range []string{"/metrics", "/statusz"} {
		if rw := d.call("GET", path, "", nil, 0); rw.Code != http.StatusOK {
			d.failf("GET %s = %d", path, rw.Code)
		}
	}
	st, gen := d.status(), d.lo.Load()
	if st.Generation != gen {
		d.failf("GET /status reports generation %d, the driver is at %d", st.Generation, gen)
	}
	if st.Periods != int(gen)-1 {
		d.failf("GET /status reports %d periods at generation %d", st.Periods, gen)
	}
}

// runConcurrent is the windowed mode: reader goroutines send ops estimate
// requests between them while this goroutine — the one writer — feeds back,
// runs periods and toggles faults. Admission is left to
// the health machine, so degraded and shed answers come and go with the
// starvation fault; every full-model answer must still be the reference's
// at a generation inside the request's window.
func (d *diffDriver) runConcurrent(ops int) {
	const readers = 4
	var issued atomic.Int64
	for r := 0; r < readers; r++ {
		d.readers.Add(1)
		go func(r int) {
			defer d.readers.Done()
			rng := rand.New(rand.NewSource(d.seed<<8 + int64(r)))
			for !d.stop.Load() {
				i := issued.Add(1)
				if i > int64(ops) {
					return
				}
				dr, rows := d.randomRequest(rng)
				budget := []time.Duration{0, time.Millisecond, 20 * time.Millisecond}[rng.Intn(3)]
				lo := d.lo.Load()
				a, err := d.issue(dr, rows, budget)
				if err == nil {
					err = d.verify(dr, a, lo, d.hi.Load())
				}
				if err != nil {
					d.stop.Store(true)
					d.t.Errorf("seed %d reader %d request %d: %v", d.seed, r, i, err)
					return
				}
			}
		}(r)
	}
	// The writer spreads its operations evenly over the readers' progress.
	pPeriod, pFeedback := adaptShares(ops)
	planned := int(float64(ops) * (pPeriod + pFeedback) * 1.2)
	for d.op = 0; d.op < planned && !d.stop.Load(); d.op++ {
		for issued.Load() < int64(d.op)*int64(ops)/int64(planned) && !d.stop.Load() {
			time.Sleep(50 * time.Microsecond)
		}
		u := d.rng.Float64() * 1.2 * (pPeriod + pFeedback)
		is := func(share float64) bool { u -= share; return u < 0 }
		switch {
		case is(pPeriod):
			d.opPeriod()
		case is(pFeedback):
			d.opFeedback()
		case is(0.05 * pFeedback):
			d.opToggleChaos()
		default:
			d.opScrape()
		}
	}
	d.readers.Wait()
	d.stats.CacheHits = d.srv.met.cacheHits.Value()
}
