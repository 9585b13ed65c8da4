package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/wire"
	"warper/internal/workload"
)

// scriptGens is the generator cycle of the adaptation script: every phase
// switches workload, so the detector sees a workload drift at each phase
// boundary and settles inside the phase.
var scriptGens = [...]string{"w4", "w2", "w3", "w1"}

// Data drift injected on entering every odd phase: 30 % of the rows
// perturbed in place by one standard deviation.
const (
	driftFrac  = 0.3
	driftNoise = 1.0
)

// periodOutcome is what one POST /period answered; the sequence of these is
// the adaptation trajectory that must repeat exactly for a seed.
type periodOutcome struct {
	Mode      string `json:"mode"`
	Generated int    `json:"generated"`
	Picked    int    `json:"picked"`
	Annotated int    `json:"annotated"`
	Updated   bool   `json:"updated"`
	EarlyStop bool   `json:"early_stopped"`
}

func (o periodOutcome) String() string {
	return fmt.Sprintf("%s/%d/%d/%d", o.Mode, o.Generated, o.Picked, o.Annotated)
}

// adaptDriver plays adaptation periods against the server over its HTTP
// API, the way an optimizer's feedback loop and an operator's cron would:
// POST /feedback arrivals with exact ground truth from the live table, then
// POST /period. It is the only writer of the table (drift injections happen
// between periods, as in examples/continuous).
type adaptDriver struct {
	fx    *fixture
	c     *conn
	echo  *echoLog // the run's calibration samples; see calib.go
	sc    scale
	spans *spanLog // nil on untraced runs

	gens     map[string]workload.Generator
	heldout  map[string][]query.Predicate
	probe    []query.Predicate
	feedback *rand.Rand
	drift    *rand.Rand

	attempted, failed int
	trajectory        []periodOutcome
	periodAt          []time.Time
	periodWall        []time.Duration
	feedbackLat       []time.Duration
	phaseGMQ          []float64
	buf               []byte
}

func newAdaptDriver(fx *fixture, c *conn, echo *echoLog, sc scale, seed int64, spans *spanLog) *adaptDriver {
	d := &adaptDriver{
		fx: fx, c: c, echo: echo, sc: sc, spans: spans,
		gens:     map[string]workload.Generator{},
		heldout:  map[string][]query.Predicate{},
		feedback: seedFor(scenarioSeed, rsFeedback),
		drift:    seedFor(scenarioSeed, rsDrift),
	}
	held := seedFor(scenarioSeed, rsHeldout)
	for _, name := range scriptGens {
		g := workload.New(name, fx.tbl, fx.sch, genOpts)
		d.gens[name] = g
		d.heldout[name] = normalized(workload.Generate(g, sc.Heldout, held), fx.sch)
	}
	d.probe = normalized(workload.Generate(d.gens["w4"], sc.Probe, seedFor(seed, rsProbe)), fx.sch)
	return d
}

func normalized(ps []query.Predicate, sch *query.Schema) []query.Predicate {
	for i := range ps {
		ps[i] = ps[i].Normalize(sch)
	}
	return ps
}

// fail records a failed operation with its reason on stderr.
func (d *adaptDriver) fail(format string, args ...any) {
	d.failed++
	logf("FAILED: "+format, args...)
}

// period posts sc.Feedback arrivals drawn from g and runs one adaptation
// period.
func (d *adaptDriver) period(g workload.Generator) error {
	ctx := context.Background()
	fbStart := time.Now()
	for i := 0; i < d.sc.Feedback; i++ {
		p := g.Gen(d.feedback).Normalize(d.fx.sch)
		gt, err := d.fx.truth.Count(ctx, p)
		if err != nil {
			return err
		}
		d.buf = predJSON(d.buf[:0], p, gt, true)
		req := request("POST", "/feedback", jsonType, d.buf)
		t := time.Now()
		status, _, err := d.c.roundTrip(req)
		d.feedbackLat = append(d.feedbackLat, time.Since(t))
		if err != nil {
			return fmt.Errorf("POST /feedback: %w", err)
		}
		d.attempted++
		if status != 200 {
			d.fail("POST /feedback: status %d", status)
		}
	}
	var before snapshot
	if d.spans != nil {
		d.spans.add("feedback_batch", fbStart, time.Since(fbStart), -1, driverLane)
		var err error
		if before, err = scrape(d.c); err != nil {
			return err
		}
	}
	t := time.Now()
	status, body, err := d.c.roundTrip(periodRequest)
	wall := time.Since(t)
	if err != nil {
		return fmt.Errorf("POST /period: %w", err)
	}
	d.attempted++
	d.periodWall = append(d.periodWall, wall)
	d.periodAt = append(d.periodAt, t)
	var out periodOutcome
	if status != 200 {
		d.fail("POST /period: status %d: %s", status, body)
	} else if err := json.Unmarshal(body, &out); err != nil {
		d.fail("POST /period: %v", err)
	}
	d.trajectory = append(d.trajectory, out)

	if d.spans != nil {
		// The five stage spans are laid end to end from the period's start,
		// from the seconds the server publishes for this very period; what
		// the client waited beyond them is the period span's self time.
		after, err := scrape(d.c)
		if err != nil {
			return err
		}
		ps := d.spans.add("POST /period", t, wall, -1, driverLane)
		at := t
		for _, st := range stageNames {
			sec := delta(before, after, `warper_period_stage_seconds_sum{stage="`+st+`"}`)
			dur := time.Duration(sec * float64(time.Second))
			if ps >= 0 {
				d.spans.add("warper."+st, at, dur, ps, driverLane)
			}
			at = at.Add(dur)
		}
	}
	return nil
}

var (
	periodRequest = request("POST", "/period", "", nil)
	stageNames    = [...]string{"detect", "generate", "pick", "annotate", "update"}
)

// verify runs after a phase, with no estimate traffic in flight: it snapshots the served model, checks that JSON and binary serving
// answer the probe predicates bit-identically to it, and returns the
// snapshot's GMQ on the generator's held-out predicates labelled against
// the live table.
func (d *adaptDriver) verify(gen string) (float64, error) {
	snap := d.fx.srv.Estimator().Clone()
	want := oracle(snap, d.probe)
	ident := make([]int32, len(d.probe))
	for i := range ident {
		ident[i] = int32(i)
	}

	k := checker{s: &stream{rows: 1, idx: ident, want: want}, exact: true}
	for i, p := range d.probe {
		d.buf = predJSON(d.buf[:0], p, 0, false)
		status, body, err := d.c.roundTrip(request("POST", "/estimate", jsonType, d.buf))
		if err != nil {
			return 0, fmt.Errorf("probe POST /estimate: %w", err)
		}
		d.attempted++
		if !k.json(i, status, body) {
			d.fail("probe %d after %s: JSON answer %q differs from the served model's %v", i, gen, body, want[i])
		}
	}
	for lo := 0; lo < len(d.probe); lo += d.sc.FrameRows {
		hi := min(lo+d.sc.FrameRows, len(d.probe))
		frame, err := wire.AppendRequest(nil, 0, d.probe[lo:hi], false)
		if err != nil {
			return 0, err
		}
		status, body, err := d.c.roundTrip(request("POST", "/estimate/batch", wireType, frame))
		if err != nil {
			return 0, fmt.Errorf("probe POST /estimate/batch: %w", err)
		}
		d.attempted++
		k := checker{s: &stream{rows: hi - lo, idx: ident[lo:hi], want: want}, exact: true}
		if !k.wire(0, status, body) {
			d.fail("probe rows %d..%d after %s: binary answer differs from the served model's", lo, hi, gen)
		}
	}

	test, err := d.fx.truth.AnnotateAll(context.Background(), d.heldout[gen])
	if err != nil {
		return 0, err
	}
	gmq := ce.EvalGMQ(snap, test)
	if math.IsNaN(gmq) || math.IsInf(gmq, 0) || gmq < 1 {
		d.fail("GMQ after %s is %v", gen, gmq)
	}
	d.phaseGMQ = append(d.phaseGMQ, gmq)
	return gmq, nil
}

// script plays the first phases phases of the adaptation schedule: all of
// them on adapt_drift, the first few after a serving workload's windows.
// pause/unpause bracket each phase-end verification so it never races the
// client posting beside the script.
func (d *adaptDriver) script(phases int, pause, unpause func()) error {
	for ph := 0; ph < phases; ph++ {
		gen := scriptGens[ph%len(scriptGens)]
		if ph%2 == 1 {
			dataset.UpdateDrift(d.fx.tbl, driftFrac, driftNoise, d.drift)
		}
		for j := 0; j < d.sc.PeriodsPerPhase; j++ {
			if err := d.period(d.gens[gen]); err != nil {
				return err
			}
		}
		pause()
		gmq, err := d.verify(gen)
		unpause()
		if err != nil {
			return err
		}
		last := d.trajectory[len(d.trajectory)-d.sc.PeriodsPerPhase:]
		logf("phase %2d %s drift=%v periods=%v gmq=%.4f", ph, gen, ph%2 == 1, last, gmq)
	}
	return nil
}

// periodMeanMs is the total client-side wall time of the POST /period
// calls over their count: raw, and with every period scaled to the
// reference host by the echo samples taken during it.
func (d *adaptDriver) periodMeanMs() (raw, norm float64) {
	if len(d.periodWall) == 0 {
		return 0, 0
	}
	for i, w := range d.periodWall {
		ms := float64(w) / 1e6
		raw += ms
		norm += ms * speed(d.echo.between(d.periodAt[i], d.periodAt[i].Add(w)))
	}
	n := float64(len(d.periodWall))
	return raw / n, norm / n
}

// gmq is the geometric mean of the per-phase GMQs.
func (d *adaptDriver) gmq() float64 {
	if len(d.phaseGMQ) == 0 {
		return 0
	}
	var s float64
	for _, g := range d.phaseGMQ {
		s += math.Log(g)
	}
	return math.Exp(s / float64(len(d.phaseGMQ)))
}
