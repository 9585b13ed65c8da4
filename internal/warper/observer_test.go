package warper

import (
	"testing"
	"time"
)

// recordingObserver captures every Observer callback for assertions.
type recordingObserver struct {
	stages []string
	durs   map[string][]time.Duration
	done   []PeriodStats
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{durs: map[string][]time.Duration{}}
}

func (r *recordingObserver) PeriodStage(stage string, d time.Duration) {
	r.stages = append(r.stages, stage)
	r.durs[stage] = append(r.durs[stage], d)
}

func (r *recordingObserver) PeriodDone(stats PeriodStats) { r.done = append(r.done, stats) }

// checkPeriod asserts that period number i (0-based) emitted every stage
// exactly once, in StageNames order.
func (r *recordingObserver) checkPeriod(t *testing.T, i int) {
	t.Helper()
	n := len(StageNames)
	if len(r.stages) < (i+1)*n {
		t.Fatalf("period %d: only %d stage events recorded", i, len(r.stages))
	}
	got := r.stages[i*n : (i+1)*n]
	for j, want := range StageNames {
		if got[j] != want {
			t.Errorf("period %d stage[%d] = %q, want %q", i, j, got[j], want)
		}
	}
}

func TestObserverFiresEveryStageOncePerPeriod(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	rec := newRecordingObserver()
	e.ad.Obs = rec

	// Period 1: drifted arrivals (c2 path — full pipeline runs).
	rep1 := periodOK(t, e.ad, arrivalsOf(e.newQ[:40], true))
	// Period 2: same-workload arrivals (quiet path — stages still fire).
	g := e.train[:60]
	rep2 := periodOK(t, e.ad, arrivalsOf(g, true))

	if len(rec.done) != 2 {
		t.Fatalf("PeriodDone fired %d times, want 2", len(rec.done))
	}
	if len(rec.stages) != 2*len(StageNames) {
		t.Fatalf("stage events = %d, want %d", len(rec.stages), 2*len(StageNames))
	}
	rec.checkPeriod(t, 0)
	rec.checkPeriod(t, 1)

	// Per-stage event counts: exactly one per period.
	for _, name := range StageNames {
		if got := len(rec.durs[name]); got != 2 {
			t.Errorf("stage %q fired %d times, want 2", name, got)
		}
	}

	// The summary mirrors the Report.
	s1 := rec.done[0]
	if s1.Mode != rep1.Detection.Mode || s1.Arrivals != 40 ||
		s1.Generated != rep1.Generated || s1.Annotated != rep1.Annotated ||
		s1.Picked != rep1.Picked || s1.Updated != rep1.Updated {
		t.Errorf("stats = %+v, report = %+v", s1, rep1)
	}
	if s1.PoolSize == 0 || s1.Labeled == 0 {
		t.Errorf("pool stats missing: %+v", s1)
	}
	if s1.Pi <= 0 || s1.Gamma <= 0 {
		t.Errorf("threshold stats missing: %+v", s1)
	}
	if s1.Busy != rep1.Busy || s1.Busy <= 0 {
		t.Errorf("busy = %v, report busy = %v", s1.Busy, rep1.Busy)
	}
	if rec.done[1].Mode != rep2.Detection.Mode {
		t.Errorf("period 2 mode = %v, want %v", rec.done[1].Mode, rep2.Detection.Mode)
	}

	// The detect stage always does real work; later stages are zero on the
	// quiet path but must still have been reported.
	if rec.durs[StageDetect][1] <= 0 {
		t.Error("quiet-period detect stage has no duration")
	}
	if rep2.Detection.Mode == ModeNone && rec.durs[StageUpdate][1] != 0 {
		t.Error("quiet period should report a zero update stage")
	}
}

func TestNilObserverIsSafe(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 400)
	if e.ad.Obs != nil {
		t.Fatal("observer should default to nil")
	}
	// Must not panic with no observer attached.
	periodOK(t, e.ad, arrivalsOf(e.newQ[:20], true))
}

// TestLedgerCoversEveryStage pins the §4.3 cost ledger to the period's wall
// clock: after a workload-drift (c2) period every stage that took time has a
// ledger charge, and the charges add up to Report.Busy within 5 % — what
// Table 6 / Table 11 build from the ledger is the whole period, not a subset.
func TestLedgerCoversEveryStage(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	rec := newRecordingObserver()
	e.ad.Obs = rec
	stageCharges := map[string][]string{
		StageDetect:   {"detect"},
		StageGenerate: {"gan", "gen", "ae", "embed"},
		StagePick:     {"pick"},
		StageAnnotate: {"annotate"},
		StageUpdate:   {"model"},
	}
	before := map[string]time.Duration{}
	for _, names := range stageCharges {
		for _, n := range names {
			before[n] = e.ad.Ledger.Get(n)
		}
	}

	rep := periodOK(t, e.ad, arrivalsOf(e.newQ[:40], true))
	if !rep.Detection.Mode.Has(C2) || !rep.Updated {
		t.Fatalf("period ran %v updated=%v, want an updating c2 period", rep.Detection.Mode, rep.Updated)
	}

	var sum time.Duration
	for _, stage := range StageNames {
		var charged time.Duration
		for _, n := range stageCharges[stage] {
			charged += e.ad.Ledger.Get(n) - before[n]
		}
		if wall := rec.durs[stage][0]; wall > 0 && charged == 0 {
			t.Errorf("stage %q took %v but charged nothing to the ledger", stage, wall)
		}
		sum += charged
	}
	if diff := (rep.Busy - sum).Abs(); diff > rep.Busy/20 {
		t.Errorf("ledger charged %v of a %v period (off by %v, more than 5%%)", sum, rep.Busy, diff)
	}
}
