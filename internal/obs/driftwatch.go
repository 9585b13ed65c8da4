package obs

import (
	"math"
	"sync"
	"time"
)

// DriftWatch is the operational "when to adapt" signal: it consumes the
// feedback-time q-error stream, maintains the geometric mean q-error (GMQ)
// over a rolling time window, and raises an alarm when the window breaches
// a configured threshold. Warper's detector answers the same question once
// per adaptation period from annotated samples; the watch answers it
// continuously from live feedback, so an operator (or an automated period
// trigger) sees drift the moment accuracy degrades instead of at the next
// period boundary.
//
// The window is a ring of per-slot (count, Σlog q) aggregates — GMQ over
// any span of slots is exp(Σlog/Σcount), so rolling the window is O(slots)
// arithmetic, no sample retention. Quantiles of the same stream are not kept
// here: the caller records each q-error in a registry histogram, whose
// buckets /metrics exposes.
type DriftWatch struct {
	mu sync.Mutex

	window   time.Duration
	slot     time.Duration
	alarmGMQ float64 // 0 disables alarms
	minCount int

	slots    []driftSlot
	cur      int
	curStart time.Time
	started  bool

	alarm      bool
	alarmSince time.Time
}

// driftSlot aggregates the q-errors observed during one slot interval.
type driftSlot struct {
	count  int
	sumLog float64
}

// driftSlots is the ring granularity; window boundaries are accurate to
// window/driftSlots.
const driftSlots = 12

// defaultDriftMinCount is the observation floor below which the watch
// refuses to alarm: a two-sample window breaching the GMQ threshold is
// noise, not drift.
const defaultDriftMinCount = 20

// NewDriftWatch builds a watch over a rolling window, alarming when the
// windowed GMQ reaches alarmGMQ (0 = never alarm; the windowed GMQ is
// still maintained for display). Windows under one second clamp to it.
func NewDriftWatch(window time.Duration, alarmGMQ float64) *DriftWatch {
	if window < time.Second {
		window = time.Second
	}
	return &DriftWatch{
		window:   window,
		slot:     window / driftSlots,
		alarmGMQ: alarmGMQ,
		minCount: defaultDriftMinCount,
		slots:    make([]driftSlot, driftSlots),
	}
}

// DriftState is one reading of the watch.
type DriftState struct {
	// WindowGMQ is the geometric mean q-error over the rolling window;
	// 1.0 (perfect) when the window is empty.
	WindowGMQ float64 `json:"window_gmq"`
	// Count is the number of feedback observations in the window.
	Count int `json:"count"`
	// Alarm is the current alarm state; AlarmSince its raise time.
	Alarm      bool      `json:"alarm"`
	AlarmSince time.Time `json:"alarm_since"`
	// Threshold and Window echo the configuration for display.
	Threshold float64       `json:"threshold"`
	Window    time.Duration `json:"window"`
}

// DriftTransition reports an alarm edge produced by one Observe call.
type DriftTransition int

const (
	// DriftNone: no alarm state change.
	DriftNone DriftTransition = iota
	// DriftRaised: the windowed GMQ crossed the threshold upwards.
	DriftRaised
	// DriftCleared: the windowed GMQ fell back below the threshold.
	DriftCleared
)

// Observe folds one feedback q-error (≥ 1) into the window at the given
// time and returns the resulting state plus any alarm transition. The
// caller turns transitions into journal events and gauge updates.
func (d *DriftWatch) Observe(q float64, now time.Time) (DriftState, DriftTransition) {
	if q < 1 || math.IsNaN(q) || math.IsInf(q, 0) {
		q = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.roll(now)
	d.slots[d.cur].count++
	d.slots[d.cur].sumLog += math.Log(q)
	return d.readLocked(now)
}

// State returns the current reading, rolling the window forward to now so
// stale slots age out even without new feedback. Aging alone can move the
// windowed GMQ across the threshold — most commonly the alarm clearing
// because feedback stopped entirely and the bad slots expired — so State
// reports alarm transitions exactly like Observe; callers should turn them
// into journal events and gauge updates the same way.
func (d *DriftWatch) State(now time.Time) (DriftState, DriftTransition) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.roll(now)
	return d.readLocked(now)
}

// readLocked computes the windowed state and applies any alarm edge it
// implies. Shared by Observe and State so the alarm tracks the window
// whether it changed by new feedback or by slots aging out.
func (d *DriftWatch) readLocked(now time.Time) (DriftState, DriftTransition) {
	st := d.stateLocked()
	tr := DriftNone
	if d.alarmGMQ > 0 {
		switch {
		case !d.alarm && st.Count >= d.minCount && st.WindowGMQ >= d.alarmGMQ:
			d.alarm = true
			d.alarmSince = now
			tr = DriftRaised
		case d.alarm && st.WindowGMQ < d.alarmGMQ:
			d.alarm = false
			d.alarmSince = time.Time{}
			tr = DriftCleared
		}
		st.Alarm = d.alarm
		st.AlarmSince = d.alarmSince
	}
	return st, tr
}

// roll advances the ring so the current slot covers now, zeroing every
// slot the advance skipped. A gap longer than the window clears the ring.
func (d *DriftWatch) roll(now time.Time) {
	if !d.started {
		d.started = true
		d.curStart = now
		return
	}
	for now.Sub(d.curStart) >= d.slot {
		d.cur = (d.cur + 1) % len(d.slots)
		d.slots[d.cur] = driftSlot{}
		d.curStart = d.curStart.Add(d.slot)
		if now.Sub(d.curStart) >= d.window {
			// Idle longer than the whole window: everything is stale.
			for i := range d.slots {
				d.slots[i] = driftSlot{}
			}
			d.curStart = now
			break
		}
	}
}

func (d *DriftWatch) stateLocked() DriftState {
	var count int
	var sumLog float64
	for _, s := range d.slots {
		count += s.count
		sumLog += s.sumLog
	}
	gmq := 1.0
	if count > 0 {
		gmq = math.Exp(sumLog / float64(count))
	}
	return DriftState{
		WindowGMQ:  gmq,
		Count:      count,
		Alarm:      d.alarm,
		AlarmSince: d.alarmSince,
		Threshold:  d.alarmGMQ,
		Window:     d.window,
	}
}
