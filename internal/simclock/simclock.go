// Package simclock provides the virtual time base of the experiment harness.
// The paper's experiments run over 30-minute wall-clock windows with fixed
// query arrival rates; re-running them in real time would make the
// reproduction take hours and be nondeterministic. Instead, real compute
// costs (annotation scans, model updates, Warper component training) are
// measured with real timers on the actual work and charged to a virtual
// clock, preserving the paper's cost accounting (§4.3: CPU% = busy/period)
// while keeping experiments fast and deterministic.
package simclock

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Ledger accumulates named busy-time charges (the adaptation period's
// stages, pretraining, retried annotation) so experiments can report
// per-component costs and CPU utilization exactly as Table 6 and Table 11 do.
type Ledger struct {
	charges map[string]time.Duration
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{charges: make(map[string]time.Duration)}
}

// Charge adds busy time under the given component name.
func (l *Ledger) Charge(name string, d time.Duration) {
	if d < 0 {
		panic("simclock: negative charge")
	}
	l.charges[name] += d
}

// Get returns the accumulated busy time for one component.
func (l *Ledger) Get(name string) time.Duration { return l.charges[name] }

// String renders the ledger sorted by component name.
func (l *Ledger) String() string {
	names := make([]string, 0, len(l.charges))
	for n := range l.charges {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%v ", n, l.charges[n])
	}
	return strings.TrimSpace(b.String())
}

// CPUPercent converts busy time within a period to average single-core CPU
// utilization in percent (the unit of Table 6).
func CPUPercent(busy, period time.Duration) float64 {
	if period <= 0 {
		panic("simclock: non-positive period")
	}
	return float64(busy) / float64(period) * 100
}

// Stopwatch measures real compute so it can be charged to the virtual clock.
type Stopwatch struct{ start time.Time }

// StartWatch begins timing.
func StartWatch() Stopwatch { return Stopwatch{start: time.Now()} }

// Stop returns the elapsed real time.
func (s Stopwatch) Stop() time.Duration { return time.Since(s.start) }

// Lap returns the real time elapsed since the watch started or last lapped,
// and restarts it at the same instant: consecutive laps tile the interval
// they cover with no gap and no overlap.
func (s *Stopwatch) Lap() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	s.start = now
	return d
}
