package simclock

import (
	"testing"
	"time"
)

func TestLedger(t *testing.T) {
	l := NewLedger()
	l.Charge("annotate", 3*time.Second)
	l.Charge("annotate", 2*time.Second)
	l.Charge("model", time.Second)
	if l.Get("annotate") != 5*time.Second {
		t.Errorf("annotate = %v", l.Get("annotate"))
	}
	if l.Total() != 6*time.Second {
		t.Errorf("total = %v", l.Total())
	}
	if s := l.String(); s != "annotate=5s model=1s" {
		t.Errorf("String = %q", s)
	}
	l.Reset()
	if l.Total() != 0 {
		t.Error("reset failed")
	}
}

func TestCPUPercent(t *testing.T) {
	if got := CPUPercent(3*time.Second, 5*time.Minute); got != 1 {
		t.Errorf("CPUPercent = %v, want 1", got)
	}
}

func TestStopwatch(t *testing.T) {
	w := StartWatch()
	if w.Stop() < 0 {
		t.Error("negative elapsed")
	}
}

// TestStopwatchLapsTile pins Lap's contract: laps restart the watch where
// they end, so they add up to the elapsed time with nothing lost between.
func TestStopwatchLapsTile(t *testing.T) {
	w := StartWatch()
	begin := w.start
	var sum time.Duration
	for i := 0; i < 100; i++ {
		sum += w.Lap()
	}
	if got := w.start.Sub(begin); sum != got {
		t.Errorf("100 laps sum to %v over an interval of %v", sum, got)
	}
}
