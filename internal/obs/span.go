package obs

import "time"

// Span measures one timed section and records its duration, in seconds, into
// a histogram. The zero Span is inert: End on it returns 0 and records
// nothing, so callers can thread optional instrumentation without nil checks.
type Span struct {
	h     *Histogram
	start time.Time
	ended bool
}

// StartSpan begins timing against h (which may be nil).
func StartSpan(h *Histogram) Span {
	return Span{h: h, start: time.Now()}
}

// End stops the span, records the elapsed seconds and returns the duration.
// It is safe to call on a zero Span, and at most the first call records: a
// second End on the same span returns 0 and observes nothing, so a defer
// plus an explicit early End cannot double-count a histogram.
func (s *Span) End() time.Duration {
	if s.ended || s.start.IsZero() {
		return 0
	}
	s.ended = true
	d := time.Since(s.start)
	if s.h != nil {
		s.h.Observe(d.Seconds())
	}
	return d
}
