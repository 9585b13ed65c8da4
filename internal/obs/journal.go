package obs

import (
	"sync"
	"time"
)

// Event is one adaptation-lifecycle record in the journal: what the serving
// stack decided (a period started, a model swapped in, the breaker opened,
// the drift watch fired) and why, correlated to request traces by ID.
type Event struct {
	// Seq is the global append order; it never resets, so gaps at the head
	// of a snapshot reveal how many events the bounded buffer evicted.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Kind names the lifecycle event (period_start, period_end, model_swap,
	// period_rollback, degrade_*, health, breaker, drift_alarm, drift_clear).
	Kind string `json:"kind"`
	// TraceID links the event to a request trace when one caused it
	// (0 = none).
	TraceID uint64 `json:"trace_id,omitempty"`
	// Fields carries the event payload (counts, durations, generations).
	Fields map[string]any `json:"fields,omitempty"`
}

// Journal is a bounded append-only event log: a ring buffer that keeps the
// newest capacity events and counts what it evicted. Appends are rare
// (lifecycle cadence, not request cadence), so a plain mutex is the right
// tool; readers get a consistent ordered copy.
type Journal struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // seq of the next appended event == total appended
}

// NewJournal returns a journal retaining the last capacity events
// (minimum 16).
func NewJournal(capacity int) *Journal {
	if capacity < 16 {
		capacity = 16
	}
	return &Journal{buf: make([]Event, 0, capacity)}
}

// Append records one event. fields may be nil; the map is retained, so
// callers must not mutate it afterwards.
func (j *Journal) Append(kind string, traceID uint64, fields map[string]any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev := Event{Seq: j.next, Time: time.Now(), Kind: kind, TraceID: traceID, Fields: fields}
	if len(j.buf) < cap(j.buf) {
		j.buf = append(j.buf, ev)
	} else {
		j.buf[int(j.next)%cap(j.buf)] = ev
	}
	j.next++
}

// Snapshot returns the retained events oldest-first.
func (j *Journal) Snapshot() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.buf))
	if len(j.buf) < cap(j.buf) {
		out = append(out, j.buf...)
		return out
	}
	head := int(j.next) % cap(j.buf) // oldest retained
	out = append(out, j.buf[head:]...)
	out = append(out, j.buf[:head]...)
	return out
}

// Total returns how many events were ever appended; Total minus the
// snapshot length is the eviction count.
func (j *Journal) Total() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}
