package resilience

import "sync"

// The breaker's thresholds. It is deliberately count-based rather than
// time-based so its transitions are a pure function of the call sequence
// (reproducible under the seeded fault plans).
const (
	// openAfter consecutive failures trip the breaker from Closed to Open.
	openAfter = 5
	// probeEvery: every probeEvery-th rejected call in the Open state is
	// promoted to a half-open probe.
	probeEvery = 8
)

// Breaker is a deterministic counting circuit breaker.
//
// Closed → Open after openAfter consecutive failures. While Open, calls
// are rejected, except that every probeEvery-th rejected call transitions
// to HalfOpen and proceeds as the probe. The probe's outcome moves the
// breaker back to Closed (success) or Open (failure). While a probe is in
// flight, all other calls are rejected.
//
// Breaker is safe for concurrent use.
type Breaker struct {
	mu       sync.Mutex
	state    State
	failures int // consecutive failures while Closed
	rejected int // rejected calls while Open, since last transition
	onState  func(State)
}

// NewBreaker returns a Closed breaker. onState, if non-nil, fires on every
// state transition (synchronously, with the breaker's lock held — it must
// not call back into the breaker).
func NewBreaker(onState func(State)) *Breaker {
	return &Breaker{onState: onState}
}

// State returns the current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether a call may proceed. A false return means the caller
// should fail fast with ErrOpen. Every allowed call must be matched by one
// Record or Release call.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		return false // probe already in flight
	default: // Open
		b.rejected++
		if b.rejected%probeEvery == 0 {
			b.setState(HalfOpen)
			return true
		}
		return false
	}
}

// Record reports the outcome of an allowed call.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		if err == nil {
			b.failures = 0
			b.setState(Closed)
		} else {
			b.rejected = 0
			b.setState(Open)
		}
	case Closed:
		if err == nil {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= openAfter {
			b.failures = 0
			b.rejected = 0
			b.setState(Open)
		}
	default:
		// Open: a straggler finishing after the breaker tripped; the
		// trip already accounted for the failure streak.
	}
}

// Release returns an allowed call that ended without an outcome: its caller
// gave up before the source answered. The failure streak is untouched, and a
// released half-open probe re-opens the breaker so a later call can probe.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.setState(Open)
	}
}

func (b *Breaker) setState(s State) {
	if b.state == s {
		return
	}
	b.state = s
	if b.onState != nil {
		b.onState(s)
	}
}
