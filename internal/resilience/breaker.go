package resilience

import "sync"

// BreakerConfig parameterizes the counting circuit breaker. Zero values take
// defaults, following the repo's Config convention.
type BreakerConfig struct {
	// OpenAfter is the number of consecutive failures that trips the
	// breaker from Closed to Open. Default 5.
	OpenAfter int
	// ProbeEvery promotes every N-th rejected call in the Open state to a
	// half-open probe. The breaker is deliberately count-based rather than
	// time-based so its transitions are a pure function of the call
	// sequence (reproducible under the seeded fault plans). Default 8.
	ProbeEvery int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.OpenAfter <= 0 {
		c.OpenAfter = 5
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 8
	}
	return c
}

// Breaker is a deterministic counting circuit breaker.
//
// Closed → Open after cfg.OpenAfter consecutive failures. While Open, calls
// are rejected, except that every cfg.ProbeEvery-th rejected call transitions
// to HalfOpen and proceeds as the probe. The probe's outcome moves the
// breaker back to Closed (success) or Open (failure). While a probe is in
// flight, all other calls are rejected.
//
// Breaker is safe for concurrent use.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	state    State
	failures int // consecutive failures while Closed
	rejected int // rejected calls while Open, since last transition
	onState  func(State)
}

// NewBreaker returns a Closed breaker. onState, if non-nil, fires on every
// state transition (synchronously, with the breaker's lock held — it must
// not call back into the breaker).
func NewBreaker(cfg BreakerConfig, onState func(State)) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), onState: onState}
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
		if b.rejected%b.cfg.ProbeEvery == 0 {
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
		if b.failures >= b.cfg.OpenAfter {
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
