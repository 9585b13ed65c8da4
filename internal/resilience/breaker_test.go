package resilience

import (
	"errors"
	"sync"
	"testing"
)

var errBoom = errors.New("boom")

// TestBreakerLifecycle walks the full closed → open → half-open → closed /
// open cycle and pins the deterministic count-based transitions.
func TestBreakerLifecycle(t *testing.T) {
	var transitions []State
	b := NewBreaker(BreakerConfig{OpenAfter: 3, ProbeEvery: 4}, func(s State) {
		transitions = append(transitions, s)
	})

	if got := b.State(); got != Closed {
		t.Fatalf("initial state = %v, want closed", got)
	}
	// Interleaved success resets the failure streak.
	for _, err := range []error{errBoom, errBoom, nil, errBoom, errBoom} {
		if !b.Allow() {
			t.Fatal("closed breaker rejected a call")
		}
		b.Record(err)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after interleaved failures = %v, want closed", got)
	}
	// Third consecutive failure trips it.
	if !b.Allow() {
		t.Fatal("closed breaker rejected a call")
	}
	b.Record(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state after %d consecutive failures = %v, want open", 3, got)
	}
	// Rejected calls 1..3 fail fast; the 4th becomes the half-open probe.
	for i := 0; i < 3; i++ {
		if b.Allow() {
			t.Fatalf("open breaker allowed rejected call %d", i+1)
		}
	}
	if !b.Allow() {
		t.Fatal("ProbeEvery-th call was not promoted to a probe")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	// Concurrent calls during the probe are rejected.
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second call")
	}
	// Failed probe re-opens; the reject counter restarts.
	b.Record(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	for i := 0; i < 3; i++ {
		if b.Allow() {
			t.Fatalf("re-opened breaker allowed rejected call %d", i+1)
		}
	}
	if !b.Allow() {
		t.Fatal("second probe not granted")
	}
	// Successful probe closes.
	b.Record(nil)
	if got := b.State(); got != Closed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}

	want := []State{Open, HalfOpen, Open, HalfOpen, Closed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v (all: %v)", i, transitions[i], want[i], transitions)
		}
	}
}

// TestBreakerConcurrentHammer drives the state machine from many goroutines
// under -race: the invariant checked is simply that the breaker never
// deadlocks or corrupts state (final state must be a valid enum member).
func TestBreakerConcurrentHammer(t *testing.T) {
	b := NewBreaker(BreakerConfig{OpenAfter: 3, ProbeEvery: 2}, func(State) {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if b.Allow() {
					if (g+i)%3 == 0 {
						b.Record(errBoom)
					} else {
						b.Record(nil)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s := b.State(); s != Closed && s != Open && s != HalfOpen {
		t.Fatalf("breaker in invalid state %d", int(s))
	}
}
