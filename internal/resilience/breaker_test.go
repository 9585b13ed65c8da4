package resilience

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

var errBoom = errors.New("boom")

// TestBreakerLifecycle walks the full closed → open → half-open → closed /
// open cycle at the shipped thresholds (openAfter 5, probeEvery 8) and pins
// the deterministic count-based transitions.
func TestBreakerLifecycle(t *testing.T) {
	var transitions []State
	b := NewBreaker(func(s State) {
		transitions = append(transitions, s)
	})

	if got := b.State(); got != Closed {
		t.Fatalf("initial state = %v, want closed", got)
	}
	// An interleaved success resets the failure streak: four failures, a
	// success, four failures leave it closed.
	for _, err := range []error{errBoom, errBoom, errBoom, errBoom, nil, errBoom, errBoom, errBoom, errBoom} {
		if !b.Allow() {
			t.Fatal("closed breaker rejected a call")
		}
		b.Record(err)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after interleaved failures = %v, want closed", got)
	}
	// The fifth consecutive failure trips it.
	if !b.Allow() {
		t.Fatal("closed breaker rejected a call")
	}
	b.Record(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state after %d consecutive failures = %v, want open", openAfter, got)
	}
	// Rejected calls 1..7 fail fast; the 8th becomes the half-open probe.
	rejectUntilProbe := func(phase string) {
		t.Helper()
		for i := 1; i < probeEvery; i++ {
			if b.Allow() {
				t.Fatalf("%s: open breaker allowed rejected call %d", phase, i)
			}
		}
		if !b.Allow() {
			t.Fatalf("%s: probeEvery-th call was not promoted to a probe", phase)
		}
		if got := b.State(); got != HalfOpen {
			t.Fatalf("%s: state during probe = %v, want half-open", phase, got)
		}
	}
	rejectUntilProbe("first open")
	// Concurrent calls during the probe are rejected.
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second call")
	}
	// Failed probe re-opens; the reject counter restarts.
	b.Record(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	rejectUntilProbe("re-opened")
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
// Seven calls in eight fail, so even one goroutine alone reaches openAfter
// failures in a row and the breaker cycles through every state.
func TestBreakerConcurrentHammer(t *testing.T) {
	var opened atomic.Int32
	b := NewBreaker(func(s State) {
		if s == Open {
			opened.Add(1)
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if b.Allow() {
					if (g+i)%8 != 0 {
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
	if opened.Load() == 0 {
		t.Error("the hammer never opened the breaker")
	}
}
