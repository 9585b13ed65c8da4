// Package app is the golden fixture for the call-graph layer: recursion,
// interface dispatch, method values, closures, and go/defer calls. The
// Estimator interface mirrors ce.Estimator's dispatch shape with two
// implementations, so CHA fan-out is observable.
package app

type Estimator interface{ Estimate(x float64) float64 }

type LM struct{ w float64 }

func (m *LM) Estimate(x float64) float64 { return m.w * x }

type Hist struct{ b []float64 }

func (h *Hist) Estimate(x float64) float64 { return h.b[0] + x }

// Dispatch calls through the interface: CHA resolves to both
// implementations.
func Dispatch(e Estimator, x float64) float64 { return e.Estimate(x) }

// Even and Odd are mutually recursive; graph construction must terminate
// and keep both edges.
func Even(n int) bool {
	if n == 0 {
		return true
	}
	return Odd(n - 1)
}

func Odd(n int) bool {
	if n == 0 {
		return false
	}
	return Even(n - 1)
}

// Spawn exercises every remaining way to reach a function from one body.
func Spawn(e Estimator) {
	go worker(e)    // spawned calls are calls
	defer cleanup() // so are deferred ones

	f := e.Estimate // method value, CHA fan-out
	_ = f

	add := func(a, b float64) float64 { return a + b } // closure built, not called
	_ = add

	func() { // literal invoked in place
		_ = Dispatch(e, 1)
	}()
}

func worker(e Estimator) { _ = Dispatch(e, 2) }

func cleanup() {}
