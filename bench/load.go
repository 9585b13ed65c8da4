package main

import (
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// series is a sequence of uint32 samples (ns) in completion order, cut into
// measuring windows.
type series struct {
	v    []uint32
	cuts []int // cuts[w] = number of samples filed before window w ended
	full bool
}

func newSeries(samples, windows int) series {
	return series{v: make([]uint32, 0, samples), cuts: make([]int, 0, windows)}
}

// record files one sample under window w. Windows only advance.
func (s *series) record(d time.Duration, w int) {
	for len(s.cuts) < w {
		s.cuts = append(s.cuts, len(s.v))
	}
	if len(s.v) == cap(s.v) {
		s.full = true
		return
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32 // a request over 4.29 s saturates
	}
	s.v = append(s.v, uint32(d))
}

// seal closes the series at n windows.
func (s *series) seal(n int) {
	for len(s.cuts) < n {
		s.cuts = append(s.cuts, len(s.v))
	}
	s.cuts = s.cuts[:n]
}

// window returns the samples of window w.
func (s *series) window(w int) []uint32 {
	lo := 0
	if w > 0 {
		lo = s.cuts[w-1]
	}
	return s.v[lo:s.cuts[w]]
}

// recorder holds one closed-loop client's request latencies. Everything is
// allocated before the measured phase; a full recorder is an error, never a
// silent drop.
type recorder struct {
	lat    series
	failed int
}

// gate parks a closed-loop client between two requests so the driver can
// read state the client's traffic would race with. Parked time is taken off
// the client's window clock, so a pause neither shortens a window's work nor
// counts as server time.
type gate struct {
	want   atomic.Bool
	parked chan struct{}
	resume chan struct{}
	gone   chan struct{} // closed when the client has exited
	held   bool          // driver-side: a pause parked the client
}

func newGate() *gate {
	return &gate{parked: make(chan struct{}), resume: make(chan struct{}), gone: make(chan struct{})}
}

// pause returns once the client sits between requests (or has exited);
// release with unpause.
func (g *gate) pause() {
	g.want.Store(true)
	select {
	case <-g.parked:
		g.held = true
	case <-g.gone:
	}
}

func (g *gate) unpause() {
	g.want.Store(false)
	if g.held {
		g.held = false
		g.resume <- struct{}{}
	}
}

// loadSpec is one closed-loop measuring phase.
type loadSpec struct {
	addr    string
	clients int
	rows    int // predicate rows per request
	// next returns the request bytes of a client's i-th request and check
	// validates its response body; both must not allocate.
	next  func(client, i int) []byte
	check func(client, i int, status int, body []byte) bool

	warmup  time.Duration
	window  time.Duration
	windows int // 0: windows run until stop is closed, for at most maxDuration
	// stop, closed by the driver when adapt_drift's script ends, ends a phase
	// that has no fixed number of windows.
	stop chan struct{}
	// maxDuration sizes the recorders of a phase that runs until stopped.
	maxDuration time.Duration
	gate        *gate // optional, single-client phases only
	// echoAddr is the calibration server every client samples between
	// requests, into echo (see calib.go).
	echoAddr string
	echo     *echoLog
	// spans, when non-nil, receives one client span per request completed
	// in an odd window.
	spans *spanLog
}

// loadResult is what a phase measured, reduced per window.
type loadResult struct {
	windows   int
	attempted int // requests answered, warm-up included
	failed    int
	samples   int // requests answered inside a window

	perSec        []float64 // per-window predicate rows answered per second
	p50, p95, p99 []float64 // per-window request latency, µs
	echoUs        []float64 // per-window median echo sample, µs
}

// normalised scales per-window durations (or, with rate set, rates) to the
// reference host by each window's own echo time.
func (r *loadResult) normalised(xs []float64, rate bool) []float64 {
	out := make([]float64, len(xs))
	for w, x := range xs {
		f := speed(r.echoUs[w])
		if rate {
			f = 1 / f
		}
		out[w] = x * f
	}
	return out
}

var errRecorderFull = errors.New("latency recorder full: raise its capacity for this request rate")

// runLoad drives spec.clients closed-loop connections: each sends its next
// request only when the previous reply has been read and checked.
func runLoad(spec loadSpec) (*loadResult, error) {
	conns := make([]*conn, spec.clients)
	echoes := make([]*conn, spec.clients)
	for i := range conns {
		c, err := dial(spec.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
		if c, err = dial(spec.echoAddr); err != nil {
			return nil, err
		}
		defer c.close()
		echoes[i] = c
	}
	planned := spec.windows
	if planned == 0 {
		planned = int(spec.maxDuration/spec.window) + 1
	}
	// Three times the request rate one connection reaches on the reference
	// host: 40k scalar requests/s, 12k frames/s.
	rate := 120000.0
	if spec.rows > 1 {
		rate = 40000
	}
	perClient := int(rate * (spec.window * time.Duration(planned)).Seconds())
	recs := make([]*recorder, spec.clients)
	for i := range recs {
		recs[i] = &recorder{lat: newSeries(perClient, planned)}
	}

	var wg sync.WaitGroup
	errs := make([]error, spec.clients)
	seen := make([]int, spec.clients) // requests answered, warm-up included
	start := time.Now()
	for ci := range conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			if spec.gate != nil {
				defer close(spec.gate.gone)
			}
			c, rec := conns[ci], recs[ci]
			var paused, nextEcho time.Duration
			for i := 0; ; i++ {
				select {
				case <-spec.stop:
					return
				default:
				}
				if spec.gate != nil && spec.gate.want.Load() {
					p0 := time.Since(start)
					spec.gate.parked <- struct{}{}
					<-spec.gate.resume
					paused += time.Since(start) - p0
				}
				t1 := time.Since(start)
				status, body, err := c.roundTrip(spec.next(ci, i))
				t2 := time.Since(start)
				if err != nil {
					errs[ci] = err
					return
				}
				seen[ci]++
				// A wrong answer counts wherever it falls, warm-up included.
				if !spec.check(ci, i, status, body) {
					rec.failed++
				}
				// The window clock: time since the warm-up ended, parked
				// time taken out.
				w := -1
				if at := t2 - paused - spec.warmup; at >= 0 {
					w = int(at / spec.window)
				}
				if spec.windows > 0 && w >= spec.windows {
					return
				}
				if w >= 0 {
					rec.lat.record(t2-t1, w)
					if spec.spans != nil && w%2 == 1 {
						spec.spans.add(requestSpan, start.Add(t1), t2-t1, -1, ci)
					}
				}
				if t2 >= nextEcho {
					us, err := echoSample(echoes[ci])
					if err != nil {
						errs[ci] = err
						return
					}
					spec.echo.add(time.Now(), us, w)
					nextEcho = time.Since(start) + echoEvery
				}
			}
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Complete windows only: every client must have finished window w.
	n := spec.windows
	if n == 0 {
		n = math.MaxInt
		for _, r := range recs {
			if len(r.lat.cuts) < n {
				n = len(r.lat.cuts)
			}
		}
	}
	res := &loadResult{windows: n}
	var scratch []uint32
	for _, r := range recs {
		if r.lat.full {
			return nil, errRecorderFull
		}
		r.lat.seal(n)
		res.failed += r.failed
	}
	for _, n := range seen {
		res.attempted += n
	}
	for w := 0; w < n; w++ {
		scratch = scratch[:0]
		for _, r := range recs {
			scratch = append(scratch, r.lat.window(w)...)
		}
		res.samples += len(scratch)
		slices.Sort(scratch)
		res.perSec = append(res.perSec, float64(len(scratch)*spec.rows)/spec.window.Seconds())
		res.p50 = append(res.p50, quantileUs(scratch, 0.50))
		res.p95 = append(res.p95, quantileUs(scratch, 0.95))
		res.p99 = append(res.p99, quantileUs(scratch, 0.99))
		res.echoUs = append(res.echoUs, spec.echo.ofWindow(w))
	}
	return res, nil
}

// quantileUs reads quantile q of sorted ns samples, in µs.
func quantileUs[T uint32 | time.Duration](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cv is the coefficient of variation of xs.
func cv(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / mean
}

// subset returns xs at the indices whose parity matches odd.
func subset(xs []float64, odd bool) []float64 {
	var out []float64
	for i, x := range xs {
		if (i%2 == 1) == odd {
			out = append(out, x)
		}
	}
	return out
}
