package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "handler", "estimate")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters never decrease
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels → same counter; label order must not matter.
	if r.Counter("reqs_total", "handler", "estimate") != c {
		t.Error("re-registration returned a different counter")
	}
	c2 := r.Counter("reqs_total", "code", "200", "handler", "x")
	c3 := r.Counter("reqs_total", "handler", "x", "code", "200")
	if c2 != c3 {
		t.Error("label order changed series identity")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("pool_size")
	g.Set(10)
	g.Add(-2.5)
	if got := g.Value(); got != 7.5 {
		t.Errorf("gauge = %v, want 7.5", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram(HistogramOpts{Start: 1, Growth: 2, Count: 4}) // bounds 1,2,4,8
	for _, v := range []float64{0.5, 1, 1.5, 3, 7, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+3+7+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	bs := h.Buckets()
	wantCounts := []int64{2, 1, 1, 1, 1} // ≤1, ≤2, ≤4, ≤8, overflow
	if len(bs) != len(wantCounts) {
		t.Fatalf("buckets = %d, want %d", len(bs), len(wantCounts))
	}
	for i, want := range wantCounts {
		if bs[i].Count != want {
			t.Errorf("bucket[%d] = %d, want %d", i, bs[i].Count, want)
		}
	}
	if !math.IsInf(bs[len(bs)-1].UpperBound, 1) {
		t.Error("last bucket should be +Inf")
	}
	// The median of 6 observations lands in the ≤2 bucket (1 < q50 ≤ 2).
	if q := h.Quantile(0.5); q < 0.5 || q > 2 {
		t.Errorf("p50 = %v, want within (0.5, 2]", q)
	}
	// Quantiles are monotone in q.
	if h.Quantile(0.2) > h.Quantile(0.9) {
		t.Error("quantiles not monotone")
	}
	if q := h.Quantile(1); q != 8 {
		t.Errorf("p100 with overflow = %v, want last finite bound 8", q)
	}
}

// TestHistogramCountsDiffIsTheWindow pins what the health machine's wait
// window (and any scraper) relies on: the difference of two Counts readings
// is the histogram of the observations between them, and reading it through
// a presized buffer allocates nothing.
func TestHistogramCountsDiffIsTheWindow(t *testing.T) {
	h := NewHistogram(HistogramOpts{Start: 0.001, Growth: 10, Count: 4})
	h.Observe(0.01)
	base := h.Counts(nil)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(1000) // overflow
	delta := h.Counts(nil)
	if len(delta) != 5 {
		t.Fatalf("Counts has %d entries, want 4 buckets + overflow", len(delta))
	}
	for i := range delta {
		delta[i] -= base[i]
	}
	// The windowed median sits in the 0.5 bucket, not dragged down by the
	// pre-window 0.01 observation; the lifetime median still sees it.
	if p50 := h.QuantileOfCounts(delta, 0.5); p50 < 0.1 {
		t.Errorf("windowed p50 = %v, polluted by pre-window data", p50)
	}
	if got, want := h.QuantileOfCounts(h.Counts(nil), 0.5), h.Quantile(0.5); got != want {
		t.Errorf("QuantileOfCounts(Counts) = %v, Quantile = %v", got, want)
	}
	if got := h.QuantileOfCounts(make([]int64, 5), 0.99); got != 0 {
		t.Errorf("empty window p99 = %v, want 0", got)
	}
	buf := make([]int64, 0, 5)
	if n := testing.AllocsPerRun(100, func() { _ = h.QuantileOfCounts(h.Counts(buf), 0.99) }); n != 0 {
		t.Errorf("presized Counts + QuantileOfCounts allocate %v times, want 0", n)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(QErrorOpts())
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", LatencyOpts()).Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Errorf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("h", LatencyOpts()).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestSpanRecords(t *testing.T) {
	h := NewHistogram(LatencyOpts())
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Error("span duration should be positive")
	}
	if h.Count() != 1 {
		t.Errorf("histogram count = %d, want 1", h.Count())
	}
	var zero Span
	if zero.End() != 0 {
		t.Error("zero span should be inert")
	}
}
