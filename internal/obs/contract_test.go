package obs

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanEndAtMostOnce pins the End contract: the first call records, every
// later call returns 0 and observes nothing, so a defer plus an explicit
// early End cannot double-count.
func TestSpanEndAtMostOnce(t *testing.T) {
	h := NewHistogram(LatencyOpts())
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("first End = %v, want > 0", d)
	}
	if d := sp.End(); d != 0 {
		t.Errorf("second End = %v, want 0", d)
	}
	if h.Count() != 1 {
		t.Errorf("histogram recorded %d observations, want 1", h.Count())
	}

	// The defer-plus-early-End idiom the contract exists for.
	h2 := NewHistogram(LatencyOpts())
	func() {
		sp := StartSpan(h2)
		defer sp.End()
		sp.End()
	}()
	if h2.Count() != 1 {
		t.Errorf("defer+early End recorded %d, want 1", h2.Count())
	}
}

// TestGaugeAddConcurrent hammers the CAS loop in Gauge.Add from many
// goroutines; the final value must be the exact sum (run under -race to
// validate the loop's memory ordering).
func TestGaugeAddConcurrent(t *testing.T) {
	var g Gauge
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add(1)
				g.Add(-0.5)
			}
		}()
	}
	wg.Wait()
	want := float64(workers * perWorker * 0.5)
	if got := g.Value(); math.Abs(got-want) > 1e-6 {
		t.Errorf("gauge = %v, want %v", got, want)
	}
}

// TestExportRacesSeriesCreation is the registry's concurrency contract: a
// label value seen for the first time (a new `reason` on a counter, a new
// handler on a histogram) creates a series at any moment, including while
// /metrics and /debug/vars are walking the registry.
// The exporters must work on a snapshot taken under the registry lock —
// walking the live series map is a fatal "concurrent map iteration and map
// write", and reading a just-created series' value pointer is a data race.
// Run under -race.
func TestExportRacesSeriesCreation(t *testing.T) {
	r := NewRegistry()
	const creators, perCreator = 4, 200
	var creating, exporting sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < creators; w++ {
		creating.Add(1)
		go func(w int) {
			defer creating.Done()
			for i := 0; i < perCreator; i++ {
				v := strconv.Itoa(w*perCreator + i)
				r.Counter("shed_total", "reason", v).Inc()
				r.Gauge("depth", "queue", v).Set(1)
				r.Histogram("wait_seconds", LatencyOpts(), "handler", v).Observe(0.01)
			}
		}(w)
	}
	for _, export := range []func(){
		func() {
			r.PrometheusHandler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
		},
		func() {
			r.VarsHandler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/debug/vars", nil))
		},
	} {
		exporting.Add(1)
		go func(export func()) {
			defer exporting.Done()
			for {
				select {
				case <-stop:
					return
				default:
					export()
				}
			}
		}(export)
	}
	creating.Wait()
	close(stop)
	exporting.Wait()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(sb.String(), "shed_total{"), creators*perCreator; got != want {
		t.Errorf("exposition has %d shed_total series, want %d", got, want)
	}
}
