package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/query"
	"warper/internal/resilience"
	"warper/internal/workload"
)

// panicModel wraps a trained estimator and panics on Estimate while armed.
// It stands in for a third-party model behind the ce.Estimator interface
// that does not follow the no-panic contract.
type panicModel struct {
	*ce.LM
	armed *atomic.Bool
}

func (p *panicModel) Estimate(q query.Predicate) float64 {
	if p.armed.Load() {
		panic("model exploded")
	}
	return p.LM.Estimate(q)
}

func (p *panicModel) Clone() ce.Estimator {
	return &panicModel{LM: p.LM.Clone().(*ce.LM), armed: p.armed}
}

// failingUpdate wraps lm so that every Update fails after it has mutated the
// weights (hookModel, differential_test.go) — a simulated kernel-fit
// failure: a server that forgets to reinstate the pre-period clone would
// serve the half-updated model.
func failingUpdate(lm *ce.LM) ce.Estimator {
	h := &modelHooks{}
	h.failUpdate.Store(true)
	return &hookModel{LM: lm, h: h}
}

// robustnessEnv builds a server around the given model wrapper.
func robustnessEnv(t *testing.T, wrap func(*ce.LM) ce.Estimator) (*Server, *httptest.Server, *annotator.Annotator, workload.Generator) {
	t.Helper()
	ad, sch, ann, gNew := newTestAdapter(t, 91, wrap)
	srv := NewWithOptions(ad, sch, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, ann, gNew
}

// metricsBody fetches /metrics as text.
func metricsBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPanickingModelKeepsServing is the satellite regression test for the
// recover middleware: a model panic costs one 500 and one
// serve_panics_total increment — the process and the handler mux survive.
func TestPanickingModelKeepsServing(t *testing.T) {
	armed := &atomic.Bool{}
	_, ts, _, gNew := robustnessEnv(t, func(lm *ce.LM) ce.Estimator {
		return &panicModel{LM: lm, armed: armed}
	})
	rng := rand.New(rand.NewSource(7))
	p := gNew.Gen(rng)

	// Sanity: serving works before the panic.
	r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, nil)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("pre-panic estimate = %d", r.StatusCode)
	}

	// A predicate the cache has not seen, so the request reaches the model.
	p = gNew.Gen(rng)
	armed.Store(true)
	r = postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, nil)
	if r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking estimate = %d, want 500", r.StatusCode)
	}

	// The panic must not have killed the server or orphaned the serving
	// lock: the next requests complete normally. The panic cached nothing,
	// so this one reaches the model too.
	armed.Store(false)
	var est estimateResponse
	r = postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, &est)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("post-panic estimate = %d, want 200", r.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d", resp.StatusCode)
	}
	if body := metricsBody(t, ts.URL); !strings.Contains(body, "serve_panics_total 1") {
		t.Error("serve_panics_total was not incremented to 1")
	}
}

// TestFailedPeriodKeepsPrePeriodModelServing is the acceptance-criteria
// test: a simulated kernel-fit failure during /period yields an error
// response while /estimate keeps serving the pre-period model — no process
// death, no half-updated weights.
func TestFailedPeriodKeepsPrePeriodModelServing(t *testing.T) {
	srv, ts, ann, gNew := robustnessEnv(t, failingUpdate)
	rng := rand.New(rand.NewSource(13))

	// Feed drifted, labeled arrivals so the period detects drift and
	// reaches the (failing) model update.
	for i := 0; i < 30; i++ {
		p := gNew.Gen(rng)
		card := countOK(t, ann, p)
		postJSON(t, ts.URL+"/feedback", feedbackRequest{
			predicateJSON: predicateJSON{Lows: p.Lows, Highs: p.Highs},
			Cardinality:   &card,
		}, nil)
	}

	probe := gNew.Gen(rng)
	var before estimateResponse
	if r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: probe.Lows, Highs: probe.Highs}, &before); r.StatusCode != http.StatusOK {
		t.Fatalf("pre-period estimate = %d", r.StatusCode)
	}

	r := postJSON(t, ts.URL+"/period", struct{}{}, nil)
	if r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing period = %d, want 500", r.StatusCode)
	}

	// The pre-period model must be serving: same estimate as before, even
	// though the failing Update mutated the adapter's copy first.
	var after estimateResponse
	if r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: probe.Lows, Highs: probe.Highs}, &after); r.StatusCode != http.StatusOK {
		t.Fatalf("post-failure estimate = %d, want 200", r.StatusCode)
	}
	if math.Abs(after.Cardinality-before.Cardinality) > 1e-9 {
		t.Errorf("estimate changed across failed period: %v -> %v (half-updated model serving?)",
			before.Cardinality, after.Cardinality)
	}
	// Both the adapter and the serving pool were reset to the pre-period
	// model: a direct estimate on either matches the pre-period response.
	norm := probe.Clone().Normalize(srv.sch)
	if got := srv.adapter.M.Estimate(norm); math.Abs(got-before.Cardinality) > 1e-9 {
		t.Errorf("adapter model not rolled back after failed period: estimate %v, want %v",
			got, before.Cardinality)
	}
	if got := srv.Estimator().Estimate(norm); math.Abs(got-before.Cardinality) > 1e-9 {
		t.Errorf("serving generation diverged after failed period: estimate %v, want %v",
			got, before.Cardinality)
	}
	if body := metricsBody(t, ts.URL); !strings.Contains(body, "warper_period_failures_total 1") {
		t.Error("warper_period_failures_total was not incremented to 1")
	}
	// The period latch must have been released: a retry reaches the model
	// again (and fails again) rather than 409ing forever.
	if r := postJSON(t, ts.URL+"/period", struct{}{}, nil); r.StatusCode == http.StatusConflict {
		t.Error("period latch leaked: retry answered 409")
	}
}

// faultyEnv builds a server whose adapter annotates through a deterministic
// fault injector under the resilience wrapper — the chaos-test configuration
// warperd itself no longer offers.
func faultyEnv(t *testing.T, plan resilience.FaultPlan, pol resilience.Policy) (*Server, *httptest.Server, *annotator.Annotator, workload.Generator) {
	t.Helper()
	srv, ts, ann, gNew := robustnessEnv(t, func(lm *ce.LM) ce.Estimator { return lm })
	ad := srv.adapter
	faulty := resilience.NewFaulty(ad.Source(), plan)
	ad.SetSource(resilience.Wrap(faulty, pol, srv.Metrics().ResilienceEvents()).WithCostLedger(ad.Ledger))
	return srv, ts, ann, gNew
}

// chaosPolicy keeps hung attempts short so fault-heavy tests stay fast.
func chaosPolicy(seed int64) resilience.Policy {
	return resilience.Policy{
		MaxAttempts:    3,
		AttemptTimeout: 50 * time.Millisecond,
		Seed:           seed,
	}
}

// feedDrifted posts n labeled arrivals from the drifted workload.
func feedDrifted(t *testing.T, ts *httptest.Server, ann *annotator.Annotator, gNew workload.Generator, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := gNew.Gen(rng)
		card := countOK(t, ann, p)
		postJSON(t, ts.URL+"/feedback", feedbackRequest{
			predicateJSON: predicateJSON{Lows: p.Lows, Highs: p.Highs},
			Cardinality:   &card,
		}, nil)
	}
}

// metricValue extracts one un-labeled metric's value from /metrics text.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, fields[1], err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found on /metrics", name)
	return 0
}

// TestDegradedPeriodKeepsServing is the acceptance-criteria chaos test: with
// the fault injector dropping and hanging a fifth of annotation calls, a
// period still completes (degraded, not dead), /estimate keeps serving the
// repaired model, and the resilience counters are visible on /metrics.
func TestDegradedPeriodKeepsServing(t *testing.T) {
	_, ts, ann, gNew := faultyEnv(t,
		resilience.FaultPlan{ErrRate: 0.2, HangRate: 0.05, Seed: 5},
		chaosPolicy(5))
	rng := rand.New(rand.NewSource(17))
	feedDrifted(t, ts, ann, gNew, rng, 30)

	var pr periodResponse
	if r := postJSON(t, ts.URL+"/period", struct{}{}, &pr); r.StatusCode != http.StatusOK {
		t.Fatalf("faulty period = %d, want 200 (degrade, not die)", r.StatusCode)
	}
	if pr.Annotated == 0 {
		t.Error("degraded period obtained no labels at all")
	}

	p := gNew.Gen(rng)
	var est estimateResponse
	if r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, &est); r.StatusCode != http.StatusOK {
		t.Fatalf("estimate after faulty period = %d, want 200", r.StatusCode)
	}

	body := metricsBody(t, ts.URL)
	if metricValue(t, body, "warper_annotate_retries_total") == 0 {
		t.Error("warper_annotate_retries_total = 0 under 25%% injected faults")
	}
	for _, name := range []string{
		"warper_annotate_timeouts_total", "warper_annotate_failed_total",
		"warper_breaker_state", "warper_period_partial_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
}

// TestConcurrentEstimatesDuringFaultyPeriod drives /estimate from several
// goroutines while a fault-injected period runs. Run under -race, it checks
// the clone/swap serving path and the resilience wrapper for data races, and
// that head-of-line traffic never observes an error.
func TestConcurrentEstimatesDuringFaultyPeriod(t *testing.T) {
	_, ts, ann, gNew := faultyEnv(t,
		resilience.FaultPlan{ErrRate: 0.25, HangRate: 0.05, Seed: 9},
		chaosPolicy(9))
	rng := rand.New(rand.NewSource(23))
	feedDrifted(t, ts, ann, gNew, rng, 30)

	// Pre-encode probe bodies so worker goroutines never touch the rng or t.
	var probes [][]byte
	for i := 0; i < 8; i++ {
		p := gNew.Gen(rng)
		b, err := json.Marshal(predicateJSON{Lows: p.Lows, Highs: p.Highs})
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, b)
	}

	var bad atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/estimate", "application/json",
					bytes.NewReader(probes[(w+i)%len(probes)]))
				if err != nil {
					bad.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
				}
			}
		}(w)
	}

	if r := postJSON(t, ts.URL+"/period", struct{}{}, nil); r.StatusCode != http.StatusOK {
		t.Errorf("faulty period under concurrent load = %d, want 200", r.StatusCode)
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d estimate requests failed while the faulty period ran", n)
	}
}

// TestSeededFaultyRunsAreByteIdentical pins the fault-injection determinism
// contract end to end: two servers built with identical seeds and fault
// plans produce byte-identical period outcomes and byte-identical estimate
// responses, wall-clock aside.
func TestSeededFaultyRunsAreByteIdentical(t *testing.T) {
	run := func() ([]byte, [][]byte) {
		plan := resilience.FaultPlan{ErrRate: 0.2, HangRate: 0.05, Seed: 5}
		_, ts, ann, gNew := faultyEnv(t, plan, chaosPolicy(5))
		rng := rand.New(rand.NewSource(41))
		feedDrifted(t, ts, ann, gNew, rng, 30)
		var pr periodResponse
		if r := postJSON(t, ts.URL+"/period", struct{}{}, &pr); r.StatusCode != http.StatusOK {
			t.Fatalf("period = %d", r.StatusCode)
		}
		pr.BusyMillis = 0 // the only wall-clock-dependent field
		rep, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		var ests [][]byte
		for i := 0; i < 20; i++ {
			p := gNew.Gen(rng)
			body, err := json.Marshal(predicateJSON{Lows: p.Lows, Highs: p.Highs})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("estimate %d = %d", i, resp.StatusCode)
			}
			ests = append(ests, raw)
		}
		return rep, ests
	}

	rep1, est1 := run()
	rep2, est2 := run()
	if !bytes.Equal(rep1, rep2) {
		t.Errorf("period reports differ across identically seeded runs:\n%s\n%s", rep1, rep2)
	}
	for i := range est1 {
		if !bytes.Equal(est1[i], est2[i]) {
			t.Errorf("estimate %d differs across identically seeded runs: %s vs %s", i, est1[i], est2[i])
		}
	}
}

// TestChaosSoak is the env-gated long chaos run behind `make chaos`: heavy
// fault injection, several periods, and constant concurrent traffic. The
// invariant is availability — /estimate and /healthz never fail — not period
// success; individual periods may degrade or abort under this fault rate.
func TestChaosSoak(t *testing.T) {
	if os.Getenv("WARPER_CHAOS") == "" {
		t.Skip("chaos soak is opt-in: set WARPER_CHAOS=1 (or run `make chaos`)")
	}
	_, ts, ann, gNew := faultyEnv(t,
		resilience.FaultPlan{ErrRate: 0.35, HangRate: 0.1, Seed: 3},
		chaosPolicy(3))
	rng := rand.New(rand.NewSource(29))

	var bad atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var probes [][]byte
	for i := 0; i < 8; i++ {
		p := gNew.Gen(rng)
		b, err := json.Marshal(predicateJSON{Lows: p.Lows, Highs: p.Highs})
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, b)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/estimate", "application/json",
					bytes.NewReader(probes[(w+i)%len(probes)]))
				if err != nil {
					bad.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
				}
			}
		}(w)
	}

	completed := 0
	for round := 0; round < 3; round++ {
		feedDrifted(t, ts, ann, gNew, rng, 25)
		if r := postJSON(t, ts.URL+"/period", struct{}{}, nil); r.StatusCode == http.StatusOK {
			completed++
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz round %d: %v", round, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz round %d = %d", round, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
	if completed == 0 {
		t.Error("no period completed across the chaos soak")
	}
	if n := bad.Load(); n != 0 {
		t.Errorf("%d estimate requests failed during the chaos soak", n)
	}

	// `make chaos` captures the soak's /status document as a CI artifact:
	// its journal holds the breaker transitions, degradation steps and model
	// swaps the fault injection provoked, in causal order.
	if path := os.Getenv("WARPER_EVENTS_OUT"); path != "" {
		resp, err := http.Get(ts.URL + "/status")
		if err != nil {
			t.Fatalf("events artifact: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("events artifact: %v", err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatalf("events artifact: %v", err)
		}
		t.Logf("wrote the /status document, adaptation journal included, to %s", path)
	}
}
