package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warper/internal/ce"
	"warper/internal/query"
)

// drainReplicas checks out every free replica so the pool looks saturated;
// the caller checks them back in (or restoreReplicas does) to end the
// simulated overload.
func drainReplicas(t *testing.T, srv *Server) []*replica {
	t.Helper()
	var out []*replica
	for {
		r, _, err := srv.pool.checkout(false, time.Time{})
		if err != nil {
			return out
		}
		out = append(out, r)
	}
}

func restoreReplicas(srv *Server, rs []*replica) {
	for _, r := range rs {
		srv.pool.checkin(r)
	}
}

// TestSheddingState429 pins the top of the ladder: in shedding state with no
// replica free, /estimate answers 429 with Retry-After and charges
// estimate_shed_total{reason="shedding"}; once healthy again the same
// request serves normally.
func TestSheddingState429(t *testing.T) {
	srv, ts, _, _, gNew := newTestServerOpts(t, Options{Replicas: 2})
	p := gNew.Gen(rand.New(rand.NewSource(3)))

	srv.health.state.Store(int32(Shedding))
	held := drainReplicas(t, srv)
	r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, nil)
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shedding estimate = %d, want 429", r.StatusCode)
	}
	if ra := r.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if body := metricsBody(t, ts.URL); !strings.Contains(body, `estimate_shed_total{reason="shedding"} 1`) {
		t.Error("estimate_shed_total{reason=\"shedding\"} not incremented")
	}

	// A free replica is still admitted in shedding state (try-only).
	restoreReplicas(srv, held)
	var est estimateResponse
	if r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, &est); r.StatusCode != http.StatusOK {
		t.Fatalf("shedding estimate with free replica = %d, want 200", r.StatusCode)
	}
	if est.Degraded {
		t.Error("replica-served answer marked degraded")
	}
	srv.health.state.Store(int32(Healthy))
}

// TestDegradedStateFallsBack pins the middle rung: degraded state with no
// replica free serves from the histogram ladder, marked "degraded": true with
// the reason, and healthy responses stay byte-identical to the legacy wire
// format (no degraded/reason keys at all).
func TestDegradedStateFallsBack(t *testing.T) {
	srv, ts, _, _, gNew := newTestServerOpts(t, Options{Replicas: 2})
	p := gNew.Gen(rand.New(rand.NewSource(5)))

	srv.health.state.Store(int32(Degraded))
	held := drainReplicas(t, srv)
	var est estimateResponse
	r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, &est)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("degraded estimate = %d, want 200", r.StatusCode)
	}
	if !est.Degraded || est.Reason != "degraded" {
		t.Errorf("degraded answer = {degraded:%v reason:%q}, want {true \"degraded\"}", est.Degraded, est.Reason)
	}
	if est.Cardinality <= 0 {
		t.Errorf("fallback cardinality = %v, want > 0", est.Cardinality)
	}

	// With the annotation breaker open the reason is attributed to it.
	srv.health.breakerOpen.Store(true)
	est = estimateResponse{}
	postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, &est)
	if est.Reason != "breaker" {
		t.Errorf("breaker-open fallback reason = %q, want \"breaker\"", est.Reason)
	}
	srv.health.breakerOpen.Store(false)

	body := metricsBody(t, ts.URL)
	for _, m := range []string{
		`estimate_fallback_total{reason="degraded"} 1`,
		`estimate_fallback_total{reason="breaker"} 1`,
	} {
		if !strings.Contains(body, m) {
			t.Errorf("metric %s missing from /metrics", m)
		}
	}

	// Back to healthy with replicas free: the response body must not even
	// mention degradation (wire-format byte identity with the legacy path).
	restoreReplicas(srv, held)
	srv.health.state.Store(int32(Healthy))
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(predicateJSON{Lows: p.Lows, Highs: p.Highs}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/estimate", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("degraded")) || bytes.Contains(raw, []byte("reason")) {
		t.Errorf("healthy response leaks degradation fields: %s", raw)
	}
}

// TestDeadlineBudgetFallsBackToLadder pins the healthy-path budget: with
// every replica busy, a request carrying a deadline (server default here)
// waits at most the budget and then answers from the ladder with reason
// "timeout".
func TestDeadlineBudgetFallsBackToLadder(t *testing.T) {
	srv, ts, _, _, gNew := newTestServerOpts(t, Options{Replicas: 2, EstimateTimeout: 30 * time.Millisecond})
	p := gNew.Gen(rand.New(rand.NewSource(7)))

	held := drainReplicas(t, srv)
	defer restoreReplicas(srv, held)
	start := time.Now()
	var est estimateResponse
	r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, &est)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("budget-missed estimate = %d, want 200 (fallback)", r.StatusCode)
	}
	if !est.Degraded || est.Reason != "timeout" {
		t.Errorf("budget miss = {degraded:%v reason:%q}, want {true \"timeout\"}", est.Degraded, est.Reason)
	}
	if wait := time.Since(start); wait > 5*time.Second {
		t.Errorf("budget-missed request took %v, want ~30ms", wait)
	}
	if body := metricsBody(t, ts.URL); !strings.Contains(body, `estimate_fallback_total{reason="timeout"} 1`) {
		t.Error("estimate_fallback_total{reason=\"timeout\"} not incremented")
	}
}

// TestDeadlineHeaderOverride pins the per-request override: a server with no
// default budget honors X-Warper-Deadline-Ms, so a drained pool answers from
// the ladder instead of blocking forever.
func TestDeadlineHeaderOverride(t *testing.T) {
	srv, ts, _, _, gNew := newTestServerOpts(t, Options{Replicas: 2})
	p := gNew.Gen(rand.New(rand.NewSource(9)))

	held := drainReplicas(t, srv)
	defer restoreReplicas(srv, held)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(predicateJSON{Lows: p.Lows, Highs: p.Highs}); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/estimate", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Warper-Deadline-Ms", "25")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("override estimate = %d, want 200", resp.StatusCode)
	}
	var est estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	if !est.Degraded || est.Reason != "timeout" {
		t.Errorf("override miss = {degraded:%v reason:%q}, want {true \"timeout\"}", est.Degraded, est.Reason)
	}
}

// TestQueueBoundSheds pins the bounded admission queue: with the only
// replica busy and a one-slot queue, the second queued arrival is shed with
// reason "queue_full" while the first still gets its replica.
func TestQueueBoundSheds(t *testing.T) {
	srv, _, sch, _, gNew := newTestServerOpts(t, Options{
		Replicas:        1,
		EstimateTimeout: time.Second,
		ShedQueue:       1,
	})
	p := gNew.Gen(rand.New(rand.NewSource(11))).Normalize(sch)

	held := drainReplicas(t, srv)
	type res struct {
		card float64
		out  EstimateOutcome
	}
	first := make(chan res, 1)
	go func() {
		c, o := srv.EstimateBudget(p, time.Now().Add(time.Second))
		first <- res{c, o}
	}()
	// Wait for the first request to park in the queue.
	for i := 0; srv.QueueDepth() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if srv.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d, want 1 parked waiter", srv.QueueDepth())
	}

	_, out := srv.EstimateBudget(p, time.Now().Add(time.Second))
	if !out.Shed || out.Reason != "queue_full" {
		t.Errorf("over-bound arrival = %+v, want shed queue_full", out)
	}

	restoreReplicas(srv, held)
	got := <-first
	if got.out != (EstimateOutcome{}) {
		t.Errorf("queued request outcome = %+v, want full-model answer", got.out)
	}
	if want := srv.Estimator().Estimate(p); got.card != want {
		t.Errorf("queued request answer = %v, want %v", got.card, want)
	}
}

// TestEstimateAndFeedbackBodyCaps pins the request-body satellite: /estimate
// and /feedback reject oversized bodies with 413, like /period always has.
func TestEstimateAndFeedbackBodyCaps(t *testing.T) {
	_, ts, _, _, _ := newTestServer(t)
	huge := `{"pad":"` + strings.Repeat("a", maxPeriodBody) + `"}`
	for _, path := range []string{"/estimate", "/feedback"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized %s = %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestEstimatesSurviveReplicaPanicExhaustion is the checkin-on-panic
// regression: more panicking requests than replicas must not leak the pool
// dry — every replica's deferred checkin returns it even when the model
// panics, so post-panic estimates all succeed.
func TestEstimatesSurviveReplicaPanicExhaustion(t *testing.T) {
	armed := &atomic.Bool{}
	srv, ts, _, gNew := robustnessEnv(t, func(lm *ce.LM) ce.Estimator {
		return &panicModel{LM: lm, armed: armed}
	})
	rng := rand.New(rand.NewSource(17))
	p := gNew.Gen(rng)
	n := cap(srv.pool.free)

	armed.Store(true)
	for i := 0; i < 2*n+2; i++ {
		r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, nil)
		if r.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking estimate %d = %d, want 500", i, r.StatusCode)
		}
	}
	armed.Store(false)

	// If any panic leaked its replica, one of these n+2 serial estimates
	// would block forever on an empty free list.
	client := &http.Client{Timeout: 15 * time.Second}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(predicateJSON{Lows: p.Lows, Highs: p.Highs}); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	for i := 0; i < n+2; i++ {
		resp, err := client.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post-panic estimate %d: %v (replica leaked on panic?)", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-panic estimate %d = %d, want 200", i, resp.StatusCode)
		}
	}
}

// TestHealthMovesWithoutATick is the regression test for a health machine
// only outside parties could move: the server sees nothing but estimates — no
// /metrics scrape, no /feedback, no /period — and must still leave Healthy
// when its one replica is starved, say why in the journal, and walk back once
// the starvation ends, on the strength of the same callers' requests.
func TestHealthMovesWithoutATick(t *testing.T) {
	const (
		callers = 4
		budget  = 5 * time.Millisecond
	)
	chaos := &modelHooks{chaos: chaosPlan{starveEvery: 1, starveHold: 20 * time.Millisecond}}
	chaos.chaosOn.Store(true)
	// Wait thresholds out of reach, as in the soak below: the callers parked
	// behind the held replica (QueueHigh = ShedQueue/2 = 2 < callers-1)
	// drive the ladder, and a scheduler-inflated wait sample cannot pin the
	// recovery for the length of the wait window.
	srv, _, sch, _, gNew := newTestServerWrap(t, Options{
		Replicas:  1,
		ShedQueue: 4,
		Health: HealthConfig{
			EvalInterval:   5 * time.Millisecond,
			DegradeWaitP99: 30 * time.Second,
			ShedWaitP99:    time.Minute,
		},
	}, chaos.wrap)
	p := gNew.Gen(rand.New(rand.NewSource(23))).Normalize(sch)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				srv.EstimateBudget(p, time.Now().Add(budget))
				time.Sleep(time.Millisecond) // a client, not a spin loop: an unstarved replica keeps up
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not within 2s (state %v, queue %d)", what, srv.HealthState(), srv.QueueDepth())
			}
		}
	}

	waitFor("leave healthy under starvation", func() bool { return srv.HealthState() != Healthy })
	var first map[string]any
	for _, ev := range srv.rec.journal.Snapshot() {
		if ev.Kind == "health" {
			first = ev.Fields
			break
		}
	}
	if first == nil {
		t.Fatal("the state moved but no health event was journaled")
	}
	if first["from"] != "healthy" || first["to"] != "degraded" {
		t.Errorf("first health event %v -> %v, want healthy -> degraded", first["from"], first["to"])
	}
	for _, k := range []string{"wait_p99_ms", "queue_depth", "breaker_open", "swap_age_ms"} {
		if _, ok := first[k]; !ok {
			t.Errorf("health event carries no %s signal: %v", k, first)
		}
	}
	if d, _ := first["queue_depth"].(int64); d < srv.health.cfg.QueueHigh {
		t.Errorf("health event queue_depth = %v, below QueueHigh %d: what moved the state?", first["queue_depth"], srv.health.cfg.QueueHigh)
	}

	chaos.chaosOn.Store(false)
	waitFor("recover once the starvation ends", func() bool { return srv.HealthState() == Healthy })
}

// TestOverloadChaosSoak is the env-gated overload soak behind `make chaos`:
// replica starvation, a slow mid-traffic model swap and an open annotation
// breaker, all at once, under -race. Invariants: the admission queue stays
// bounded, every health transition in the journal is a single monotone step,
// and once the chaos stops the server walks back to healthy and serves
// byte-identical full-model answers.
func TestOverloadChaosSoak(t *testing.T) {
	if os.Getenv("WARPER_CHAOS") == "" {
		t.Skip("overload soak is opt-in: set WARPER_CHAOS=1 (or run `make chaos`)")
	}
	const (
		budget   = 10 * time.Millisecond
		maxQueue = 8
		workers  = 12
	)
	chaos := &modelHooks{chaos: chaosPlan{
		starveEvery: 2,
		starveHold:  2 * time.Millisecond,
		swapDelay:   100 * time.Millisecond,
	}}
	chaos.chaosOn.Store(true)
	// Wait thresholds sit far above anything this run can record: under
	// the race detector a timed-out wait's measured duration includes
	// scheduler delays of hundreds of milliseconds, and those samples live
	// in the 1-minute metrics window long after the chaos ends — they
	// would pin the machine degraded through the whole recovery deadline.
	// Queue depth (QueueHigh = maxQueue/2 = 4 < workers) and the breaker
	// signal drive the ladder here.
	srv, ts, sch, ann, gNew := newTestServerWrap(t, Options{
		Replicas:        2,
		EstimateTimeout: budget,
		ShedQueue:       maxQueue,
		Health: HealthConfig{
			EvalInterval:   5 * time.Millisecond,
			DegradeWaitP99: 30 * time.Second,
			ShedWaitP99:    time.Minute,
		},
	}, chaos.wrap)
	rng := rand.New(rand.NewSource(19))
	probes := make([]query.Predicate, 8)
	for i := range probes {
		probes[i] = gNew.Gen(rng).Normalize(sch)
	}

	// Chaos phase: open-ended load against starved replicas, the breaker
	// signal forced open, and one adaptation period (with its delayed swap)
	// overlapping the traffic.
	srv.health.breakerOpen.Store(true)
	var ok, degraded, shed, overBound atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, o := srv.EstimateBudget(probes[i%len(probes)], time.Now().Add(budget))
				switch {
				case o.Shed:
					shed.Add(1)
				case o.Degraded:
					degraded.Add(1)
				default:
					ok.Add(1)
				}
				// Transient overshoot of `workers` is the reservation
				// window (Add before the bound check rolls back).
				if d := srv.QueueDepth(); d > maxQueue+workers {
					overBound.Add(1)
				}
			}
		}(w)
	}

	feedDrifted(t, ts, ann, gNew, rng, 25)
	postJSON(t, ts.URL+"/period", struct{}{}, nil) // may fail; overlap is the point
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	if overBound.Load() > 0 {
		t.Errorf("admission queue exceeded its bound %d times", overBound.Load())
	}
	if ok.Load()+degraded.Load()+shed.Load() == 0 {
		t.Fatal("soak issued no requests")
	}
	t.Logf("soak outcomes: ok %d, degraded %d, shed %d", ok.Load(), degraded.Load(), shed.Load())

	// Recovery: chaos off, breaker closed; the requests of a client that
	// keeps asking are what walk the machine back to healthy.
	chaos.chaosOn.Store(false)
	srv.health.breakerOpen.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for srv.HealthState() != Healthy && time.Now().Before(deadline) {
		srv.EstimateBudget(probes[0], time.Now().Add(budget))
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.HealthState(); got != Healthy {
		t.Fatalf("server did not recover to healthy, state %v (wait_p99 %.3fs, queue %d, breaker %v, swap_start %d)",
			got, srv.health.wait.p99(time.Now()), srv.QueueDepth(), srv.health.breakerOpen.Load(), srv.health.swapStart.Load())
	}

	// Every journaled health transition is one monotone step.
	var transitions int
	for _, ev := range srv.rec.journal.Snapshot() {
		if ev.Kind != "health" {
			continue
		}
		transitions++
		from, to := healthLevel(t, ev.Fields["from"]), healthLevel(t, ev.Fields["to"])
		if d := to - from; d != 1 && d != -1 {
			t.Errorf("health transition %v -> %v is not a single step", ev.Fields["from"], ev.Fields["to"])
		}
	}
	if transitions == 0 {
		t.Error("soak provoked no health transitions")
	}

	// Byte-identity once healthy: two raw reads agree with each other, with
	// the in-process model, and carry no degradation fields.
	body, err := json.Marshal(predicateJSON{Lows: probes[0].Lows, Highs: probes[0].Highs})
	if err != nil {
		t.Fatal(err)
	}
	read := func() []byte {
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
			t.Fatalf("post-recovery estimate = %d", resp.StatusCode)
		}
		return raw
	}
	a, b := read(), read()
	if !bytes.Equal(a, b) {
		t.Errorf("post-recovery answers differ: %s vs %s", a, b)
	}
	if bytes.Contains(a, []byte("degraded")) {
		t.Errorf("post-recovery answer still degraded: %s", a)
	}
	var est estimateResponse
	if err := json.Unmarshal(a, &est); err != nil {
		t.Fatal(err)
	}
	if want := srv.Estimator().Estimate(probes[0]); est.Cardinality != want {
		t.Errorf("post-recovery answer %v, want full-model %v", est.Cardinality, want)
	}
}

// storeMax raises a to v when v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for old := a.Load(); v > old && !a.CompareAndSwap(old, v); old = a.Load() {
	}
}

// TestOverloadOpenLoop2xSaturation is the overload acceptance run, opt-in
// behind `make chaos` like the soak above. Replica starvation makes
// saturation machine-independent (every checkout holds its replica for
// starveHold, so the pool serves ~replicas/starveHold per second however
// fast the model infers); the closed-loop saturation rate is measured, and
// then arrivals are released open-loop at twice that rate — they do not wait
// for completions, which is what lets a queue grow and makes its bound mean
// something. The shapes exercise every rung: the excess arrival rate times
// the budget exceeds the queue bound (the queue caps out and sheds), the
// full queue's drain time exceeds the budget (queued requests time out into
// the fallback ladder), and QueueHigh (= shedQueue/2) is crossed (the health
// machine reaches shedding and its admission rule sheds too). Asserted: the
// queue stays within its bound, no shed answer overstays the budget, both
// rungs fire, the server walks back to healthy, and the model's answers are
// bit-identical afterwards.
func TestOverloadOpenLoop2xSaturation(t *testing.T) {
	if os.Getenv("WARPER_CHAOS") == "" {
		t.Skip("overload acceptance run is opt-in: set WARPER_CHAOS=1 (or run `make chaos`)")
	}
	const (
		clients    = 8
		budget     = 5 * time.Millisecond
		shedQueue  = 64
		starveHold = 100 * time.Microsecond
		step       = 2 * time.Millisecond // dispatcher release interval
		satDur     = 150 * time.Millisecond
		dur        = 600 * time.Millisecond
		// depthSlack covers arrivals sampled between their queue reservation
		// and its rollback; latencySlack covers timer-wakeup scheduling noise.
		depthSlack   = clients * 8
		latencySlack = 250 * time.Millisecond
	)
	chaos := &modelHooks{chaos: chaosPlan{starveEvery: 1, starveHold: starveHold}}
	chaos.chaosOn.Store(true)
	// Wait thresholds out of reach, as in the soak: queue depth drives the
	// ladder, and scheduler-inflated wait samples cannot pin recovery.
	srv, _, sch, _, gNew := newTestServerWrap(t, Options{
		Replicas:        clients,
		EstimateTimeout: budget,
		ShedQueue:       shedQueue,
		Health: HealthConfig{
			EvalInterval:   20 * time.Millisecond,
			DegradeWaitP99: 30 * time.Second,
			ShedWaitP99:    time.Minute,
		},
	}, chaos.wrap)
	rng := rand.New(rand.NewSource(17))
	ref := srv.Estimator().Clone()
	preds := make([]query.Predicate, 256)
	want := make([]float64, len(preds))
	for i := range preds {
		preds[i] = gNew.Gen(rng).Normalize(sch)
		want[i] = ref.Estimate(preds[i])
	}

	// Phase 1: closed-loop saturation, every answer checked.
	var completed, diverged atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Since(start) < satDur; i++ {
				if srv.Estimate(preds[i%len(preds)]) != want[i%len(preds)] {
					diverged.Add(1)
				}
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if n := diverged.Load(); n != 0 {
		t.Fatalf("saturation: %d estimates diverged from the reference", n)
	}
	saturation := float64(completed.Load()) / time.Since(start).Seconds()

	// Phase 2: open-loop arrivals at 2x saturation. The arrivals are the
	// health machine's only clock, and each one samples the queue depth as
	// it leaves.
	var ok, degraded, shed, maxShedLat, maxDepth atomic.Int64
	perStep := max(1, int(2*saturation*step.Seconds()))
	start = time.Now()
	for s, idx := 0, 0; s < int(dur/step); s++ {
		time.Sleep(time.Until(start.Add(time.Duration(s) * step)))
		for j := 0; j < perStep; j, idx = j+1, idx+1 {
			wg.Add(1)
			go func(p query.Predicate) {
				defer wg.Done()
				t0 := time.Now()
				_, o := srv.EstimateBudget(p, t0.Add(budget))
				switch {
				case o.Shed:
					shed.Add(1)
					storeMax(&maxShedLat, int64(time.Since(t0)))
				case o.Degraded:
					degraded.Add(1)
				default:
					ok.Add(1)
				}
				storeMax(&maxDepth, srv.QueueDepth())
			}(preds[idx%len(preds)])
		}
	}
	wg.Wait()
	t.Logf("saturation %.0f est/s, offered 2x: ok %d, degraded %d, shed %d; max queue depth %d (bound %d), max shed latency %v (budget %v)",
		saturation, ok.Load(), degraded.Load(), shed.Load(), maxDepth.Load(), shedQueue, time.Duration(maxShedLat.Load()), budget)
	if d := maxDepth.Load(); d > shedQueue+depthSlack {
		t.Errorf("queue depth %d grew past the %d bound", d, shedQueue)
	}
	if lat := time.Duration(maxShedLat.Load()); lat > budget+latencySlack {
		t.Errorf("a shed answer took %v, budget %v", lat, budget)
	}
	if shed.Load() == 0 {
		t.Error("no request shed at 2x saturation: load shedding untested")
	}
	if degraded.Load() == 0 {
		t.Error("no degraded answer at 2x saturation: fallback ladder untested")
	}

	// Phase 3: chaos off; the health machine must walk back to healthy and
	// overload must not have perturbed the served model.
	chaos.chaosOn.Store(false)
	recoverBy := time.Now().Add(10 * time.Second)
	for srv.HealthState() != Healthy && time.Now().Before(recoverBy) {
		srv.EstimateBudget(preds[0], time.Now().Add(budget))
		time.Sleep(20 * time.Millisecond)
	}
	if got := srv.HealthState(); got != Healthy {
		t.Fatalf("server did not recover to healthy (state %v)", got)
	}
	for i, p := range preds {
		if got := srv.Estimate(p); got != want[i] {
			t.Fatalf("post-recovery estimate %d = %v, want %v", i, got, want[i])
		}
	}
}
