package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"warper/internal/obs"
	"warper/internal/query"
	"warper/internal/wire"
	"warper/internal/workload"
)

// post sends one request with an optional X-Warper-Deadline-Ms budget and
// returns the status and body.
func post(t testing.TB, url, ctype string, body []byte, budgetMs int) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	if budgetMs > 0 {
		req.Header.Set(deadlineHeader, strconv.Itoa(budgetMs))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// parseShed parses a 429 body ("overloaded: <reason>") into its outcome.
func parseShed(code int, body []byte) (EstimateOutcome, error) {
	reason, ok := strings.CutPrefix(string(body), "overloaded: ")
	if code != http.StatusTooManyRequests || !ok {
		return EstimateOutcome{}, fmt.Errorf("status = %d (%s), want 200 or a 429 shed", code, body)
	}
	return EstimateOutcome{Shed: true, Reason: strings.TrimSpace(reason)}, nil
}

// shedOutcome is parseShed for the test's own goroutine.
func shedOutcome(t testing.TB, code int, body []byte) EstimateOutcome {
	t.Helper()
	out, err := parseShed(code, body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// reasonCounters snapshots the five per-reason admission counters.
func reasonCounters(srv *Server) map[string]int64 {
	return map[string]int64{
		reasonTimeout:   srv.met.fbTimeout.Value(),
		reasonBreaker:   srv.met.fbBreaker.Value(),
		reasonDegraded:  srv.met.fbDegraded.Value(),
		reasonQueueFull: srv.met.shedQueueFull.Value(),
		reasonShedding:  srv.met.shedShedding.Value(),
	}
}

// TestEntryPointsAgree is the one-pipeline contract in every admission
// state, not just healthy: the same predicate sent through EstimateBudget,
// POST /estimate, a one-row binary frame and row 280 of a 300-row binary
// frame (its second 256-row group) gets the same cardinality bits, the same
// outcome class and reason, and charges the same per-reason counter once
// per group — and only full-model answers ever reach the cache.
func TestEntryPointsAgree(t *testing.T) {
	for _, cacheOn := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache=%v", cacheOn), func(t *testing.T) {
			entryPointsAgree(t, cacheOn)
		})
	}
}

// admissionOutcome is the admission table, spelled out from the outside:
// what a request whose rows all miss the cache must come back as, given the
// health state, whether every replica is held, and whether the request
// carries a deadline.
func admissionOutcome(state HealthState, breaker, held, budgeted bool) EstimateOutcome {
	switch {
	case !held:
		return EstimateOutcome{}
	case state == Shedding:
		return EstimateOutcome{Shed: true, Reason: "shedding"}
	case state == Degraded && breaker:
		return EstimateOutcome{Degraded: true, Reason: "breaker"}
	case state == Degraded:
		return EstimateOutcome{Degraded: true, Reason: "degraded"}
	case !budgeted:
		return EstimateOutcome{} // waits until the replica is released
	}
	return EstimateOutcome{Degraded: true, Reason: "timeout"}
}

// entryPointsAgree walks the admission table on one server.
func entryPointsAgree(t *testing.T, cacheOn bool) {
	type health struct {
		name    string
		state   HealthState
		breaker bool
	}
	healths := []health{
		{"healthy", Healthy, false},
		{"degraded", Degraded, false},
		{"degraded+breaker", Degraded, true},
		{"shedding", Shedding, false},
	}
	const bigRows, bigRow = 300, 280

	srv, ts, sch, _, gNew := newTestServerOpts(t, Options{
		BinaryProtocol: true,
		Replicas:       1,
		EstimateCache:  cacheOn,
	})
	ref := srv.Estimator().Clone()
	rng := rand.New(rand.NewSource(41))
	big := make([]query.Predicate, bigRows)
	for i := range big {
		big[i] = gNew.Gen(rng)
	}
	for _, h := range healths {
		for _, held := range []bool{false, true} {
			for _, budgeted := range []bool{false, true} {
				name := fmt.Sprintf("%s/held=%v/budgeted=%v", h.name, held, budgeted)
				p := gNew.Gen(rng)
				pn := p.Normalize(sch)
				big[bigRow] = p
				jsonBody, err := jsonBytes(predicateJSON{Lows: p.Lows, Highs: p.Highs})
				if err != nil {
					t.Fatal(err)
				}
				oneFrame, err := wire.AppendRequest(nil, 0, []query.Predicate{p}, false)
				if err != nil {
					t.Fatal(err)
				}
				bigFrame, err := wire.AppendRequest(nil, 0, big, false)
				if err != nil {
					t.Fatal(err)
				}
				budgetMs := 0
				if budgeted {
					budgetMs = 1
				}
				wireCall := func(frame []byte, row int) (float64, EstimateOutcome) {
					code, body := post(t, ts.URL+"/estimate/batch", wireContentType, frame, budgetMs)
					if code != http.StatusOK {
						return 0, shedOutcome(t, code, body)
					}
					hd, cards, err := wire.DecodeResponse(body, nil)
					if err != nil {
						t.Fatalf("%s: DecodeResponse: %v", name, err)
					}
					// The wire carries the class, not the reason: the
					// counter deltas below pin the reason.
					return cards[row], EstimateOutcome{Degraded: hd.Degraded()}
				}
				entries := []struct {
					name   string
					groups int64
					call   func() (float64, EstimateOutcome)
				}{
					{"EstimateBudget", 1, func() (float64, EstimateOutcome) {
						var deadline time.Time
						if budgeted {
							deadline = time.Now().Add(time.Millisecond)
						}
						return srv.EstimateBudget(pn, deadline)
					}},
					{"POST /estimate", 1, func() (float64, EstimateOutcome) {
						code, body := post(t, ts.URL+"/estimate", "application/json", jsonBody, budgetMs)
						if code != http.StatusOK {
							return 0, shedOutcome(t, code, body)
						}
						var er estimateResponse
						if err := json.Unmarshal(body, &er); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						return er.Cardinality, EstimateOutcome{Degraded: er.Degraded, Reason: er.Reason}
					}},
					{"one-row frame", 1, func() (float64, EstimateOutcome) { return wireCall(oneFrame, 0) }},
					{"row 280 of 300", 2, func() (float64, EstimateOutcome) { return wireCall(bigFrame, bigRow) }},
				}

				srv.health.state.Store(int32(h.state))
				srv.health.breakerOpen.Store(h.breaker)
				exp := admissionOutcome(h.state, h.breaker, held, budgeted)
				wantCard := ref.Estimate(pn)
				if exp.Degraded {
					wantCard = srv.fb.estimate(pn)
				}
				var r *replica
				if held {
					if r, _, err = srv.pool.checkout(false, time.Time{}); err != nil {
						t.Fatalf("%s: hold the replica: %v", name, err)
					}
				}
				for _, ep := range entries {
					var entriesBefore int64
					if cacheOn {
						// Hide what the previous entry point cached, so
						// every one of them takes the miss path: a swap to
						// the same weights bumps the generation.
						srv.pool.swap(srv.Estimator())
						entriesBefore = srv.cache.entries()
					}
					before := reasonCounters(srv)
					var released chan struct{}
					if held && h.state == Healthy && !budgeted {
						// The request queues forever: hand the replica
						// back once it is parked, take it again after.
						released = make(chan struct{})
						go func() {
							defer close(released)
							for i := 0; srv.met.checkoutQueue.Value() < 1 && i < 5000; i++ {
								time.Sleep(time.Millisecond)
							}
							srv.pool.checkin(r)
						}()
					}
					card, got := ep.call()
					if released != nil {
						<-released
						if r, _, err = srv.pool.checkout(false, time.Time{}); err != nil {
							t.Fatalf("%s/%s: re-hold the replica: %v", name, ep.name, err)
						}
					}
					if got.Degraded != exp.Degraded || got.Shed != exp.Shed {
						t.Errorf("%s/%s: outcome %+v, want %+v", name, ep.name, got, exp)
						continue
					}
					if got.Reason != "" && got.Reason != exp.Reason {
						t.Errorf("%s/%s: reason %q, want %q", name, ep.name, got.Reason, exp.Reason)
					}
					if !exp.Shed && math.Float64bits(card) != math.Float64bits(wantCard) {
						t.Errorf("%s/%s: cardinality %v, want %v", name, ep.name, card, wantCard)
					}
					// One charge per group; a shed stops at its first group.
					charges := map[string]int64{}
					switch {
					case exp.Shed:
						charges[exp.Reason] = 1
					case exp.Degraded:
						charges[exp.Reason] = ep.groups
					}
					for reason, v := range reasonCounters(srv) {
						if d := v - before[reason]; d != charges[reason] {
							t.Errorf("%s/%s: counter{reason=%q} moved by %d, want %d", name, ep.name, reason, d, charges[reason])
						}
					}
					if cacheOn {
						if grew := srv.cache.entries() - entriesBefore; (exp.Shed || exp.Degraded) && grew != 0 {
							t.Errorf("%s/%s: %+v answer grew the cache by %d entries", name, ep.name, exp, grew)
						}
						// A full-model answer is cached: asking again hits,
						// whatever the admission state.
						hits := srv.met.cacheHits.Value()
						srv.EstimateBudget(pn, time.Now().Add(time.Millisecond))
						if hit := srv.met.cacheHits.Value() == hits+1; hit != (exp == EstimateOutcome{}) {
							t.Errorf("%s/%s: answer cached = %v after outcome %+v", name, ep.name, hit, exp)
						}
					}
				}
				if held {
					srv.pool.checkin(r)
				}
			}
		}
	}
}

// TestScalarZeroAllocSteady is TestWireZeroAllocSteady for the group of
// one: a warmed in-process estimate allocates nothing whether it hits the
// cache, misses it, misses it under a deadline, or misses into a full cache
// and evicts — nor does the envelope the HTTP handler wraps around it
// (Acquire → EnterStage → Finish) while the tracer's sample rate is 0.
func TestScalarZeroAllocSteady(t *testing.T) {
	srv, _, sch, _, gNew := newTestServerOpts(t, Options{EstimateCache: true, Replicas: 2})
	rng := rand.New(rand.NewSource(29))
	const runs = 100
	// p is the hit. A miss case asks, run by run, about a predicate nothing
	// has cached yet: four to warm up, then runs+1 for each of the three
	// (AllocsPerRun adds one warm-up run).
	keys := distinctKeys(gNew, sch, 1+4+3*(runs+1), rng)
	p, fresh := keys[0], keys[1:]
	nextFresh := func() query.Predicate {
		q := fresh[0]
		fresh = fresh[1:]
		return q
	}
	// Warm both replicas (the free list is FIFO) and the pooled scratch.
	for i := 0; i < 4; i++ {
		srv.Estimate(nextFresh())
	}
	srv.Estimate(p)
	tracerOff := obs.NewTracer(0, 64)

	// A second server with the smallest cache there is (cacheShards ×
	// cacheWays slots) under a cyclic scan of eight times as many distinct
	// predicates: every estimate misses, finds its probe group full of live
	// same-generation entries and takes put's second-chance eviction branch.
	full, _, fsch, _, fgen := newTestServerOpts(t, Options{EstimateCache: true, CacheEntries: 1, Replicas: 2})
	scan := distinctKeys(fgen, fsch, 8*full.cache.capacity, rng)
	next := 0
	scanOne := func() {
		full.Estimate(scan[next%len(scan)])
		next++
	}
	for range scan {
		scanOne()
	}

	cases := []struct {
		name string
		srv  *Server
		// miss asks about a fresh predicate every run; evict misses by
		// scanning and expects every run to evict a live entry. Neither: a
		// hit.
		miss, evict bool
		call        func()
	}{
		{"Estimate hit", srv, false, false, func() { srv.Estimate(p) }},
		{"Estimate miss", srv, true, false, func() { srv.Estimate(nextFresh()) }},
		{"EstimateBudget miss", srv, true, false, func() { srv.EstimateBudget(nextFresh(), time.Now().Add(time.Minute)) }},
		{"Estimate miss in a tracer-off envelope", srv, true, false, func() {
			tr := tracerOff.Acquire("estimate")
			tr.EnterStage("infer")
			srv.Estimate(nextFresh())
			tracerOff.Finish(tr)
		}},
		{"Estimate miss into a full cache", full, false, true, scanOne},
	}
	for _, tc := range cases {
		misses, evictions := tc.srv.met.cacheMisses.Value(), tc.srv.met.cacheEvictions.Value()
		allocs := testing.AllocsPerRun(runs, tc.call)
		if allocs != 0 {
			t.Errorf("%s allocates %v per call, want 0", tc.name, allocs)
		}
		want := int64(0)
		if tc.miss || tc.evict {
			want = runs + 1
		}
		if missed := tc.srv.met.cacheMisses.Value() - misses; missed != want {
			t.Errorf("%s: %d of %d runs took the miss path, want %d", tc.name, missed, runs+1, want)
		}
		if got := tc.srv.met.cacheEvictions.Value() - evictions; tc.evict && got < runs {
			t.Errorf("%s: %d evictions over %d runs, want every insert to evict", tc.name, got, runs)
		}
	}
}

// distinctKeys draws n normalized predicates from g whose cache keys differ
// pairwise.
func distinctKeys(g workload.Generator, sch *query.Schema, n int, rng *rand.Rand) []query.Predicate {
	out := make([]query.Predicate, 0, n)
	seen := make(map[uint64]bool, n)
	for len(out) < n {
		p := g.Gen(rng).Normalize(sch)
		if h := cacheHash(p); !seen[h] {
			seen[h] = true
			out = append(out, p)
		}
	}
	return out
}

// slowBody trickles its bytes out over a fixed time and signals when the
// last one has been read.
type slowBody struct {
	data  []byte
	chunk int
	pause time.Duration
	done  chan struct{}
}

func (b *slowBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(b.pause)
	n := copy(p, b.data[:min(b.chunk, len(b.data))])
	b.data = b.data[n:]
	if len(b.data) == 0 {
		close(b.done)
	}
	return n, nil
}

// TestBatchDeadlineStartsAfterDecode pins where the deadline budget starts:
// it bounds the wait for a replica, so a slow upload must not spend it. A
// 200 ms budget, a body trickled in over 300 ms, and the only replica held
// until 50 ms after the body completes: the request must queue for those
// 50 ms and get the model's answer, not a fallback answer it never waited
// for.
func TestBatchDeadlineStartsAfterDecode(t *testing.T) {
	srv, ts, sch, _, gNew := newTestServerOpts(t, Options{BinaryProtocol: true, Replicas: 1})
	p := gNew.Gen(rand.New(rand.NewSource(31)))
	frame, err := wire.AppendRequest(nil, 0, []query.Predicate{p}, false)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := srv.pool.checkout(false, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 6
	body := &slowBody{
		data:  frame,
		chunk: (len(frame) + chunks - 1) / chunks,
		pause: 300 * time.Millisecond / chunks,
		done:  make(chan struct{}),
	}
	go func() {
		<-body.done
		time.Sleep(50 * time.Millisecond)
		srv.pool.checkin(r)
	}()
	req, err := http.NewRequest("POST", ts.URL+"/estimate/batch", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(frame))
	req.Header.Set("Content-Type", wireContentType)
	req.Header.Set(deadlineHeader, "200")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", resp.StatusCode, raw)
	}
	h, cards, err := wire.DecodeResponse(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Degraded() {
		t.Errorf("slow upload spent the replica-wait budget: answer is degraded (fallback timeouts = %d)", srv.met.fbTimeout.Value())
	}
	if want := srv.Estimator().Clone().Estimate(p.Normalize(sch)); len(cards) != 1 || cards[0] != want {
		t.Errorf("cards = %v, want [%v]", cards, want)
	}
}
