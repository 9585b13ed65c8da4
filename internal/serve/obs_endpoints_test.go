package serve

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsExposition drives the full estimate→feedback→period flow and
// checks GET /metrics: valid exposition format and every required family.
func TestMetricsExposition(t *testing.T) {
	_, ts, _, ann, gNew := newTestServer(t)
	rng := rand.New(rand.NewSource(7))
	// One estimate, 25 labeled feedback items, one period.
	p := gNew.Gen(rng)
	postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, nil)
	for i := 0; i < 25; i++ {
		q := gNew.Gen(rng)
		card := countOK(t, ann, q)
		postJSON(t, ts.URL+"/feedback", feedbackRequest{
			predicateJSON: predicateJSON{Lows: q.Lows, Highs: q.Highs},
			Cardinality:   &card,
		}, nil)
	}
	postJSON(t, ts.URL+"/period", struct{}{}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Every non-comment line must match the exposition sample syntax.
	lineRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]?Inf|-?[0-9][0-9eE.+-]*)$`)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}

	// Required families and series from the acceptance criteria.
	for _, want := range []string{
		`warper_http_requests_total{code="200",handler="estimate"} 1`,
		`warper_http_requests_total{code="200",handler="feedback"} 25`,
		`warper_http_requests_total{code="200",handler="period"} 1`,
		`warper_http_request_seconds_bucket{handler="estimate",le="+Inf"} 1`,
		`warper_qerror_ratio_count 25`,
		`warper_period_stage_seconds_count{stage="detect"} 1`,
		`warper_period_stage_seconds_count{stage="generate"} 1`,
		`warper_period_stage_seconds_count{stage="pick"} 1`,
		`warper_period_stage_seconds_count{stage="annotate"} 1`,
		`warper_period_stage_seconds_count{stage="update"} 1`,
		`warper_periods_total 1`,
		"warper_pool_size ",
		"warper_pool_labeled ",
		"warper_pi ",
		"warper_gamma ",
		"warper_delta_m ",
		"warper_delta_js ",
		"warper_replica_checkout_wait_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDebugVarsRoundTrip(t *testing.T) {
	_, ts, sch, _, gNew := newTestServer(t)
	_ = sch
	p := gNew.Gen(rand.New(rand.NewSource(3)))
	postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, nil)

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars = %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("vars not valid JSON: %v", err)
	}
	var reqs int64
	if err := json.Unmarshal(vars[`warper_http_requests_total{code="200",handler="estimate"}`], &reqs); err != nil || reqs != 1 {
		t.Errorf("estimate counter = %d, %v (keys: %d)", reqs, err, len(vars))
	}
	var lat struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(vars[`warper_http_request_seconds{handler="estimate"}`], &lat); err != nil || lat.Count != 1 {
		t.Errorf("latency histogram = %+v, %v", lat, err)
	}
}

func TestPeriodConflictReturns409(t *testing.T) {
	srv, ts, _, _, _ := newTestServer(t)
	// Simulate an in-flight period by holding the period lock.
	srv.periodMu.Lock()
	defer srv.periodMu.Unlock()
	r := postJSON(t, ts.URL+"/period", struct{}{}, nil)
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", r.StatusCode)
	}
	if got := srv.Metrics().Reg.Counter(mPeriodConflicts).Value(); got != 1 {
		t.Errorf("conflict counter = %d, want 1", got)
	}
}

func TestPeriodRejectsBadContentTypeAndBody(t *testing.T) {
	_, ts, _, _, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/period", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("bad content-type status = %d, want 415", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/period", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body status = %d, want 400", resp.StatusCode)
	}
	// Empty body stays accepted.
	resp, err = http.Post(ts.URL+"/period", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("empty body status = %d, want 200", resp.StatusCode)
	}
}

func TestPprofGatedByOption(t *testing.T) {
	srv, ts, _, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof should be off by default")
	}
	// Same server, pprof-enabled handler.
	srv.pprof = true
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index = %d, want 200", resp.StatusCode)
	}
}

// TestEstimatesServableDuringPeriod verifies the head-of-line fix: while an
// adaptation period runs, estimates keep completing. Run with -race this
// also proves the clone/swap dance is data-race free.
func TestEstimatesServableDuringPeriod(t *testing.T) {
	srv, ts, _, ann, gNew := newTestServer(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		p := gNew.Gen(rng)
		card := countOK(t, ann, p)
		postJSON(t, ts.URL+"/feedback", feedbackRequest{
			predicateJSON: predicateJSON{Lows: p.Lows, Highs: p.Highs},
			Cardinality:   &card,
		}, nil)
	}
	periodDone := make(chan int, 1)
	go func() {
		r := postJSON(t, ts.URL+"/period", struct{}{}, nil)
		periodDone <- r.StatusCode
	}()
	// Wait until the period actually holds the period lock — or has already
	// finished (batched component training can complete a period faster
	// than this poll loop observes the lock).
	deadline := time.Now().Add(5 * time.Second)
	for srv.periodMu.TryLock() {
		srv.periodMu.Unlock()
		select {
		case code := <-periodDone:
			periodDone <- code // re-buffer for the final status check
			goto estimates
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("period never started")
		}
		time.Sleep(time.Millisecond)
	}
estimates:
	// Estimates must complete while the period is in flight.
	served := 0
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 5; i++ {
		p := gNew.Gen(rng)
		b, _ := json.Marshal(predicateJSON{Lows: p.Lows, Highs: p.Highs})
		resp, err := client.Post(ts.URL+"/estimate", "application/json", strings.NewReader(string(b)))
		if err != nil {
			t.Fatalf("estimate during period: %v", err)
		}
		if resp.StatusCode == http.StatusOK {
			served++
		}
		resp.Body.Close()
	}
	if served != 5 {
		t.Errorf("served %d/5 estimates during period", served)
	}
	if code := <-periodDone; code != http.StatusOK {
		t.Fatalf("period status = %d", code)
	}
}

// TestConcurrentHammer drives estimate, feedback, period and status
// concurrently; with -race it proves the locking discipline.
func TestConcurrentHammer(t *testing.T) {
	_, ts, _, ann, gNew := newTestServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 15; i++ {
				p := gNew.Gen(rng)
				switch i % 3 {
				case 0:
					postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, nil)
				case 1:
					card := countOK(t, ann, p)
					postJSON(t, ts.URL+"/feedback", feedbackRequest{
						predicateJSON: predicateJSON{Lows: p.Lows, Highs: p.Highs},
						Cardinality:   &card,
					}, nil)
				default:
					resp, err := http.Get(ts.URL + "/status")
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(int64(w) + 100)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			r := postJSON(t, ts.URL+"/period", struct{}{}, nil)
			if r.StatusCode != http.StatusOK && r.StatusCode != http.StatusConflict {
				t.Errorf("period status = %d", r.StatusCode)
			}
		}
	}()
	wg.Wait()
	// The server must still be coherent afterwards.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-hammer /metrics = %d", resp.StatusCode)
	}
}
