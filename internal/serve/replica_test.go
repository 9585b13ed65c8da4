package serve

import (
	"bytes"
	"errors"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"warper/internal/ce"
	"warper/internal/query"
	"warper/internal/warper"
	"warper/internal/workload"
)

// newPoolServer builds a server with explicit serving options over the same
// environment newTestServer uses.
func newPoolServer(t *testing.T, opts Options) (*Server, *query.Schema, workload.Generator) {
	t.Helper()
	ad, sch, _, gNew := newTestAdapter(t, 61, nil)
	srv := NewWithOptions(ad, sch, opts)
	t.Cleanup(srv.Close)
	return srv, sch, gNew
}

// concurrentEstimates fires every predicate through srv.Estimate from nWorkers
// goroutines and returns the results in predicate order.
func concurrentEstimates(srv *Server, preds []query.Predicate, nWorkers int) []float64 {
	got := make([]float64, len(preds))
	var next sync.Mutex
	idx := 0
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := idx
				idx++
				next.Unlock()
				if i >= len(preds) {
					return
				}
				got[i] = srv.Estimate(preds[i])
			}
		}()
	}
	wg.Wait()
	return got
}

// TestConcurrentReplicaEstimatesAreByteIdentical pins the replica-pool
// clone contract: estimates served concurrently from N replicas are
// bit-identical to single-threaded estimates on the adapter's model. Run
// under -race this also proves the checkout path shares no scratch state.
func TestConcurrentReplicaEstimatesAreByteIdentical(t *testing.T) {
	srv, sch, gNew := newPoolServer(t, Options{Replicas: 4})
	rng := rand.New(rand.NewSource(3))
	preds := make([]query.Predicate, 200)
	want := make([]float64, len(preds))
	for i := range preds {
		preds[i] = gNew.Gen(rng).Normalize(sch)
		want[i] = srv.adapter.M.Estimate(preds[i])
	}
	got := concurrentEstimates(srv, preds, 8)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("estimate %d: replica served %v, reference %v", i, got[i], want[i])
		}
	}
}

// TestModelSwapRefreshesReplicas runs a successful adaptation period and
// checks the swap protocol: the generation bump is recorded, replicas
// refresh lazily, and post-swap estimates come from the repaired model.
func TestModelSwapRefreshesReplicas(t *testing.T) {
	srv, ts, sch, ann, gNew := newTestServer(t)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 30; i++ {
		p := gNew.Gen(rng)
		card := countOK(t, ann, p)
		postJSON(t, ts.URL+"/feedback", feedbackRequest{
			predicateJSON: predicateJSON{Lows: p.Lows, Highs: p.Highs},
			Cardinality:   &card,
		}, nil)
	}
	if r := postJSON(t, ts.URL+"/period", struct{}{}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("period = %d", r.StatusCode)
	}
	if srv.met.swapSeconds.Count() != 1 {
		t.Errorf("swap histogram count = %d, want 1", srv.met.swapSeconds.Count())
	}
	// The next estimate must check out a replica, notice the stale
	// generation, refresh, and answer from the repaired model.
	p := gNew.Gen(rng).Normalize(sch)
	got := srv.Estimate(p)
	if want := srv.adapter.M.Estimate(p); got != want {
		t.Errorf("post-swap estimate = %v, want repaired model's %v", got, want)
	}
	body := metricsBody(t, ts.URL)
	if metricValue(t, body, mRefreshes) == 0 {
		t.Error("no replica refresh recorded after a model swap")
	}
}

// TestFailedPeriodRestoresArrivals is the regression test for the dropped-
// feedback bug: a failed period used to consume the buffered arrivals for
// good, so the evidence of drift silently vanished. They must be
// re-buffered for the next attempt.
func TestFailedPeriodRestoresArrivals(t *testing.T) {
	_, ts, ann, gNew := robustnessEnv(t, failingUpdate)
	rng := rand.New(rand.NewSource(37))
	const n = 30
	feedDrifted(t, ts, ann, gNew, rng, n)

	if r := postJSON(t, ts.URL+"/period", struct{}{}, nil); r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing period = %d, want 500", r.StatusCode)
	}

	body := metricsBody(t, ts.URL)
	if got := metricValue(t, body, mBuffered); got != n {
		t.Errorf("%s = %v after failed period, want %v (arrivals dropped)", mBuffered, got, float64(n))
	}
	// A second failing period consumes the restored arrivals again —
	// proving they were really re-buffered, not just counted.
	if r := postJSON(t, ts.URL+"/period", struct{}{}, nil); r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("second failing period = %d, want 500", r.StatusCode)
	}
	body = metricsBody(t, ts.URL)
	if got := metricValue(t, body, mBuffered); got != n {
		t.Errorf("%s = %v after second failed period, want %v", mBuffered, got, float64(n))
	}
}

// TestFeedbackBufferIsBounded pins the bound on arrivals buffered between
// periods: at maxFeedbackBuffer a feedback post is refused with 429 +
// Retry-After and buffers nothing — but its ground truth has still fed the
// q-error probe — and once the buffer is drained feedback is accepted again.
func TestFeedbackBufferIsBounded(t *testing.T) {
	srv, ts, _, ann, gNew := newTestServer(t)
	rng := rand.New(rand.NewSource(41))
	srv.mu.Lock()
	srv.buffer = make([]warper.Arrival, maxFeedbackBuffer-1)
	srv.mu.Unlock()

	post := func() *http.Response {
		p := gNew.Gen(rng)
		card := countOK(t, ann, p)
		return postJSON(t, ts.URL+"/feedback", feedbackRequest{
			predicateJSON: predicateJSON{Lows: p.Lows, Highs: p.Highs},
			Cardinality:   &card,
		}, nil)
	}
	if r := post(); r.StatusCode != http.StatusOK {
		t.Fatalf("feedback below the bound = %d, want 200", r.StatusCode)
	}
	for i := 0; i < 2; i++ {
		r := post()
		if r.StatusCode != http.StatusTooManyRequests || r.Header.Get("Retry-After") == "" {
			t.Fatalf("feedback at the bound = %d (Retry-After %q), want 429 with Retry-After",
				r.StatusCode, r.Header.Get("Retry-After"))
		}
	}
	if got := srv.met.qerr.Count(); got != 3 {
		t.Errorf("q-error probe saw %d observations, want 3: a refused post still measures the served model", got)
	}
	body := metricsBody(t, ts.URL)
	if got := metricValue(t, body, mBuffered); got != maxFeedbackBuffer {
		t.Errorf("%s = %v, want %d", mBuffered, got, maxFeedbackBuffer)
	}

	// Draining is what a period does; emptying the buffer by hand keeps the
	// test from adapting on 65536 placeholder arrivals.
	srv.mu.Lock()
	srv.buffer = nil
	srv.mu.Unlock()
	if r := post(); r.StatusCode != http.StatusOK {
		t.Errorf("feedback after the drain = %d, want 200", r.StatusCode)
	}
}

// TestFailedPeriodRebufferIsBounded drives the re-buffering of a failed
// period past the bound: the arrivals the period consumed come back first,
// in order, and it is the feedback that arrived mid-period that is trimmed.
func TestFailedPeriodRebufferIsBounded(t *testing.T) {
	hooks := &modelHooks{}
	hooks.failUpdate.Store(true)
	ad, sch, ann, gNew := newTestAdapter(t, 91, func(lm *ce.LM) ce.Estimator { return &hookModel{LM: lm, h: hooks} })
	srv := NewWithOptions(ad, sch, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	const n = 30
	feedDrifted(t, ts, ann, gNew, rand.New(rand.NewSource(37)), n)
	srv.mu.Lock()
	consumed := append([]warper.Arrival(nil), srv.buffer...)
	srv.mu.Unlock()

	// The period's first inference runs after it took the buffer: fill the
	// new one to the bound there, as a burst of mid-period feedback would.
	burst := func() {
		srv.mu.Lock()
		srv.buffer = make([]warper.Arrival, maxFeedbackBuffer)
		srv.mu.Unlock()
	}
	hooks.midInfer.Store(&burst)
	if r := postJSON(t, ts.URL+"/period", struct{}{}, nil); r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing period = %d, want 500", r.StatusCode)
	}

	srv.mu.Lock()
	got := srv.buffer
	srv.mu.Unlock()
	if len(got) != maxFeedbackBuffer {
		t.Fatalf("%d arrivals buffered after the failed period, want the bound %d", len(got), maxFeedbackBuffer)
	}
	if !reflect.DeepEqual(got[:n], consumed) {
		t.Error("the consumed arrivals are not first in the restored buffer")
	}
	if got[n].Pred.Lows != nil {
		t.Error("the restored buffer does not continue with the mid-period feedback")
	}
}

// TestPeriodBodyTooLarge is the regression test for the truncated-validation
// bug: an oversize /period body used to have only its first MiB validated,
// silently accepting a truncated request. It must be rejected outright.
func TestPeriodBodyTooLarge(t *testing.T) {
	_, ts, _, _, _ := newTestServer(t)
	// Valid JSON overall — the old code would read a 1 MiB prefix of it,
	// judge the prefix, and run the period anyway.
	huge := `{"pad":"` + strings.Repeat("a", maxPeriodBody) + `"}`
	resp, err := http.Post(ts.URL+"/period", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize period body = %d, want 413", resp.StatusCode)
	}
	// At the cap exactly, the request is still honored.
	pad := strings.Repeat(" ", maxPeriodBody-2)
	resp2, err := http.Post(ts.URL+"/period", "application/json", strings.NewReader("{}"+pad))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("at-cap period body = %d, want 200", resp2.StatusCode)
	}
}

// failingWriter fails every body write and records status headers — the
// shape of a client that disconnected mid-response.
type failingWriter struct {
	header http.Header
	codes  []int
}

func (f *failingWriter) Header() http.Header {
	if f.header == nil {
		f.header = http.Header{}
	}
	return f.header
}
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }
func (f *failingWriter) WriteHeader(code int)      { f.codes = append(f.codes, code) }

// TestWriteJSONEncodeFailureDoesNotRewriteStatus is the regression test for
// the double-WriteHeader bug: when encoding the response fails after the
// 200 header is committed, the server used to write a second (500) status
// header into the half-sent body. Now it logs and leaves the wire alone.
func TestWriteJSONEncodeFailureDoesNotRewriteStatus(t *testing.T) {
	var logBuf bytes.Buffer
	s := &Server{logger: slog.New(slog.NewTextHandler(&logBuf, nil))}
	fw := &failingWriter{}
	s.writeJSON(fw, estimateResponse{Cardinality: 42})
	if len(fw.codes) != 0 {
		t.Errorf("writeJSON wrote status headers %v after a failed body write, want none", fw.codes)
	}
	if !strings.Contains(logBuf.String(), "response encode failed") {
		t.Errorf("encode failure was not logged; log: %q", logBuf.String())
	}
}
