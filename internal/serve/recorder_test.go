package serve

import (
	"context"
	"encoding/json"
	"html/template"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// getBody fetches url and returns (response, body).
func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// getStatus fetches and decodes the /status document.
func getStatus(t *testing.T, base string) statusDoc {
	t.Helper()
	resp, body := getBody(t, base+"/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/status content-type = %q", ct)
	}
	var doc statusDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("invalid /status JSON: %v", err)
	}
	return doc
}

// TestDebugTracesEndpoint checks the sampled traces /status carries: every
// estimate traced at sample-every-1, each with its batch size, generation
// and stages nested inside the request's total.
func TestDebugTracesEndpoint(t *testing.T) {
	_, ts, _, _, gNew := newTestServerOpts(t, Options{TraceSample: 1})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		p := gNew.Gen(rng)
		postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, nil)
	}

	var estimates int
	for _, tr := range getStatus(t, ts.URL).Traces {
		if tr.Handler != "estimate" {
			continue
		}
		estimates++
		// Uncached scalar estimates: one row per forward pass, on the
		// first serving generation.
		if tr.BatchSize != 1 || tr.Generation != 1 {
			t.Errorf("trace %d: batch size %d, generation %d; want 1, 1", tr.ID, tr.BatchSize, tr.Generation)
		}
		if len(tr.Stages) == 0 {
			t.Errorf("trace %d has no stages", tr.ID)
		}
		// Stages cover decode→serve→respond with no blind gaps and nest
		// inside the request.
		var sum time.Duration
		for _, st := range tr.Stages {
			if st.Start < 0 || st.Dur < 0 {
				t.Errorf("trace %d: bad stage %+v", tr.ID, st)
			}
			sum += st.Dur
		}
		if sum > tr.Total {
			t.Errorf("trace %d: stage sum %v exceeds request %v", tr.ID, sum, tr.Total)
		}
	}
	if estimates != 10 {
		t.Fatalf("/status carries %d estimate traces despite sample-every-1, want 10", estimates)
	}
}

// captureHandler is a slog.Handler that keeps every record at Info and
// above — the level lifecycle events start at; per-request logs are Debug.
type captureHandler struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *captureHandler) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelInfo }
func (h *captureHandler) WithAttrs([]slog.Attr) slog.Handler           { return h }
func (h *captureHandler) WithGroup(string) slog.Handler                { return h }
func (h *captureHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r)
	return nil
}

func TestDebugEventsCausalOrder(t *testing.T) {
	logged := &captureHandler{}
	srv, ts, _, ann, gNew := newTestServerOpts(t, Options{
		Logger:        slog.New(logged),
		DriftWindow:   time.Minute,
		DriftAlarmGMQ: 4,
	})
	rng := rand.New(rand.NewSource(9))

	// Synthetic drift: report ground truth 1000× the served estimate, so
	// every feedback observation carries q-error ≈ 1000 and the windowed
	// GMQ blows through the threshold once the observation floor is met.
	for i := 0; i < 30; i++ {
		p := gNew.Gen(rng)
		var est estimateResponse
		postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, &est)
		gt := est.Cardinality*1000 + 1
		postJSON(t, ts.URL+"/feedback", feedbackRequest{
			predicateJSON: predicateJSON{Lows: p.Lows, Highs: p.Highs},
			Cardinality:   &gt,
		}, nil)
	}
	if srv.met.driftAlarm.Value() != 1 {
		t.Fatal("drift alarm gauge not raised by synthetic drift")
	}

	// Buffer real labeled feedback so the period has drift evidence, then
	// trigger the adaptation the alarm was asking for.
	for i := 0; i < 30; i++ {
		p := gNew.Gen(rng)
		gt := countOK(t, ann, p.Normalize(srv.sch))
		postJSON(t, ts.URL+"/feedback", feedbackRequest{
			predicateJSON: predicateJSON{Lows: p.Lows, Highs: p.Highs},
			Cardinality:   &gt,
		}, nil)
	}
	r := postJSON(t, ts.URL+"/period", nil, nil)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("period status = %d", r.StatusCode)
	}
	// And one forced health transition: two over-high queue readings.
	for i := 0; i < 2; i++ {
		srv.health.eval(time.Now(), healthSignals{queueDepth: srv.health.queueHigh})
	}

	events := getStatus(t, ts.URL).Journal

	// The flight-recorder story must read in causal order: the drift alarm
	// fired, then a period ran, finished, and swapped the repaired model in.
	seq := map[string]uint64{}
	for _, ev := range events.Events {
		if _, seen := seq[ev.Kind]; !seen {
			seq[ev.Kind] = ev.Seq
		}
	}
	for _, kind := range []string{"drift_alarm", "period_start", "period_end", "model_swap", "health"} {
		if _, ok := seq[kind]; !ok {
			t.Fatalf("journal missing %q; kinds = %v", kind, seq)
		}
	}
	if !(seq["drift_alarm"] < seq["period_start"] &&
		seq["period_start"] < seq["period_end"] &&
		seq["period_end"] < seq["model_swap"]) {
		t.Errorf("events out of causal order: %v", seq)
	}

	// period_end carries the stage breakdown.
	for _, ev := range events.Events {
		if ev.Kind == "period_end" {
			if _, ok := ev.Fields["stage_detect_seconds"]; !ok {
				t.Errorf("period_end missing stage breakdown: %v", ev.Fields)
			}
		}
	}

	// One event path: the server log carries what the journal carries — the
	// same kinds in the same order, each with the same field names (plus the
	// trace id, which the journal keeps beside the fields).
	logged.mu.Lock()
	defer logged.mu.Unlock()
	if len(logged.recs) != len(events.Events) {
		t.Fatalf("log has %d records at info and above, /status's journal lists %d events", len(logged.recs), len(events.Events))
	}
	for i, ev := range events.Events {
		rec := logged.recs[i]
		if rec.Message != ev.Kind {
			t.Fatalf("record %d logs %q, journal event %d is %q", i, rec.Message, ev.Seq, ev.Kind)
		}
		want := map[string]bool{}
		for k := range ev.Fields {
			want[k] = true
		}
		if ev.TraceID != 0 {
			want["trace_id"] = true
		}
		rec.Attrs(func(a slog.Attr) bool {
			if !want[a.Key] {
				t.Errorf("%s: log attribute %q is not a journal field: %v", ev.Kind, a.Key, ev.Fields)
			}
			delete(want, a.Key)
			return true
		})
		if len(want) != 0 {
			t.Errorf("%s: journal fields %v missing from the log record", ev.Kind, want)
		}
	}
}

// TestStatuszEndpoint checks that /statusz renders the status document —
// drift watch, exemplars, traces and journal — and nothing else: the
// lifetime metric table is gone, /metrics keeps every metric.
func TestStatuszEndpoint(t *testing.T) {
	_, ts, _, _, gNew := newTestServerOpts(t, Options{TraceSample: 1, DriftAlarmGMQ: 10})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 5; i++ {
		p := gNew.Gen(rng)
		var est estimateResponse
		postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, &est)
		gt := est.Cardinality + 1
		postJSON(t, ts.URL+"/feedback", feedbackRequest{
			predicateJSON: predicateJSON{Lows: p.Lows, Highs: p.Highs},
			Cardinality:   &gt,
		}, nil)
	}

	resp, body := getBody(t, ts.URL+"/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content-type = %q", ct)
	}
	page := string(body)
	doc := getStatus(t, ts.URL)
	if len(doc.WorstQ) == 0 || len(doc.Traces) == 0 {
		t.Fatalf("/status has %d exemplars and %d traces, want some of each", len(doc.WorstQ), len(doc.Traces))
	}
	for _, want := range []string{
		"flight recorder",
		"Drift watch",
		"model=" + doc.Model,
		"threshold 10.00",
		template.HTMLEscapeString(doc.WorstQ[0].Predicate),
		`<td class="l">estimate</td>`, // a trace row
		`href="/status"`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("statusz missing %q", want)
		}
	}
	if strings.Contains(page, mCheckoutWait) || strings.Contains(page, "/debug/") {
		t.Error("statusz still renders the metric table or links a deleted /debug route")
	}
}

// TestDebugEndpointsBoundedUnderLoad hammers the server with estimates,
// feedback and status reads concurrently (run with -race to validate the
// recorder's synchronization) and checks the status document stays bounded.
func TestDebugEndpointsBoundedUnderLoad(t *testing.T) {
	_, ts, _, _, gNew := newTestServerOpts(t, Options{
		TraceSample: 1, DriftWindow: time.Second, DriftAlarmGMQ: 2,
	})
	rng := rand.New(rand.NewSource(11))
	preds := make([]predicateJSON, 8)
	for i := range preds {
		p := gNew.Gen(rng)
		preds[i] = predicateJSON{Lows: p.Lows, Highs: p.Highs}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				pj := preds[(seed+i)%len(preds)]
				var est estimateResponse
				postJSON(t, ts.URL+"/estimate", pj, &est)
				gt := est.Cardinality*float64(1+i%5) + 1
				postJSON(t, ts.URL+"/feedback", feedbackRequest{predicateJSON: pj, Cardinality: &gt}, nil)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for _, path := range []string{"/status", "/statusz", "/metrics"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d", path, resp.StatusCode)
				}
			}
		}
	}()
	wg.Wait()

	// Bounded retention: the ring and journal never exceed their caps no
	// matter how much traffic flowed. 160 traced estimates fill the ring.
	doc := getStatus(t, ts.URL)
	if n := len(doc.Traces); n != traceBuf {
		t.Errorf("/status carries %d traces after 160 traced estimates, want the full ring of %d", n, traceBuf)
	}
	if n := len(doc.Journal.Events); n > defaultJournalCap {
		t.Errorf("journal holds %d events, cap %d", n, defaultJournalCap)
	}
	if len(doc.WorstQ) > defaultExemplars {
		t.Errorf("/status carries %d exemplars, cap %d", len(doc.WorstQ), defaultExemplars)
	}
}

// TestTracingOffHasNoDebugData confirms the default server traces nothing
// (the zero-cost default): /status carries an empty trace ring.
func TestTracingOffHasNoDebugData(t *testing.T) {
	srv, ts, _, _, gNew := newTestServer(t)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 5; i++ {
		p := gNew.Gen(rng)
		postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, nil)
	}
	if got := srv.rec.tracer.Sampled.Load(); got != 0 {
		t.Errorf("tracing off but sampled %d", got)
	}
	_, body := getBody(t, ts.URL+"/status")
	if !strings.Contains(string(body), `"traces":[]`) {
		t.Errorf("tracing off but /status carries traces: %s", body)
	}
}
