package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"warper/internal/warper"
)

// periodFootprint reads what a period leaves behind, besides the swap: the
// five stage-histogram counts and warper_periods_total from /metrics, and
// the period_end events of the journal.
func periodFootprint(t *testing.T, base string) (stages [len(warper.StageNames)]float64, periods float64, ends []map[string]any) {
	t.Helper()
	body := metricsBody(t, base)
	for i, st := range warper.StageNames {
		stages[i] = metricValue(t, body, `warper_period_stage_seconds_count{stage="`+st+`"}`)
	}
	periods = metricValue(t, body, "warper_periods_total")
	_, raw := getBody(t, base+"/debug/events")
	var events eventsResponse
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("invalid events JSON: %v", err)
	}
	for _, ev := range events.Events {
		if ev.Kind == "period_end" {
			ends = append(ends, ev.Fields)
		}
	}
	return stages, periods, ends
}

// TestPeriodStampedOncePerSuccess pins the one place a period is recorded:
// every successful POST /period — a quiet one included — moves each of the
// five stage histograms and warper_periods_total by exactly one and journals
// one period_end carrying all five stage_*_seconds keys.
func TestPeriodStampedOncePerSuccess(t *testing.T) {
	_, ts, _, ann, gNew := newTestServer(t)
	check := func(n int, wantMode func(string) bool) {
		t.Helper()
		var pr periodResponse
		if r := postJSON(t, ts.URL+"/period", struct{}{}, &pr); r.StatusCode != http.StatusOK {
			t.Fatalf("period %d = %d", n, r.StatusCode)
		}
		if !wantMode(pr.Mode) {
			t.Fatalf("period %d ran mode %q", n, pr.Mode)
		}
		stages, periods, ends := periodFootprint(t, ts.URL)
		for i, got := range stages {
			if got != float64(n) {
				t.Errorf("after %d periods stage %s observed %v times", n, warper.StageNames[i], got)
			}
		}
		if periods != float64(n) || len(ends) != n {
			t.Fatalf("after %d periods: warper_periods_total = %v, %d period_end events", n, periods, len(ends))
		}
		for _, st := range warper.StageNames {
			if _, ok := ends[n-1]["stage_"+st+"_seconds"].(float64); !ok {
				t.Errorf("period_end %d has no stage_%s_seconds: %v", n, st, ends[n-1])
			}
		}
		if ends[n-1]["mode"] != pr.Mode {
			t.Errorf("period_end %d mode = %v, response mode = %q", n, ends[n-1]["mode"], pr.Mode)
		}
	}
	check(1, func(m string) bool { return m == "none" })
	feedDrifted(t, ts, ann, gNew, rand.New(rand.NewSource(7)), 30)
	check(2, func(m string) bool { return strings.Contains(m, "c2") })
}

// TestFailedPeriodStampsNothing is the other half: a period that fails moves
// no stage histogram, not warper_periods_total, and journals no period_end —
// only warper_period_failures_total and a period_rollback say it happened.
func TestFailedPeriodStampsNothing(t *testing.T) {
	_, ts, ann, gNew := robustnessEnv(t, failingUpdate)
	feedDrifted(t, ts, ann, gNew, rand.New(rand.NewSource(13)), 30)
	if r := postJSON(t, ts.URL+"/period", struct{}{}, nil); r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing period = %d, want 500", r.StatusCode)
	}
	stages, periods, ends := periodFootprint(t, ts.URL)
	if stages != [len(warper.StageNames)]float64{} || periods != 0 || len(ends) != 0 {
		t.Errorf("failed period left stage counts %v, warper_periods_total %v, %d period_end events; want none",
			stages, periods, len(ends))
	}
	if got := metricValue(t, metricsBody(t, ts.URL), "warper_period_failures_total"); got != 1 {
		t.Errorf("warper_period_failures_total = %v, want 1", got)
	}
}

// TestServerOwnsNoGoroutine holds Server.Close to its comment: building the
// adapter (which trains M), serving feedback and a full drifted period —
// detect, GAN training, pick, annotate, update, swap — and closing the server
// leave no goroutine behind. Requests go through the handler in process, so
// net/http's own connection goroutines stay out of the count.
func TestServerOwnsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	ad, sch, ann, gNew := newTestAdapter(t, 61, nil)
	srv := NewWithOptions(ad, sch, Options{})
	h := srv.Handler()
	post := func(path string, body any) *httptest.ResponseRecorder {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, path, &buf)
		req.Header.Set("Content-Type", "application/json")
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", path, rw.Code, rw.Body)
		}
		return rw
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		p := gNew.Gen(rng)
		card := countOK(t, ann, p)
		post("/feedback", feedbackRequest{predicateJSON: predicateJSON{Lows: p.Lows, Highs: p.Highs}, Cardinality: &card})
	}
	var pr periodResponse
	if err := json.Unmarshal(post("/period", struct{}{}).Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Updated || pr.Generated == 0 {
		t.Fatalf("period did not train: %+v", pr)
	}
	srv.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the server existed, %d after Close", before, after)
	}
}

// TestREADMEMetricTableMatchesRegistry keeps the operating guide honest:
// every metric family the server registers has a row in README's metric
// table, and the table names no family that does not exist.
func TestREADMEMetricTableMatchesRegistry(t *testing.T) {
	m := NewMetrics()
	m.requestDone("status", http.StatusOK, 0) // the per-request families appear on first use
	registered := map[string]bool{}
	for series := range m.Reg.Snapshot() {
		family, _, _ := strings.Cut(series, "{")
		registered[family] = true
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "Metric names (all prefixed `warper_`):")
	if !ok {
		t.Fatal("README.md has no metric table")
	}
	table, _, _ = strings.Cut(table, "\n\n```") // the table ends where the spot-check snippet starts
	documented := map[string]bool{}
	nameRE := regexp.MustCompile("`([a-z_]+)(\\{[a-z,]*\\})?`")
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 4 || strings.Contains(cells[1], "Metric") || strings.Contains(cells[1], "---") {
			continue
		}
		prefix := "warper_"
		if strings.Contains(cells[1], "(unprefixed)") {
			prefix = ""
		}
		names := nameRE.FindAllStringSubmatch(cells[1], -1)
		if len(names) == 0 {
			t.Errorf("metric table row names no metric: %q", row)
		}
		for _, n := range names {
			documented[prefix+n[1]] = true
		}
	}

	var missing, stale []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("registered but absent from README's metric table: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("in README's metric table but not registered: %v", stale)
	}
}
