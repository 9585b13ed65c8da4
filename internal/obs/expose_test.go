package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPrometheusGolden locks the exposition format byte-for-byte on a small
// deterministic registry: HELP/TYPE headers, sorted families, label
// rendering, cumulative histogram buckets.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Help("warper_http_requests_total", "HTTP requests by handler and code.")
	r.Counter("warper_http_requests_total", "handler", "estimate", "code", "200").Add(3)
	r.Counter("warper_http_requests_total", "handler", "period", "code", "409").Inc()
	r.Gauge("warper_pi").Set(1.5)
	h := r.Histogram("warper_qerror", HistogramOpts{Start: 1, Growth: 10, Count: 3})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(5000)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP warper_http_requests_total HTTP requests by handler and code.
# TYPE warper_http_requests_total counter
warper_http_requests_total{code="200",handler="estimate"} 3
warper_http_requests_total{code="409",handler="period"} 1
# TYPE warper_pi gauge
warper_pi 1.5
# TYPE warper_qerror histogram
warper_qerror_bucket{le="1"} 1
warper_qerror_bucket{le="10"} 2
warper_qerror_bucket{le="100"} 2
warper_qerror_bucket{le="+Inf"} 3
warper_qerror_sum 5005.5
warper_qerror_count 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabelValueEscapedOnce pins the exposition format's label escaping:
// backslash, double quote and newline are each escaped exactly once, and a
// histogram's le label is appended after them unchanged.
func TestLabelValueEscapedOnce(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "k", "a\\b\"c\nd").Inc()
	r.Histogram("h", HistogramOpts{Start: 1, Growth: 2, Count: 1}, "k", `x\y`).Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`c{k="a\\b\"c\nd"} 1` + "\n",
		`h_bucket{k="x\\y",le="1"} 1` + "\n",
		`h_count{k="x\\y"} 1` + "\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}

func TestPrometheusHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	rec := httptest.NewRecorder()
	r.PrometheusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain") {
		t.Errorf("content-type = %q", rec.Header().Get("Content-Type"))
	}
	if !strings.Contains(rec.Body.String(), "x 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestAttachPprof(t *testing.T) {
	mux := http.NewServeMux()
	AttachPprof(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Errorf("pprof index = %d", rec.Code)
	}
}
