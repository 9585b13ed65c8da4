package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/warper"
	"warper/internal/workload"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server, *query.Schema, *annotator.Annotator, workload.Generator) {
	t.Helper()
	return newTestServerOpts(t, Options{})
}

func newTestServerOpts(t testing.TB, sopts Options) (*Server, *httptest.Server, *query.Schema, *annotator.Annotator, workload.Generator) {
	t.Helper()
	return newTestServerWrap(t, sopts, nil)
}

// newTestServerWrap is newTestServerOpts with the trained model passed
// through wrap before the adapter sees it (see newTestAdapter).
func newTestServerWrap(t testing.TB, sopts Options, wrap func(*ce.LM) ce.Estimator) (*Server, *httptest.Server, *query.Schema, *annotator.Annotator, workload.Generator) {
	t.Helper()
	ad, sch, ann, gNew := newTestAdapter(t, 61, wrap)
	srv := NewWithOptions(ad, sch, sopts)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, sch, ann, gNew
}

// boundQueue sets srv's admission-queue bound to n, and the health
// machine's queue threshold with it, as newReplicaPool and newHealthTracker
// derive them for a pool whose bound is n. Call it before any traffic.
func boundQueue(srv *Server, n int64) {
	srv.pool.maxQueue = n
	srv.health.queueHigh = queueHighFor(n)
}

// quickHealth makes srv's health machine evaluate at most once per every,
// with its wait thresholds out of reach, so that queue depth alone drives the
// ladder: under the race detector a timed-out wait's measured duration
// includes scheduler delays, and such samples would pin the machine degraded
// for the length of the wait window. Call it before any traffic.
func quickHealth(srv *Server, every time.Duration) {
	srv.health.evalEvery = every
	srv.health.degradeWait, srv.health.shedWait = 30*time.Second, time.Minute
}

// newTestAdapter builds the adaptation stack every server in these tests
// sits on: a 2000-row PRSA table drawn from seed, an LM-mlp trained on 300
// w1 predicates (passed through wrap, when given, before the adapter sees
// it) and a small-network adapter. The returned generator draws the drifted
// w4 workload over the same table. Equal seeds build bit-identical stacks.
func newTestAdapter(t testing.TB, seed int64, wrap func(*ce.LM) ce.Estimator) (*warper.Adapter, *query.Schema, *annotator.Annotator, workload.Generator) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := dataset.PRSA(2000, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	opts := workload.Options{MaxConstrained: 2}
	gTrain := workload.New("w1", tbl, sch, opts)
	train := annAll(t, ann, workload.Generate(gTrain, 300, rng))
	lm := ce.NewLM(ce.LMMLP, sch, 1)
	if err := lm.Train(train); err != nil {
		t.Fatalf("Train: %v", err)
	}
	var m ce.Estimator = lm
	if wrap != nil {
		m = wrap(lm)
	}

	cfg := warper.DefaultConfig()
	cfg.Hidden = 32
	cfg.Depth = 2
	cfg.Gamma = 100
	cfg.PickSize = 60
	ad, err := warper.New(cfg, m, sch, ann, train)
	if err != nil {
		t.Fatalf("warper.New: %v", err)
	}
	return ad, sch, ann, workload.New("w4", tbl, sch, opts)
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts, _, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

// TestEndpointDocsMatchRoutes closes the doc loop for the HTTP surface, as
// TestREADMEMetricTableMatchesRegistry does for metrics. With every optional
// route mounted (binary protocol, pprof): each route Handler mounts — read
// from the mux calls in serve.go and obs.AttachPprof — has a row in README's
// endpoint table and a line in warperd's doc comment, where a documented
// "…/" subtree covers the routes under it; and each endpoint either one
// documents answers a request with neither 404 nor 405.
func TestEndpointDocsMatchRoutes(t *testing.T) {
	srv, _, _, _, _ := newTestServerOpts(t, Options{EnablePprof: true})
	h := srv.Handler()
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serveOne := func(method, path string) int {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(method, path, nil))
		return rw.Code
	}

	var mounted []string
	routeRE := regexp.MustCompile(`mux\.Handle(?:Func)?\("([A-Z]+ /[^"]*)"`)
	for _, path := range []string{"serve.go", "../obs/expose.go"} {
		for _, m := range routeRE.FindAllStringSubmatch(read(path), -1) {
			mounted = append(mounted, m[1])
		}
	}
	readme := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(/[^`]*)` \\| ([A-Z]+) \\|").FindAllStringSubmatch(read("../../README.md"), -1) {
		readme[m[2]+" "+m[1]] = true
	}
	warperd := map[string]bool{}
	pkgDoc, _, _ := strings.Cut(read("../../cmd/warperd/main.go"), "\npackage ")
	for _, m := range regexp.MustCompile(`(?m)^//\t([A-Z]+) +(/\S*)`).FindAllStringSubmatch(pkgDoc, -1) {
		warperd[m[1]+" "+m[2]] = true
	}
	docs := map[string]map[string]bool{"README.md": readme, "cmd/warperd/main.go": warperd}

	if len(mounted) == 0 {
		t.Fatal("found no mux registrations in serve.go")
	}
	for _, route := range mounted {
		method, path, _ := strings.Cut(route, " ")
		for doc, eps := range docs {
			covered := eps[route]
			for ep := range eps {
				m, p, _ := strings.Cut(ep, " ")
				covered = covered || m == method && strings.HasSuffix(p, "/") && strings.HasPrefix(path, p)
			}
			if !covered {
				t.Errorf("Handler mounts %s, which %s does not document", route, doc)
			}
		}
	}
	for doc, eps := range docs {
		for ep := range eps {
			method, path, _ := strings.Cut(ep, " ")
			if code := serveOne(method, path); code == http.StatusNotFound || code == http.StatusMethodNotAllowed {
				t.Errorf("%s documents %s, which answers %d", doc, ep, code)
			}
		}
	}
	if code := serveOne("POST", "/estimate/batch/stream"); code != http.StatusNotFound {
		t.Errorf("POST /estimate/batch/stream answers %d; the binary protocol has one transport, want 404", code)
	}
}

// TestStatusFieldsDocumented holds /status to one vocabulary, as
// TestEndpointDocsMatchRoutes holds the routes: every JSON field of
// statusDoc, and of each struct it nests one level deep, is the name of a
// /metrics family (with or without the warper_ prefix) or is named in
// README's section on the /status document.
func TestStatusFieldsDocumented(t *testing.T) {
	families := registeredFamilies(t, NewMetrics())
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### The `/status` document")
	if !ok {
		t.Fatal("README.md has no section on the /status document")
	}
	section, _, _ = strings.Cut(section, "\n#")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`([a-z_]+)`").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	var check func(prefix string, typ reflect.Type, nested bool)
	check = func(prefix string, typ reflect.Type, nested bool) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || typ == reflect.TypeOf(time.Time{}) {
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			if !documented[name] && !families[name] && !families["warper_"+name] {
				t.Errorf("/status field %s%s is neither a /metrics family nor named in README's /status section", prefix, name)
			}
			if !nested {
				check(prefix+name+".", f.Type, true)
			}
		}
	}
	check("", reflect.TypeOf(statusDoc{}), false)
}

func TestEstimateEndpoint(t *testing.T) {
	srv, ts, sch, _, gNew := newTestServer(t)
	p := gNew.Gen(rand.New(rand.NewSource(1)))
	var resp estimateResponse
	r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	want := srv.Estimator().Estimate(p.Normalize(sch))
	if resp.Cardinality != want {
		t.Errorf("estimate = %v, want %v", resp.Cardinality, want)
	}
}

func TestEstimateRejectsBadDimensions(t *testing.T) {
	_, ts, _, _, _ := newTestServer(t)
	r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: []float64{1}, Highs: []float64{2}}, nil)
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", r.StatusCode)
	}
}

func TestEstimateRejectsGarbage(t *testing.T) {
	_, ts, _, _, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewBufferString("not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestFeedbackPeriodStatusFlow(t *testing.T) {
	_, ts, _, ann, gNew := newTestServer(t)
	rng := rand.New(rand.NewSource(2))
	// Post 30 labeled feedback items from the drifted workload.
	for i := 0; i < 30; i++ {
		p := gNew.Gen(rng)
		card := countOK(t, ann, p)
		var fb feedbackResponse
		r := postJSON(t, ts.URL+"/feedback", feedbackRequest{
			predicateJSON: predicateJSON{Lows: p.Lows, Highs: p.Highs},
			Cardinality:   &card,
		}, &fb)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("feedback status = %d", r.StatusCode)
		}
		if fb.Buffered != i+1 {
			t.Fatalf("buffered = %d, want %d", fb.Buffered, i+1)
		}
	}
	// Trigger an adaptation period.
	var pr periodResponse
	r := postJSON(t, ts.URL+"/period", struct{}{}, &pr)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("period status = %d", r.StatusCode)
	}
	if pr.Arrivals != 30 {
		t.Errorf("period consumed %d arrivals, want 30", pr.Arrivals)
	}
	// Status reflects the drained buffer and the period count.
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusDoc
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Buffered != 0 || st.Periods != 1 {
		t.Errorf("status = %+v", st)
	}
	if st.Model == "" || st.PoolSize == 0 {
		t.Errorf("status incomplete: %+v", st)
	}
}

func TestPeriodWithEmptyBuffer(t *testing.T) {
	_, ts, _, _, _ := newTestServer(t)
	var pr periodResponse
	r := postJSON(t, ts.URL+"/period", struct{}{}, &pr)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if pr.Arrivals != 0 {
		t.Errorf("arrivals = %d", pr.Arrivals)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts, _, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /estimate should not be OK")
	}
	_ = fmt.Sprint() // keep fmt import for potential debugging
}

// countOK unwraps annotator.Count for generator-produced predicates.
func countOK(t *testing.T, ann *annotator.Annotator, p query.Predicate) float64 {
	t.Helper()
	c, err := ann.Count(context.Background(), p)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	return c
}

func annAll(t testing.TB, ann *annotator.Annotator, ps []query.Predicate) []query.Labeled {
	t.Helper()
	out, err := ann.AnnotateAll(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
