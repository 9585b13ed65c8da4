package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"warper/internal/query"
)

// bodyServer is the smallest server decodeBody runs on: a three-column
// schema, so the recogniser sees both bodies it answers and arrays longer
// than the schema it must hand on.
func bodyServer() *Server {
	return &Server{sch: &query.Schema{Names: []string{"a", "b", "c"}}}
}

// checkBody decodes one body both ways — decodeBody (the recogniser, then
// the fallback) and decodeJSONStrict alone under the same body cap, into
// the request type of the endpoint — and fails unless they agree: both
// accept with bit-identical bounds and cardinality, or both reject with the
// same error text and status.
func checkBody(t *testing.T, s *Server, body io.Reader, ref io.Reader, withCard bool) {
	t.Helper()
	rw := httptest.NewRecorder()
	sc := &scratch{}
	got, gotErr := s.decodeBody(sc, rw, &http.Request{Body: io.NopCloser(body)}, withCard)

	capped := http.MaxBytesReader(rw, io.NopCloser(ref), maxPeriodBody)
	var want jsonBody
	var wantErr error
	if withCard {
		var req feedbackRequest
		wantErr = decodeJSONStrict(capped, &req)
		want.predicateJSON = req.predicateJSON
		if req.Cardinality != nil {
			want.card, want.hasCard = *req.Cardinality, true
		}
	} else {
		var req estimateRequest
		wantErr = decodeJSONStrict(capped, &req)
		want.predicateJSON = req.predicateJSON
	}

	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decodeBody err = %v, decodeJSONStrict err = %v", gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() || decodeErrorCode(gotErr) != decodeErrorCode(wantErr) {
			t.Fatalf("decodeBody rejects with %d %q, decodeJSONStrict with %d %q",
				decodeErrorCode(gotErr), gotErr, decodeErrorCode(wantErr), wantErr)
		}
		return
	}
	sameBits := func(name string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d values, decodeJSONStrict %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] = %v, decodeJSONStrict %v", name, i, a[i], b[i])
			}
		}
	}
	sameBits("lows", got.Lows, want.Lows)
	sameBits("highs", got.Highs, want.Highs)
	if got.hasCard != want.hasCard || math.Float64bits(got.card) != math.Float64bits(want.card) {
		t.Fatalf("cardinality %v (present %v), decodeJSONStrict %v (present %v)", got.card, got.hasCard, want.card, want.hasCard)
	}
}

// predicateBodySeeds are FuzzPredicateBody's seeds: the canonical shapes,
// and next to them each kind of body the recogniser must hand on.
var predicateBodySeeds = []string{
	`{"lows":[1,2,3],"highs":[4,5,6]}`,
	`{"highs":[4,5,6],"lows":[1,2,3]}`,
	" \t\r\n{ \"lows\" : [ 1 , 2 , 3 ] ,\n\"highs\":[4,\t5,6] } \n",
	`{"lows":[-0,0.5,-1.25e-3],"highs":[1E2,2e+2,0]}`,
	`{"lows":[],"highs":[1]}`,
	`{"lows":[1,2,3,4],"highs":[1,2,3]}`,
	`{"lows":[1e400,2,3],"highs":[4,5,6]}`,
	`{"lows":[1e-400,2,3],"highs":[4,5,6]}`,
	`{"lows":[01,2,3],"highs":[4,5,6]}`,
	`{"lows":[1.,2,3],"highs":[4,5,6]}`,
	`{"lows":[+1,2,3],"highs":[4,5,6]}`,
	`{"lows":[0x10,2,3],"highs":[4,5,6]}`,
	`{"LOWS":[1,2,3],"highs":[4,5,6]}`,
	`{"\u006cows":[1,2,3],"highs":[4,5,6]}`,
	`{"lows":[1,2,3],"lows":[7,8,9],"highs":[4,5,6]}`,
	`{"lows":[1,2,3],"highs":[4,5,6]}{}`,
	`{"lows":[1,2,3],"highs":[4,5,6]},`,
	`{"lows":null,"highs":[4,5,6]}`,
	`{"lows":[1,2,3]}`,
	`{"lows":[1,2,3],"highs":[4,5,6],"pad":"x"}`,
	`{"lows":[1,2,3],"highs":[4,5,6],"cardinality":42}`,
	`{"lows":[1,2,3],"highs":[4,5,6],"cardinality":null}`,
	`{"cardinality":-1,"lows":[1,2,3],"highs":[4,5,6]}`,
	`{"lows":[1,2,3],"highs":[4,5,6],"cardinality":"7"}`,
	`{"lows":[1,2,3],"highs":[4,5,6],"cardinality":1,"cardinality":2}`,
	`{"lows":[1,2,3],"highs":[4,5,6],"cardinality":nul}`,
	`{"lows":[1,2,3],"highs":[4,5,6]`,
	`{"lows":[1,2,3],,"highs":[4,5,6]}`,
	`{"lows":[1,2,3,],"highs":[4,5,6]}`,
	`{}`,
	``,
	`not json`,
}

// FuzzPredicateBody is the recogniser's differential target: on any bytes,
// for both body shapes (/estimate's, and /feedback's with "cardinality"),
// decodeBody must answer exactly as decodeJSONStrict alone does.
func FuzzPredicateBody(f *testing.F) {
	for _, s := range predicateBodySeeds {
		f.Add([]byte(s))
	}
	s := bodyServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, withCard := range []bool{false, true} {
			checkBody(t, s, bytes.NewReader(body), bytes.NewReader(body), withCard)
		}
	})
}

// TestPredicateBodyLongAndFailing covers the bodies the fuzzer cannot reach:
// past the recogniser's slab, past the body cap, and a body whose read fails
// part-way. Each must decode (or fail) exactly as decodeJSONStrict alone.
func TestPredicateBodyLongAndFailing(t *testing.T) {
	s := bodyServer()
	canonical := `{"lows":[1,2,3],"highs":[4,5,6]}`
	boom := errors.New("connection reset")
	failing := func(prefix string) io.Reader {
		return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(boom))
	}
	for name, body := range map[string]string{
		"padded past the slab":   canonical + strings.Repeat(" ", 2*maxFastBody),
		"padded past the cap":    canonical + strings.Repeat(" ", maxPeriodBody),
		"string past the slab":   `{"pad":"` + strings.Repeat("a", 2*maxFastBody) + `"}`,
		"trailing past the slab": canonical + strings.Repeat(" ", maxFastBody) + "{}",
	} {
		for _, withCard := range []bool{false, true} {
			t.Run(name, func(t *testing.T) {
				checkBody(t, s, strings.NewReader(body), strings.NewReader(body), withCard)
			})
		}
	}
	for _, prefix := range []string{"", `{"lows":[1,2`, canonical} {
		checkBody(t, s, failing(prefix), failing(prefix), false)
	}
}

// TestEstimateResponseBytes pins writeEstimate to json.Encoder's bytes for
// estimateResponse on the floats where encoding/json's format switches, and
// on every fallback reason; a non-finite answer fails as writeJSON fails.
func TestEstimateResponseBytes(t *testing.T) {
	s := &Server{logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	cards := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 123456.789, math.SmallestNonzeroFloat64,
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1), 1e-7, 1.5e-10,
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)),
		1<<53 + 1, math.MaxFloat64, -1e300, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	outcomes := []EstimateOutcome{{}}
	for _, r := range []string{reasonTimeout, reasonBreaker, reasonDegraded} {
		outcomes = append(outcomes, EstimateOutcome{Degraded: true, Reason: r})
	}
	sc := &scratch{}
	for _, card := range cards {
		for _, out := range outcomes {
			var want bytes.Buffer
			_ = json.NewEncoder(&want).Encode(estimateResponse{Cardinality: card, Degraded: out.Degraded, Reason: out.Reason})
			rw := httptest.NewRecorder()
			s.writeEstimate(rw, sc, card, out)
			if !bytes.Equal(rw.Body.Bytes(), want.Bytes()) {
				t.Errorf("%v %+v: wrote %q, json.Encoder writes %q", card, out, rw.Body, want.Bytes())
			}
			if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%v: Content-Type %q", card, ct)
			}
		}
	}
}

// TestFeedbackBoundsOwnedByArrival pins that buffered feedback keeps its
// own bounds: the recogniser parses into a pooled slab the next request
// reuses, so an arrival viewing it would take on the next body's bounds.
func TestFeedbackBoundsOwnedByArrival(t *testing.T) {
	srv, ts, sch, _, gNew := newTestServer(t)
	rng := rand.New(rand.NewSource(41))
	var want []query.Predicate
	for i := 0; i < 3; i++ {
		p := gNew.Gen(rng)
		if r := postJSON(t, ts.URL+"/feedback", predicateJSON{Lows: p.Lows, Highs: p.Highs}, nil); r.StatusCode != http.StatusOK {
			t.Fatalf("feedback %d: status %d", i, r.StatusCode)
		}
		want = append(want, p.Normalize(sch))
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for i, ar := range srv.buffer {
		for k := range want[i].Lows {
			if ar.Pred.Lows[k] != want[i].Lows[k] || ar.Pred.Highs[k] != want[i].Highs[k] {
				t.Fatalf("arrival %d holds %v/%v, posted %v/%v", i, ar.Pred.Lows, ar.Pred.Highs, want[i].Lows, want[i].Highs)
			}
		}
	}
}

// memWriter is an in-memory http.ResponseWriter reused across requests.
type memWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(b []byte) (int, error) { w.body = append(w.body, b...); return len(b), nil }

// jsonEstimateLoop prepares POST /estimate over n distinct predicates on the
// server warperd runs (cache on, every request a miss) and returns a
// function that serves the next one through Handler().ServeHTTP on an
// in-memory writer, checking it answered 200.
func jsonEstimateLoop(tb testing.TB, n int) func() {
	srv, _, _, _, gNew := newTestServerOpts(tb, Options{DriftAlarmGMQ: 4})
	h := srv.Handler()
	rng := rand.New(rand.NewSource(37))
	bodies := make([][]byte, n)
	for i := range bodies {
		p := gNew.Gen(rng)
		b := []byte(`{"lows":[`)
		for j, v := range p.Lows {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, `],"highs":[`...)
		for j, v := range p.Highs {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		bodies[i] = append(b, `]}`...)
	}
	body := bytes.NewReader(nil)
	rc := io.NopCloser(body)
	req := (&http.Request{
		Method: "POST", URL: &url.URL{Path: "/estimate"}, Host: "test",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}},
	}).WithContext(context.Background())
	w := &memWriter{h: http.Header{}}
	next := 0
	return func() {
		body.Reset(bodies[next%n])
		req.Body = rc
		next++
		w.code, w.body = http.StatusOK, w.body[:0]
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			tb.Fatalf("POST /estimate answered %d: %s", w.code, w.body)
		}
	}
}

// jsonEstimateAllocCeiling is what one POST /estimate costs in allocations
// through Handler().ServeHTTP, request and writer reused: instrument's
// status writer and the Content-Type header's value. (Decoding with
// encoding/json and encoding with json.Encoder cost 47.)
const jsonEstimateAllocCeiling = 2

// TestJSONEstimateAllocs keeps the JSON codec's cost from creeping back
// unseen: a warmed POST /estimate on distinct predicates allocates at most
// jsonEstimateAllocCeiling times.
func TestJSONEstimateAllocs(t *testing.T) {
	serve := jsonEstimateLoop(t, 4096)
	for i := 0; i < 64; i++ {
		serve()
	}
	if allocs := testing.AllocsPerRun(500, serve); allocs > jsonEstimateAllocCeiling {
		t.Errorf("POST /estimate allocates %v times per request, ceiling %d", allocs, jsonEstimateAllocCeiling)
	}
}

// BenchmarkJSONEstimateHandler times one POST /estimate through
// Handler().ServeHTTP, codec and estimate core, without a socket.
func BenchmarkJSONEstimateHandler(b *testing.B) {
	serve := jsonEstimateLoop(b, 4096)
	for i := 0; i < 64; i++ {
		serve()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
