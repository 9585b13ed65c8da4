package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"warper/internal/query"
	"warper/internal/wire"
)

// jsonBytes marshals one request body for tests that post raw bytes.
func jsonBytes(v any) ([]byte, error) {
	return json.Marshal(v)
}

// postWire posts one unframed binary request and decodes the response.
func postWire(t *testing.T, url string, frame []byte) (wire.ResponseHeader, []float64, int) {
	t.Helper()
	resp, err := http.Post(url, wireContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return wire.ResponseHeader{}, nil, resp.StatusCode
	}
	h, cards, err := wire.DecodeResponse(body, nil)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	return h, cards, resp.StatusCode
}

// TestWireBatchMatchesJSONAcrossSwap is the cross-protocol identity check:
// binary and JSON answers for the same predicates must be bit-identical,
// before and after a mid-run model swap — and the response generation echo
// must advance across the swap.
func TestWireBatchMatchesJSONAcrossSwap(t *testing.T) {
	_, ts, _, ann, gNew := newTestServerOpts(t, Options{BinaryProtocol: true})
	rng := rand.New(rand.NewSource(11))
	preds := make([]query.Predicate, 32)
	for i := range preds {
		preds[i] = gNew.Gen(rng)
	}
	check := func(stage string) uint64 {
		frame, err := wire.AppendRequest(nil, 0, preds, false)
		if err != nil {
			t.Fatalf("%s: AppendRequest: %v", stage, err)
		}
		h, cards, code := postWire(t, ts.URL+"/estimate/batch", frame)
		if code != http.StatusOK {
			t.Fatalf("%s: batch status = %d", stage, code)
		}
		if h.Flags != 0 || len(cards) != len(preds) {
			t.Fatalf("%s: header %+v with %d cards", stage, h, len(cards))
		}
		for i, p := range preds {
			var er estimateResponse
			r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: p.Lows, Highs: p.Highs}, &er)
			if r.StatusCode != http.StatusOK {
				t.Fatalf("%s: json status = %d", stage, r.StatusCode)
			}
			if cards[i] != er.Cardinality {
				t.Fatalf("%s: row %d binary %v != json %v", stage, i, cards[i], er.Cardinality)
			}
		}
		return h.Generation
	}
	genPre := check("pre-swap")
	if genPre == 0 {
		t.Fatal("pre-swap generation echo is 0")
	}
	// Buffer labeled feedback and run a period: the swap bumps the serving
	// generation even when the repair decides not to update.
	rng2 := rand.New(rand.NewSource(12))
	for i := 0; i < 30; i++ {
		p := gNew.Gen(rng2)
		card := countOK(t, ann, p)
		r := postJSON(t, ts.URL+"/feedback", feedbackRequest{
			predicateJSON: predicateJSON{Lows: p.Lows, Highs: p.Highs},
			Cardinality:   &card,
		}, nil)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("feedback status = %d", r.StatusCode)
		}
	}
	if r := postJSON(t, ts.URL+"/period", struct{}{}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("period status = %d", r.StatusCode)
	}
	genPost := check("post-swap")
	if genPost <= genPre {
		t.Errorf("generation did not advance across the swap: %d → %d", genPre, genPost)
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	_, ts, sch, _, gNew := newTestServerOpts(t, Options{BinaryProtocol: true})
	p := gNew.Gen(rand.New(rand.NewSource(5)))
	valid, err := wire.AppendRequest(nil, 0, []query.Predicate{p}, false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		frame []byte
		want  int
	}{
		{"empty body", nil, http.StatusBadRequest},
		{"short header", valid[:10], http.StatusBadRequest},
		{"bad magic", func() []byte { f := append([]byte{}, valid...); f[0] ^= 0xff; return f }(), http.StatusBadRequest},
		{"bad version", func() []byte { f := append([]byte{}, valid...); f[4] = 9; return f }(), http.StatusBadRequest},
		{"trailing bytes", append(append([]byte{}, valid...), 1, 2, 3), http.StatusBadRequest},
		{"truncated payload", valid[:len(valid)-4], http.StatusBadRequest},
		{"forged row count", func() []byte {
			f := append([]byte{}, valid...)
			f[16], f[17], f[18] = 0xff, 0xff, 0xff
			return f
		}(), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if _, _, code := postWire(t, ts.URL+"/estimate/batch", tc.frame); code != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, code, tc.want)
		}
	}
	// Wrong column count for the serving schema: also 400.
	narrow := query.Predicate{Lows: p.Lows[:sch.NumCols()-1], Highs: p.Highs[:sch.NumCols()-1]}
	wrongCols, err := wire.AppendRequest(nil, 0, []query.Predicate{narrow}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, code := postWire(t, ts.URL+"/estimate/batch", wrongCols); code != http.StatusBadRequest {
		t.Errorf("wrong cols: status = %d, want 400", code)
	}
	// A body past the frame cap answers 413, like the JSON endpoints.
	if _, _, code := postWire(t, ts.URL+"/estimate/batch", make([]byte, maxWireBody+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize: status = %d, want 413", code)
	}
	// The canonical empty batch is valid: 200 with zero cards.
	empty, err := wire.AppendRequest(nil, 0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if h, cards, code := postWire(t, ts.URL+"/estimate/batch", empty); code != http.StatusOK || len(cards) != 0 || h.Flags != 0 {
		t.Errorf("empty batch: code %d, %d cards, header %+v", code, len(cards), h)
	}
	// Binary endpoints must be absent without Options.BinaryProtocol.
	_, ts2, _, _, _ := newTestServer(t)
	if _, _, code := postWire(t, ts2.URL+"/estimate/batch", valid); code != http.StatusNotFound {
		t.Errorf("disabled server: status = %d, want 404", code)
	}
}

// TestWireRejectsNonFiniteAndCacheStaysClean pins the NaN bugfix at the
// cache boundary: a non-finite bound must be rejected before it can be
// featurized into a cache key, so the cache holds nothing afterwards.
func TestWireRejectsNonFiniteAndCacheStaysClean(t *testing.T) {
	srv, ts, _, _, gNew := newTestServerOpts(t, Options{BinaryProtocol: true, EstimateCache: true})
	p := gNew.Gen(rand.New(rand.NewSource(7)))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		poisoned := query.Predicate{
			Lows:  append([]float64{}, p.Lows...),
			Highs: append([]float64{}, p.Highs...),
		}
		poisoned.Lows[0] = bad
		frame, err := wire.AppendRequest(nil, 0, []query.Predicate{poisoned}, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, code := postWire(t, ts.URL+"/estimate/batch", frame); code != http.StatusBadRequest {
			t.Fatalf("bound %v: status = %d, want 400", bad, code)
		}
	}
	if n := srv.cache.entries(); n != 0 {
		t.Fatalf("rejected requests left %d cache entries", n)
	}
	// A finite batch populates the cache, and a repeat answers identically
	// from it.
	frame, err := wire.AppendRequest(nil, 0, []query.Predicate{p}, false)
	if err != nil {
		t.Fatal(err)
	}
	_, first, code := postWire(t, ts.URL+"/estimate/batch", frame)
	if code != http.StatusOK {
		t.Fatalf("valid frame: status = %d", code)
	}
	if n := srv.cache.entries(); n != 1 {
		t.Fatalf("cache entries = %d after a full-model answer, want 1", n)
	}
	hitsBefore := srv.met.cacheHits.Value()
	_, second, code := postWire(t, ts.URL+"/estimate/batch", frame)
	if code != http.StatusOK || second[0] != first[0] {
		t.Fatalf("repeat = (%d, %v), want (200, %v)", code, second, first)
	}
	if srv.met.cacheHits.Value() != hitsBefore+1 {
		t.Errorf("repeat did not hit the cache")
	}
}

// TestDecodePredicateRejectsNonFinite pins the JSON-side half of the NaN
// bugfix at the decoder seam (valid JSON cannot carry NaN/Inf literals, so
// the HTTP layer cannot exercise it; embedders calling decodePredicate can).
func TestDecodePredicateRejectsNonFinite(t *testing.T) {
	srv, _, sch, _, gNew := newTestServer(t)
	p := gNew.Gen(rand.New(rand.NewSource(9)))
	if _, err := srv.decodePredicate(predicateJSON{Lows: p.Lows, Highs: p.Highs}); err != nil {
		t.Fatalf("finite predicate rejected: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		lows := append([]float64{}, p.Lows...)
		lows[0] = bad
		if _, err := srv.decodePredicate(predicateJSON{Lows: lows, Highs: p.Highs}); err != wire.ErrNonFinite {
			t.Errorf("low %v: err = %v, want ErrNonFinite", bad, err)
		}
		highs := append([]float64{}, p.Highs...)
		highs[sch.NumCols()-1] = bad
		if _, err := srv.decodePredicate(predicateJSON{Lows: p.Lows, Highs: highs}); err != wire.ErrNonFinite {
			t.Errorf("high %v: err = %v, want ErrNonFinite", bad, err)
		}
	}
}

// TestDeadlineHeaderMalformed pins the deadline-header bugfixes: a header
// that is not a positive integer millisecond count answers 400 on every
// estimate endpoint instead of silently degrading to wait-forever semantics
// — and so does a count too large for a time.Duration, which used to wrap
// into a negative budget (no deadline, exempt from the admission-queue
// bound) or an arbitrary tiny one.
func TestDeadlineHeaderMalformed(t *testing.T) {
	_, ts, _, _, gNew := newTestServerOpts(t, Options{BinaryProtocol: true})
	p := gNew.Gen(rand.New(rand.NewSource(13)))
	jsonBody, err := jsonBytes(predicateJSON{Lows: p.Lows, Highs: p.Highs})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendRequest(nil, 0, []query.Predicate{p}, false)
	if err != nil {
		t.Fatal(err)
	}
	endpoints := []struct {
		path, ctype string
		body        []byte
	}{
		{"/estimate", "application/json", jsonBody},
		{"/estimate/batch", wireContentType, frame},
	}
	// Note: leading/trailing whitespace is trimmed by net/http before the
	// handler sees the header, so " 50" arrives as a valid "50".
	for _, tc := range []struct {
		header string
		want   int
	}{
		{"abc", http.StatusBadRequest},
		{"0", http.StatusBadRequest},
		{"-5", http.StatusBadRequest},
		{"1.5", http.StatusBadRequest},
		{"50ms", http.StatusBadRequest},
		{"9223372036854775807", http.StatusBadRequest}, // × 1e6 wraps to −1 ms
		{"18446744073710", http.StatusBadRequest},      // × 1e6 wraps to 448 µs
		{"9223372036855", http.StatusBadRequest},       // maxDeadlineMs + 1
		{"9223372036854", http.StatusOK},               // maxDeadlineMs
		{"5000", http.StatusOK},
		{"", http.StatusOK},
	} {
		for _, ep := range endpoints {
			req, err := http.NewRequest(http.MethodPost, ts.URL+ep.path, bytes.NewReader(ep.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", ep.ctype)
			if tc.header != "" {
				req.Header.Set(deadlineHeader, tc.header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("POST %s with %s: %q: status = %d, want %d",
					ep.path, deadlineHeader, tc.header, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestJSONTrailingGarbageRejected pins the strict-decode bugfix: a body
// that continues past its one JSON value answers 400 on /estimate and
// /feedback. Trailing whitespace stays accepted.
func TestJSONTrailingGarbageRejected(t *testing.T) {
	_, ts, _, _, gNew := newTestServer(t)
	p := gNew.Gen(rand.New(rand.NewSource(17)))
	body, err := jsonBytes(predicateJSON{Lows: p.Lows, Highs: p.Highs})
	if err != nil {
		t.Fatal(err)
	}
	post := func(url string, body []byte) int {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	garbage := append(append([]byte{}, body...), []byte(`{"oops":1}`)...)
	for _, url := range []string{ts.URL + "/estimate", ts.URL + "/feedback"} {
		if code := post(url, garbage); code != http.StatusBadRequest {
			t.Errorf("%s trailing value: status = %d, want 400", url, code)
		}
		if code := post(url, append(append([]byte{}, body...), ' ', '\n')); code != http.StatusOK {
			t.Errorf("%s trailing whitespace: status = %d, want 200", url, code)
		}
		if code := post(url, body); code != http.StatusOK {
			t.Errorf("%s clean body: status = %d, want 200", url, code)
		}
	}
}

// TestWireZeroAllocSteady is the hard zero-allocation assert on the binary
// steady path: once the buffer pool and every replica have reached their
// high-water shapes, a full in-process batch round trip (decode → group
// loop → inference → encode) allocates nothing.
func TestWireZeroAllocSteady(t *testing.T) {
	srv, _, _, _, gNew := newTestServerOpts(t, Options{BinaryProtocol: true, Replicas: 4})
	rng := rand.New(rand.NewSource(23))
	preds := make([]query.Predicate, 64)
	for i := range preds {
		preds[i] = gNew.Gen(rng)
	}
	frame, err := wire.AppendRequest(nil, 0, preds, false)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, wire.HeaderSize+8*len(preds))
	// Warm every replica (the free list is FIFO, so sequential calls rotate
	// through all of them, growing each one's batch scratch once) and the
	// pooled wire state.
	for i := 0; i < 8; i++ {
		if _, err := srv.EstimateBatchWire(dst[:0], frame, time.Time{}); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		out, err := srv.EstimateBatchWire(dst[:0], frame, time.Time{})
		if err != nil {
			t.Fatalf("EstimateBatchWire: %v", err)
		}
		if len(out) != cap(dst) {
			t.Fatalf("response = %d bytes, want %d", len(out), cap(dst))
		}
	})
	if allocs != 0 {
		t.Errorf("steady binary path allocates %v per batch, want 0", allocs)
	}
}

// benchWireBatch times one 256-row frame through EstimateBatchWire on a
// warmed server, every row a cache hit or every row a miss, and reports the
// per-row cost. Misses cycle eight frames of distinct predicates through
// the smallest cache there is, so each row is probed, answered by a replica
// and inserted over an evicted entry — wire_unique's miss path. Both must
// report 0 allocs/op.
func benchWireBatch(b *testing.B, hit bool) {
	opts := Options{BinaryProtocol: true, EstimateCache: true, Replicas: 2}
	frames := 1
	if !hit {
		opts.CacheEntries, frames = 1, 8
	}
	srv, _, sch, _, gNew := newTestServerOpts(b, opts)
	preds := distinctKeys(gNew, sch, frames*wireGroupRows, rand.New(rand.NewSource(37)))
	in := make([][]byte, frames)
	for i := range in {
		var err error
		if in[i], err = wire.AppendRequest(nil, 0, preds[i*wireGroupRows:(i+1)*wireGroupRows], false); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]byte, 0, wire.HeaderSize+8*wireGroupRows)
	call := func(i int) {
		if _, err := srv.EstimateBatchWire(dst[:0], in[i%frames], time.Time{}); err != nil {
			b.Fatalf("EstimateBatchWire: %v", err)
		}
	}
	// Warm both replicas, the pooled scratch and, for hits, the cache.
	for i := 0; i < 2*frames+4; i++ {
		call(i)
	}
	hits, misses := srv.met.cacheHits.Value(), srv.met.cacheMisses.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*wireGroupRows), "ns/row")
	rows := int64(b.N * wireGroupRows)
	if hit && srv.met.cacheHits.Value()-hits != rows {
		b.Fatalf("%d of %d rows hit the cache, want all", srv.met.cacheHits.Value()-hits, rows)
	}
	if !hit && srv.met.cacheMisses.Value()-misses != rows {
		b.Fatalf("%d of %d rows missed the cache, want all", srv.met.cacheMisses.Value()-misses, rows)
	}
}

func BenchmarkWireBatchHit(b *testing.B)  { benchWireBatch(b, true) }
func BenchmarkWireBatchMiss(b *testing.B) { benchWireBatch(b, false) }
