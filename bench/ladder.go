package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"time"

	"warper/internal/ce"
	"warper/internal/query"
	"warper/internal/wire"
)

// The layer ladder replays a workload's own request stream sequentially,
// each request through five rungs from the outside in:
//
//	rung 0  HTTP round trip over loopback            (http + everything below)
//	rung 1  Handler().ServeHTTP on an in-memory writer (serve codec + below)
//	rung 2  Server.Estimate / EstimateBatchWire      (serve core + below)
//	rung 3  ce estimate on a private clone           (model + featurize)
//	rung 4  wire decode / encode, query featurize    (leaf calls)
//
// A layer's self time is its rung minus the rung below. Rungs 0–2 go through
// the server's estimate cache, so each takes the next element of the stream
// instead of the same one — replaying one element down the rungs would turn
// every inner rung into a cache hit on a stream whose point is to miss.
// Rungs 3 and 4 touch no server state and reuse rung 2's element.

// memWriter is the in-memory http.ResponseWriter of rung 1: a fixed buffer,
// so that writing a response into it costs a copy and never an allocation.
type memWriter struct {
	h    http.Header
	buf  []byte // len is what has been written, cap the room there is
	code int
}

func newMemWriter() *memWriter {
	// Room for the largest frame the server accepts (8192 rows) and change.
	return &memWriter{h: http.Header{}, buf: make([]byte, 0, 128<<10)}
}

func (w *memWriter) Header() http.Header  { return w.h }
func (w *memWriter) WriteHeader(code int) { w.code = code }
func (w *memWriter) Write(b []byte) (int, error) {
	n := len(w.buf)
	if n+len(b) > cap(w.buf) {
		return 0, io.ErrShortBuffer
	}
	w.buf = w.buf[:n+len(b)]
	return copy(w.buf[n:], b), nil
}

func (w *memWriter) reset() {
	for k := range w.h {
		delete(w.h, k)
	}
	w.buf, w.code = w.buf[:0], 200
}

// ladderTimes holds one rung's per-request durations.
type ladderTimes []time.Duration

func (t ladderTimes) quantileUs(q float64) float64 {
	s := slices.Clone(t)
	slices.Sort(s)
	return quantileUs(s, q)
}

// runLadder replays n requests of s and writes the ladder's layer metrics
// into out. c is a connection no other goroutine uses; the server must be
// otherwise idle.
func runLadder(fx *fixture, s *stream, n int, c *conn, spans *spanLog, out map[string]float64) error {
	handler := fx.srv.Handler()
	ref := fx.srv.Estimator().Clone()
	batch, ok := ref.(ce.BatchEstimator)
	if !ok {
		return fmt.Errorf("ladder: served model %s has no batch path", ref.Name())
	}
	w := newMemWriter()
	body := bytes.NewReader(nil)
	hreq := &http.Request{
		Method: "POST", URL: &url.URL{Path: s.path}, Host: "bench",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {jsonType}},
	}
	if s.rows > 1 {
		hreq.Header.Set("Content-Type", wireType)
	}
	hreq = hreq.WithContext(context.Background())
	k := &checker{s: s, cards: make([]float64, 0, s.rows), exact: true}

	var rt, hd, core, est, dec, enc, feat ladderTimes
	wbuf := wire.NewBuffer()
	dst := make([]byte, 0, wire.HeaderSize+8*s.rows)
	cards := make([]float64, s.rows)
	fvec := make([]float64, fx.sch.FeatureDim())
	cols := fx.sch.NumCols()
	preds := make([]query.Predicate, s.rows)
	failed := 0

	before, err := scrape(c)
	if err != nil {
		return err
	}
	m := len(s.req)
	for i := 0; i < n; i++ {
		j0, j1, j2 := (3*i)%m, (3*i+1)%m, (3*i+2)%m
		reqStart := time.Now()

		// Rung 0: the full round trip.
		t := time.Now()
		status, resp, err := c.roundTrip(s.req[j0])
		d0 := time.Since(t)
		if err != nil {
			return fmt.Errorf("ladder rung 0: %w", err)
		}
		if !k.any(j0, status, resp) {
			failed++
		}

		// Rung 1: the handler without a socket.
		w.reset()
		body.Reset(s.body(j1))
		hreq.Body = io.NopCloser(body)
		hreq.ContentLength = int64(body.Len())
		t1 := time.Now()
		handler.ServeHTTP(w, hreq)
		d1 := time.Since(t1)
		if !k.any(j1, w.code, w.buf) {
			failed++
		}

		// Rung 2: the serving core without a codec.
		var d2 time.Duration
		t2 := time.Now()
		if s.rows == 1 {
			got := fx.srv.Estimate(s.preds[s.idx[j2]])
			d2 = time.Since(t2)
			if !k.row(got, s.idx[j2]) {
				failed++
			}
		} else {
			dst, err = fx.srv.EstimateBatchWire(dst[:0], s.body(j2), time.Time{})
			d2 = time.Since(t2)
			if err != nil {
				return fmt.Errorf("ladder rung 2: %w", err)
			}
			if !k.wire(j2, 200, dst) {
				failed++
			}
		}

		// Rungs 3 and 4 on the same element as rung 2.
		var d3, d4dec, d4enc, d4feat time.Duration
		var t3, t4d, t4e, t4f time.Time
		if s.rows == 1 {
			p := s.preds[s.idx[j2]]
			t3 = time.Now()
			got := ref.Estimate(p)
			d3 = time.Since(t3)
			if !k.row(got, s.idx[j2]) {
				failed++
			}
			t4f = time.Now()
			p.FeaturizeInto(fx.sch, fvec)
			d4feat = time.Since(t4f)
		} else {
			wbuf.In = append(wbuf.In[:0], s.body(j2)...)
			t4d = time.Now()
			err := wbuf.DecodeBatch(cols, 8192)
			d4dec = time.Since(t4d)
			if err != nil {
				return fmt.Errorf("ladder rung 4 decode: %w", err)
			}
			copy(preds, wbuf.Req.Preds)
			t3 = time.Now()
			batch.EstimateAll(preds, cards)
			d3 = time.Since(t3)
			for r, got := range cards {
				if !k.row(got, s.idx[j2*s.rows+r]) {
					failed++
					break
				}
			}
			t4f = time.Now()
			for _, p := range preds {
				p.FeaturizeInto(fx.sch, fvec)
			}
			d4feat = time.Since(t4f)
			t4e = time.Now()
			wbuf.EncodeResponse(1, 0, cards, false)
			d4enc = time.Since(t4e)
		}

		rt, hd, core, est = append(rt, d0), append(hd, d1), append(core, d2), append(est, d3)
		dec, enc, feat = append(dec, d4dec), append(enc, d4enc), append(feat, d4feat)
		if spans != nil {
			root := spans.add("ladder_request", reqStart, time.Since(reqStart), -1, ladderLane)
			if root >= 0 {
				r0 := spans.add("rung0 http.roundtrip", t, d0, root, ladderLane)
				r1 := spans.add("rung1 serve.handler", t1, d1, r0, ladderLane)
				r2 := spans.add("rung2 serve.core", t2, d2, r1, ladderLane)
				spans.add("rung3 ce.estimate", t3, d3, r2, ladderLane)
				spans.add("rung4 query.featurize", t4f, d4feat, r2, ladderLane)
				if s.rows > 1 {
					spans.add("rung4 wire.decode", t4d, d4dec, r2, ladderLane)
					spans.add("rung4 wire.encode", t4e, d4enc, r2, ladderLane)
				}
			}
		}
	}
	after, err := scrape(c)
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("ladder: %d answers differ from the oracle", failed)
	}

	rows := float64(s.rows)
	// Cache-touching calls per ladder request: rungs 0, 1 and 2.
	missRows := delta(before, after, "estimate_cache_misses_total") / float64(3*n)
	rt50, hd50, core50 := rt.quantileUs(0.5), hd.quantileUs(0.5), core.quantileUs(0.5)
	est50, dec50, enc50, feat50 := est.quantileUs(0.5), dec.quantileUs(0.5), enc.quantileUs(0.5), feat.quantileUs(0.5)
	// The model's share of one request: its per-row cost times the rows
	// that actually reached it (the cache answers the rest).
	estShare := est50 * missRows / rows

	out["http.roundtrip_p50_us"] = rt50
	out["http.roundtrip_p99_us"] = rt.quantileUs(0.99)
	out["http.transport_self_us"] = rt50 - hd50
	out["serve.handler_p50_us"] = hd50
	out["serve.codec_self_us"] = hd50 - core50
	out["serve.core_p50_us"] = core50
	out["serve.core_self_us"] = core50 - estShare - dec50 - enc50
	out["ce.estimate_all_us_per_frame"] = est50
	out["ce.estimate_ns_per_row"] = est50 * 1e3 / rows
	out["nn.infer_ns_per_row"] = (est50 - feat50) * 1e3 / rows
	out["query.featurize_ns_per_row"] = feat50 * 1e3 / rows
	out["wire.decode_us_per_frame"] = dec50
	out["wire.encode_us_per_frame"] = enc50
	out["bench.ladder_requests"] = float64(n)
	out["bench.ladder_miss_rows_per_request"] = missRows

	// Self times are differences of rung medians, so they add up to the
	// round trip by construction; what can go wrong is a rung that is not
	// nested in the one above it, which shows as a self time well below zero.
	// Reported: the smallest self time as a share of the round trip.
	out["bench.ladder_min_self_ratio"] = min(rt50-hd50, hd50-core50, core50-estShare-dec50-enc50, est50-feat50) / rt50
	return nil
}

// any dispatches to the protocol check of the checker's stream.
func (k *checker) any(j, status int, body []byte) bool {
	if k.s.rows == 1 {
		return k.json(j, status, body)
	}
	return k.wire(j, status, body)
}
