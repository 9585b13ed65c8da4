package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"warper/internal/query"
	"warper/internal/wire"
)

// FuzzEstimateEntryPoints drives the two decoders in front of the estimate
// pipeline with the same fuzzed request: raw supplies the bounds (8 bytes
// each, little-endian float64 bits, zero-padded), arity how many columns
// the request claims, and trail bytes appended after both encodings. The
// JSON body and the one-row binary frame must be rejected together (NaN or
// ±Inf bounds, wrong arity, trailing bytes) or answer together, with the
// cardinality bits of a scalar Estimate on a private clone of the model.
func FuzzEstimateEntryPoints(f *testing.F) {
	srv, _, sch, _, gNew := newTestServerOpts(f, Options{})
	h := srv.Handler()
	ref := srv.Estimator().Clone()
	cols := sch.NumCols()

	// Seeds: the malformed-input cases of TestWireRejectsMalformed,
	// TestWireRejectsNonFiniteAndCacheStaysClean and the JSON decode tests,
	// next to a valid predicate.
	p := gNew.Gen(rand.New(rand.NewSource(5)))
	bits := func(lows, highs []float64) []byte {
		var raw []byte
		for _, v := range append(append([]float64{}, lows...), highs...) {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		return raw
	}
	valid := bits(p.Lows, p.Highs)
	f.Add(valid, uint8(cols), []byte(nil))
	f.Add(valid, uint8(cols), []byte(`{"oops":1}`))
	f.Add(valid, uint8(cols), []byte{1, 2, 3})
	f.Add(valid, uint8(cols-1), []byte(nil))
	f.Add(valid, uint8(cols+1), []byte(nil))
	f.Add(valid, uint8(0), []byte(nil))
	f.Add([]byte(nil), uint8(cols), []byte(nil))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		lows := append([]float64{}, p.Lows...)
		lows[0] = bad
		f.Add(bits(lows, p.Highs), uint8(cols), []byte(nil))
		highs := append([]float64{}, p.Highs...)
		highs[cols-1] = bad
		f.Add(bits(p.Lows, highs), uint8(cols), []byte(nil))
	}

	serve := func(path, ctype string, body []byte) *httptest.ResponseRecorder {
		rw := httptest.NewRecorder()
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		h.ServeHTTP(rw, req)
		return rw
	}

	f.Fuzz(func(t *testing.T, raw []byte, arity uint8, trail []byte) {
		// At most two columns beyond the schema: wider requests only repeat
		// the wrong-arity case.
		k := int(arity) % (cols + 3)
		vals := make([]float64, 2*k)
		for i := range vals {
			var w [8]byte
			if 8*i < len(raw) {
				copy(w[:], raw[8*i:])
			}
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		}
		req := query.Predicate{Lows: vals[:k], Highs: vals[k:]}
		// JSON tolerates trailing whitespace and the binary frame tolerates
		// nothing, by design: keep whitespace-only trailers out of the
		// comparison.
		if len(bytes.TrimSpace(trail)) == 0 {
			trail = nil
		}

		// The JSON body is written by hand: encoding/json refuses to marshal
		// NaN and ±Inf, and what the server makes of them is the point.
		body := []byte(`{"lows":[`)
		for i, v := range req.Lows {
			if i > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, v, 'g', -1, 64)
		}
		body = append(body, `],"highs":[`...)
		for i, v := range req.Highs {
			if i > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, v, 'g', -1, 64)
		}
		body = append(append(body, `]}`...), trail...)
		frame, err := wire.AppendRequest(nil, 0, []query.Predicate{req}, false)
		if err != nil {
			t.Fatalf("AppendRequest: %v", err)
		}
		frame = append(frame, trail...)

		jr := serve("/estimate", "application/json", body)
		wr := serve("/estimate/batch", wireContentType, frame)
		if (jr.Code == http.StatusOK) != (wr.Code == http.StatusOK) {
			t.Fatalf("JSON answered %d (%s), binary answered %d (%s)", jr.Code, jr.Body, wr.Code, wr.Body)
		}
		if jr.Code != http.StatusOK {
			if jr.Code != http.StatusBadRequest || wr.Code != http.StatusBadRequest {
				t.Fatalf("rejections: JSON %d, binary %d, want 400 and 400", jr.Code, wr.Code)
			}
			return
		}
		var er estimateResponse
		if err := json.Unmarshal(jr.Body.Bytes(), &er); err != nil {
			t.Fatalf("JSON response: %v", err)
		}
		hd, cards, err := wire.DecodeResponse(wr.Body.Bytes(), nil)
		if err != nil || hd.Flags != 0 || len(cards) != 1 {
			t.Fatalf("binary response: header %+v, %d cards, err %v", hd, len(cards), err)
		}
		want := math.Float64bits(ref.Estimate(req.Normalize(sch)))
		if math.Float64bits(er.Cardinality) != want || math.Float64bits(cards[0]) != want {
			t.Fatalf("JSON %v, binary %v, scalar reference %v", er.Cardinality, cards[0], math.Float64frombits(want))
		}
	})
}
