package serve

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"unsafe"
)

// The JSON codec of POST /estimate and POST /feedback.
//
// decodeJSONStrict (encoding/json) defines what the two endpoints accept,
// and how they answer what they reject. In front of it sits one strict
// recogniser for the canonical body {"lows":[…],"highs":[…]} (and, on
// /feedback, an optional "cardinality": number or null), in either key
// order and with JSON whitespace anywhere JSON allows it. The recogniser
// checks every number against the JSON number grammar and parses it with
// the call encoding/json itself makes, strconv.ParseFloat over the same
// bytes, so an accepted body decodes to the same bits either way. Anything
// else — an unknown, duplicate, case-variant or escaped key, null bounds, a
// number ParseFloat reports out of range, more bounds than the schema has
// columns, trailing bytes, a long body — goes, as the same bytes, to
// decodeJSONStrict. FuzzPredicateBody holds the two to that.
//
// The response of /estimate is the bytes json.Encoder writes for
// estimateResponse, appended by hand (writeEstimate).

// maxFastBody is the longest body the recogniser reads into a pooled slab;
// a canonical body is a few hundred bytes. Longer bodies stream on to
// decodeJSONStrict, which applies the maxPeriodBody cap, so a pooled slab
// never holds more than about twice this.
const maxFastBody = 64 << 10

// errLongBody is readJSON's report of a body longer than maxFastBody.
var errLongBody = errors.New("serve: body longer than the recogniser reads")

// jsonBody is a decoded /estimate or /feedback body. hasCard is false when
// a feedback body carries no cardinality or a null one.
type jsonBody struct {
	predicateJSON
	card    float64
	hasCard bool
}

// readJSON reads r into the scratch's body slab, stopping at EOF (reported
// as nil), at a read error, or once the slab holds more than maxFastBody
// bytes (errLongBody), and sizes the bounds slab for d columns.
//
//lint:allow hotpathalloc grow-once slabs: the body slab is bounded by maxFastBody and the bounds slab by the schema, both kept at high-water capacity for the scratch's pooled lifetime
func (sc *scratch) readJSON(r io.Reader, d int) ([]byte, error) {
	if cap(sc.bounds) < 2*d {
		sc.bounds = make([]float64, 2*d)
	}
	b := sc.body[:0]
	var err error
	for err == nil && len(b) <= maxFastBody {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var n int
		n, err = r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
	}
	sc.body = b
	switch err {
	case io.EOF:
		return b, nil
	case nil:
		return b, errLongBody
	}
	return b, err
}

// decodeBody reads and decodes r's body: the recogniser answers the
// canonical body, decodeFallback every other. The bounds of a recognised
// body view the scratch's bounds slab, so they live as long as the caller
// holds sc.
func (s *Server) decodeBody(sc *scratch, w http.ResponseWriter, r *http.Request, withCard bool) (jsonBody, error) {
	d := s.sch.NumCols()
	body, err := sc.readJSON(r.Body, d)
	if err == nil {
		if b, ok := recognise(body, sc.bounds[:2*d], withCard); ok {
			return b, nil
		}
	}
	return decodeFallback(w, body, r.Body, err, withCard)
}

// decodeFallback decodes a body the recogniser declined with
// decodeJSONStrict, into the request type of its endpoint. The decoder
// reads the bytes readJSON took, then what readJSON left: nothing after
// EOF, the rest of the body after a long one, and the read error that
// stopped it otherwise — under the same cap and in the same order as the
// body itself, so the answer is the one decodeJSONStrict gives that body.
//
//lint:allow hotpathalloc HTTP decode boundary: only bodies the recogniser declines get here, and encoding/json allocates
func decodeFallback(w http.ResponseWriter, head []byte, rest io.Reader, readErr error, withCard bool) (jsonBody, error) {
	src := []io.Reader{bytes.NewReader(head)}
	switch {
	case readErr == errLongBody:
		src = append(src, rest)
	case readErr != nil:
		src = append(src, errReader{readErr})
	}
	body := http.MaxBytesReader(w, io.NopCloser(io.MultiReader(src...)), maxPeriodBody)
	if !withCard {
		var req estimateRequest
		err := decodeJSONStrict(body, &req)
		return jsonBody{predicateJSON: req.predicateJSON}, err
	}
	var req feedbackRequest
	if err := decodeJSONStrict(body, &req); err != nil {
		return jsonBody{}, err
	}
	b := jsonBody{predicateJSON: req.predicateJSON}
	if req.Cardinality != nil {
		b.card, b.hasCard = *req.Cardinality, true
	}
	return b, nil
}

// errReader replays a read error to decodeFallback's decoder.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// recognise parses a canonical body into dst: lows into its first half,
// highs into its second, at most len(dst)/2 of each. ok is false for every
// body it does not recognise.
func recognise(b []byte, dst []float64, withCard bool) (out jsonBody, ok bool) {
	d := len(dst) / 2
	var lows, highs, card bool // keys seen
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return out, false
	}
	for {
		i = skipSpace(b, i+1) // past '{' or ','
		switch {
		case !lows && keyAt(b, i, "lows"):
			lows = true
			out.Lows, i, ok = numbers(b, valueAt(b, i+len(`"lows"`)), dst[:d:d])
		case !highs && keyAt(b, i, "highs"):
			highs = true
			out.Highs, i, ok = numbers(b, valueAt(b, i+len(`"highs"`)), dst[d:])
		case withCard && !card && keyAt(b, i, "cardinality"):
			card = true
			i = valueAt(b, i+len(`"cardinality"`))
			if keyword(b, i, "null") {
				i, ok = i+len("null"), true
			} else {
				out.card, i, ok = number(b, i)
				out.hasCard = ok
			}
		default:
			return out, false
		}
		if !ok {
			return out, false
		}
		if i = skipSpace(b, i); i == len(b) {
			return out, false
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return out, false
		}
	}
	return out, lows && highs && skipSpace(b, i+1) == len(b)
}

// skipSpace returns the index of the first non-whitespace byte at or after
// b[i] (len(b) when there is none).
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// keyword reports whether b[i:] starts with word.
func keyword(b []byte, i int, word string) bool {
	if len(b)-i < len(word) {
		return false
	}
	for k := 0; k < len(word); k++ {
		if b[i+k] != word[k] {
			return false
		}
	}
	return true
}

// keyAt reports whether b[i:] starts with key as a JSON string spelled
// without escapes.
func keyAt(b []byte, i int, key string) bool {
	return i < len(b) && b[i] == '"' && keyword(b, i+1, key) && keyword(b, i+1+len(key), `"`)
}

// valueAt returns the index of the value after the key ending at b[i]: past
// whitespace, a colon and whitespace — or len(b) when no colon follows,
// which every value parser rejects.
func valueAt(b []byte, i int) int {
	if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
		return len(b)
	}
	return skipSpace(b, i+1)
}

// numbers parses the JSON array of numbers at b[i] into dst, returning the
// filled prefix and the index past ']'. An array longer than dst is not
// recognised.
func numbers(b []byte, i int, dst []float64) ([]float64, int, bool) {
	if i == len(b) || b[i] != '[' {
		return nil, 0, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return dst[:0], i + 1, true
	}
	for n := 0; n < len(dst); n++ {
		v, j, ok := number(b, i)
		if !ok {
			return nil, 0, false
		}
		dst[n] = v
		if i = skipSpace(b, j); i == len(b) {
			return nil, 0, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return dst[:n+1], i + 1, true
		default:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// number parses the JSON number at b[i] as encoding/json does: the bytes
// the JSON number grammar admits, handed to strconv.ParseFloat. A number
// ParseFloat reports out of range is not recognised (encoding/json rejects
// it too, with its own error).
func number(b []byte, i int) (float64, int, bool) {
	j := numberEnd(b, i)
	if j < 0 {
		return 0, 0, false
	}
	// ParseFloat keeps no reference to its argument (its errors copy it),
	// and b is not written while it runs.
	v, err := strconv.ParseFloat(unsafe.String(&b[i], j-i), 64)
	return v, j, err == nil
}

// numberEnd returns the end of the JSON number
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? starting at b[i], or -1.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// writeEstimate writes the /estimate response: the bytes json.Encoder
// writes for estimateResponse, appended into the scratch's body slab (the
// request is decoded by now). The reasons are estimate.go's identifiers,
// which JSON needs no escape for. A non-finite cardinality, which
// encoding/json refuses, goes to writeJSON and fails there as it always has.
//
//lint:allow hotpathalloc HTTP encode boundary: the appends grow the pooled slab once, and only a non-finite answer boxes a response for writeJSON
func (s *Server) writeEstimate(w http.ResponseWriter, sc *scratch, card float64, out EstimateOutcome) {
	if math.IsInf(card, 0) || math.IsNaN(card) {
		s.writeJSON(w, estimateResponse{Cardinality: card, Degraded: out.Degraded, Reason: out.Reason})
		return
	}
	b := appendJSONFloat(append(sc.body[:0], `{"cardinality":`...), card)
	if out.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if out.Reason != "" {
		b = append(append(append(b, `,"reason":"`...), out.Reason...), '"')
	}
	b = append(b, "}\n"...)
	sc.body = b
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(b); err != nil {
		s.logger.Error("response encode failed", "err", err)
	}
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// representation that round-trips, in 'e' notation outside [1e-6, 1e21)
// with a two-digit negative exponent trimmed (e-07 → e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
