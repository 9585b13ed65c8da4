package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"warper/internal/ce"
	"warper/internal/wire"
)

// checker validates one client's responses. It owns the scratch the decode
// needs, so checking allocates nothing.
type checker struct {
	s       *stream
	cards   []float64
	lastGen uint64
	// exact compares every row with the stream's oracle bit for bit; without
	// it (once adaptation periods swap the model under the client) rows only
	// have to be finite and non-negative.
	exact bool
}

var cardPrefix = []byte(`{"cardinality":`)

// json validates a POST /estimate reply for request j.
func (k *checker) json(j, status int, body []byte) bool {
	if status != 200 || !bytes.HasPrefix(body, cardPrefix) {
		return false
	}
	rest := body[len(cardPrefix):]
	end := bytes.IndexByte(rest, '}')
	// A degraded answer carries more fields after the number: a failure here.
	if end < 0 || bytes.IndexByte(rest[:end], ',') >= 0 {
		return false
	}
	got, err := strconv.ParseFloat(string(rest[:end]), 64)
	if err != nil {
		return false
	}
	return k.row(got, k.s.idx[j])
}

// wire validates a POST /estimate/batch reply for request j: a clean frame
// of the right row count, not degraded, with a generation echo that never
// goes back (0 means every row came from the cache).
func (k *checker) wire(j, status int, body []byte) bool {
	if status != 200 {
		return false
	}
	h, cards, err := wire.DecodeResponse(body, k.cards)
	if err != nil {
		return false
	}
	k.cards = cards
	if h.Flags != 0 || h.Rows != k.s.rows {
		return false
	}
	if h.Generation != 0 {
		if h.Generation < k.lastGen {
			return false
		}
		k.lastGen = h.Generation
	}
	ok := true
	for r, got := range cards {
		if !k.row(got, k.s.idx[j*k.s.rows+r]) {
			ok = false
		}
	}
	return ok
}

func (k *checker) row(got float64, i int32) bool {
	if k.exact {
		return math.Float64bits(got) == math.Float64bits(k.s.want[i])
	}
	return got >= 0 && !math.IsInf(got, 0) && !math.IsNaN(got)
}

// closedLoop builds the measuring phase of a stream: client c's i-th
// request is stream element (i·clients + c) mod len, so together the
// clients scan the stream cyclically.
func closedLoop(fx *fixture, s *stream, clients int, exact bool, sc scale) loadSpec {
	ks := make([]*checker, clients)
	for c := range ks {
		ks[c] = &checker{s: s, cards: make([]float64, 0, s.rows), exact: exact}
	}
	n := len(s.req)
	return loadSpec{
		addr: fx.addr, clients: clients, rows: s.rows,
		next:   func(c, i int) []byte { return s.req[(i*clients+c)%n] },
		check:  func(c, i, status int, body []byte) bool { return ks[c].any((i*clients+c)%n, status, body) },
		warmup: sc.Warmup, window: sc.Window, windows: sc.Windows,
	}
}

// buildStream makes the named serving workload's inputs.
func buildStream(name string, fx *fixture, ref ce.Estimator, sc scale, seed int64) (*stream, error) {
	switch name {
	case "json_scalar":
		return jsonStream(fx, ref, sc, seed), nil
	case "wire_unique":
		return uniqueStream(fx, ref, sc, seed)
	case "wire_zipf", "adapt_drift":
		return zipfStream(fx, ref, sc, seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
