package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"

	"warper/internal/ce"
	"warper/internal/query"
	"warper/internal/wire"
	"warper/internal/workload"
)

// stream is a workload's pre-built request sequence with its oracle.
// Request j carries rows predicates: preds[idx[j*rows+r]] for r < rows, and
// the reference answer of each is want[idx[j*rows+r]]. Clients walk req
// cyclically; nothing here is touched by the server.
type stream struct {
	path  string
	rows  int
	req   [][]byte // complete HTTP requests
	hdr   []int    // req[j][hdr[j]:] is the request body
	idx   []int32
	preds []query.Predicate
	want  []float64
}

func (s *stream) body(j int) []byte { return s.req[j][s.hdr[j]:] }

func (s *stream) add(path, contentType string, body []byte) {
	r := request("POST", path, contentType, body)
	s.req = append(s.req, r)
	s.hdr = append(s.hdr, len(r)-len(body))
}

func appendFloatBits(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// predJSON renders the JSON form of a predicate (optionally with observed
// cardinality, for POST /feedback). Floats use the shortest representation
// that parses back to the same bits, so the server sees exactly p.
func predJSON(b []byte, p query.Predicate, card float64, withCard bool) []byte {
	b = append(b, `{"lows":[`...)
	for i, v := range p.Lows {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = append(b, `],"highs":[`...)
	for i, v := range p.Highs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = append(b, ']')
	if withCard {
		b = append(b, `,"cardinality":`...)
		b = strconv.AppendFloat(b, card, 'g', -1, 64)
	}
	return append(b, '}')
}

const (
	jsonType = "application/json"
	wireType = "application/x-warper-batch"
)

// newStream draws n distinct w4 predicates and their reference answers.
func newStream(fx *fixture, ref ce.Estimator, n, rows int, seed int64) *stream {
	g := workload.New("w4", fx.tbl, fx.sch, genOpts)
	s := &stream{rows: rows}
	s.preds = distinctPreds(g, fx.sch, n, seedFor(seed, rsStream))
	s.want = oracle(ref, s.preds)
	return s
}

// jsonStream is json_scalar's input: one POST /estimate per distinct w4
// predicate.
func jsonStream(fx *fixture, ref ce.Estimator, sc scale, seed int64) *stream {
	s := newStream(fx, ref, sc.Stream, 1, seed)
	s.path = "/estimate"
	var buf []byte
	for j, p := range s.preds {
		buf = predJSON(buf[:0], p, 0, false)
		s.add(s.path, jsonType, buf)
		s.idx = append(s.idx, int32(j))
	}
	return s
}

// frames packs rows-sized groups of idx into binary request frames.
func (s *stream) frames(idx []int32) error {
	s.path = "/estimate/batch"
	s.idx = idx
	batch := make([]query.Predicate, s.rows)
	var buf []byte
	for j := 0; j+s.rows <= len(idx); j += s.rows {
		for r := range batch {
			batch[r] = s.preds[idx[j+r]]
		}
		var err error
		if buf, err = wire.AppendRequest(buf[:0], 0, batch, false); err != nil {
			return err
		}
		s.add(s.path, wireType, buf)
	}
	return nil
}

// uniqueStream is wire_unique's input: the same distinct predicates as
// json_scalar, FrameRows to a frame.
func uniqueStream(fx *fixture, ref ce.Estimator, sc scale, seed int64) (*stream, error) {
	s := newStream(fx, ref, sc.Stream, sc.FrameRows, seed)
	idx := make([]int32, len(s.preds))
	for i := range idx {
		idx[i] = int32(i)
	}
	return s, s.frames(idx)
}

// zipfStream is wire_zipf's (and adapt_drift's background) input: frames
// whose rows are drawn Zipf(1.1) from a few hundred templates, so all but
// the first sight of a template is a cache hit.
func zipfStream(fx *fixture, ref ce.Estimator, sc scale, seed int64) (*stream, error) {
	s := newStream(fx, ref, sc.Templates, sc.FrameRows, seed)
	rng := seedFor(seed, rsZipf)
	z := rand.NewZipf(rng, 1.1, 1, uint64(sc.Templates-1))
	idx := make([]int32, sc.ZipfFrames*sc.FrameRows)
	for i := range idx {
		idx[i] = int32(z.Uint64())
	}
	return s, s.frames(idx)
}
