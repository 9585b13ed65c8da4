// Binary batch serving: the HTTP side of the internal/wire protocol.
//
// POST /estimate/batch answers one columnar request frame. It runs on the
// pooled scratch units every estimate uses (estimate.go) with a wire.Buffer
// attached, so the steady path allocates nothing: decoded predicates view
// the request bytes in place and are normalized there, the cache is probed
// with those bounds as they lie, and the response is encoded over the
// reclaimed request storage.
//
// A batch is served by looping the estimate pipeline over wireGroupRows-row
// groups, so the serving semantics are the JSON path's, group by group. A
// shed anywhere sheds the whole request — a binary batch is one optimizer
// plan, and a half-answered plan is useless — so 429 covers all rows.
package serve

import (
	"net/http"
	"time"

	"warper/internal/obs"
	"warper/internal/query"
	"warper/internal/wire"
)

const (
	// maxWireRows caps one batch so a forged row count cannot force an
	// unbounded inference or scratch growth.
	maxWireRows = 8192
	// wireGroupRows is the row-group size: the unit at which cache probes,
	// admission control and tracer stages apply. One group's misses become
	// one replica checkout — large enough to amortize it, small enough
	// that a mid-batch model swap is visible within a batch.
	wireGroupRows = 256
	// maxWireBody caps a request frame, like maxPeriodBody for JSON bodies.
	maxWireBody = maxPeriodBody
	// wireContentType is the media type the binary endpoint speaks.
	wireContentType = "application/x-warper-batch"
)

// wireScratch is getScratch for the binary entry points: the frame buffer
// is attached on a scratch's first binary request and recycled with it.
func (s *Server) wireScratch() *scratch {
	sc := s.getScratch()
	if sc.buf == nil {
		sc.buf = wire.NewBuffer()
	}
	return sc
}

// decodeWire parses the frame in sc.buf against the serving schema and
// normalizes the frame's lows and highs blocks in place, in one pass — the
// decoded predicates view them, so they come out normalized. The decoder
// has already proven every bound finite — normalize after the check, never
// before, because normalization clamps ±Inf (masking it) and lets NaN
// through.
func (s *Server) decodeWire(sc *scratch) error {
	if err := sc.buf.DecodeBatch(s.sch.NumCols(), maxWireRows); err != nil {
		return err
	}
	query.NormalizeBounds(s.sch, sc.buf.Req.Lows, sc.buf.Req.Highs)
	return nil
}

// handleEstimateBatch answers one request frame: decode, serve group by
// group, encode the response over the reclaimed request buffer.
func (s *Server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	tr := s.rec.tracer.Acquire("estimate_batch")
	defer s.rec.tracer.Finish(tr)
	tr.EnterStage("decode")
	budget, err := s.estimateBudget(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sc := s.wireScratch()
	defer s.putScratch(sc)
	r.Body = http.MaxBytesReader(w, r.Body, maxWireBody) //lint:allow hotpathalloc HTTP decode boundary; one body-cap wrapper per request, same codec layer as the JSON path
	if err := sc.buf.ReadAll(r.Body); err != nil {
		s.met.wireDecodeErrors.Inc()
		httpError(w, decodeErrorCode(err), "read: %v", err)
		return
	}
	if err := s.decodeWire(sc); err != nil {
		s.met.wireDecodeErrors.Inc()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	gen, out := s.serveWireBatch(sc, deadlineIn(budget), tr)
	if out.Shed {
		writeShed(w, out.Reason)
		return
	}
	tr.EnterStage("respond")
	s.encodeWire(sc, gen, out)
	w.Header().Set("Content-Type", wireContentType)
	_, _ = w.Write(sc.buf.Out)
}

// encodeWire encodes the served batch in sc as a response frame and charges
// the per-batch wire metrics.
func (s *Server) encodeWire(sc *scratch, gen uint64, out EstimateOutcome) {
	var flags uint16
	if out.Degraded {
		flags |= wire.FlagDegraded
	}
	sc.buf.EncodeResponse(gen, flags, sc.cards, false)
	s.met.wireBatches.Inc()
	s.met.wireRows.Add(int64(len(sc.cards)))
	s.met.wireBatchRows.Observe(float64(len(sc.cards)))
}

// EstimateBatchWire answers one binary request frame in-process under
// admission control — the deadline bounds the wait for a replica — exported
// for embedding Warper without HTTP and for the serving benchmark: this is
// the surface the zero-allocation assert runs against. The encoded response
// frame is appended to dst (reuse a sized dst to stay allocation-free). The
// error is a decode sentinel from internal/wire, or the shed outcome.
func (s *Server) EstimateBatchWire(dst []byte, frame []byte, deadline time.Time) ([]byte, error) {
	sc := s.wireScratch()
	defer s.putScratch(sc)
	//lint:allow hotpathalloc grow-once frame copy; the pooled buffer keeps its high-water capacity
	sc.buf.In = append(sc.buf.In[:0], frame...)
	if err := s.decodeWire(sc); err != nil {
		s.met.wireDecodeErrors.Inc()
		return dst, err
	}
	gen, out := s.serveWireBatch(sc, deadline, nil)
	if out.Shed {
		return dst, errShed
	}
	s.encodeWire(sc, gen, out)
	//lint:allow hotpathalloc caller-owned dst grows once to its high-water capacity
	return append(dst, sc.buf.Out...), nil
}

// serveWireBatch answers the decoded batch in sc through the estimate
// pipeline, one wireGroupRows-row group at a time, writing the answers into
// sc.cards. It returns the serving generation of the last full-model group
// (0 when every row came from cache or fallback) and the batch's outcome:
// the first degraded group's when any group was degraded, or the shed that
// refused a group — all-or-nothing, per the package comment. The health
// state is re-read per group, so a transition mid-batch applies from the
// next group on.
func (s *Server) serveWireBatch(sc *scratch, deadline time.Time, tr *obs.Trace) (uint64, EstimateOutcome) {
	preds := sc.buf.Req.Preds
	sc.size(len(preds))
	var gen uint64
	var batch EstimateOutcome
	for base := 0; base < len(preds); base += wireGroupRows {
		end := min(base+wireGroupRows, len(preds))
		g, out := s.estimateGroup(sc, preds[base:end], sc.cards[base:end], s.health.current(), deadline, tr)
		if out.Shed {
			return 0, out
		}
		if g != 0 {
			gen = g
		}
		if out.Degraded && !batch.Degraded {
			batch = out
		}
	}
	return gen, batch
}
