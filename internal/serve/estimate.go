package serve

import (
	"time"

	"warper/internal/ce"
	"warper/internal/obs"
	"warper/internal/query"
	"warper/internal/wire"
)

// This file is the estimate pipeline — the only one. Every entry point is a
// caller of estimateGroup: Estimate, POST /estimate and the /feedback
// q-error probe send a group of one (estimateOne); the binary batch
// endpoints loop it over wireGroupRows-row groups (serveWireBatch).
// One group goes through four stages:
//
//	probe   hash + probe every row's normalized bounds
//	admit   the health state picks the admission rule, the deadline budgets
//	        the replica wait, the fallback ladder answers what the model
//	        cannot — the only place a request is degraded or shed
//	infer   one checked-out replica answers the packed misses
//	fill    scatter the answers and insert the full-model ones
//
// Two invariants keep the cache honest; each holds because of the stage
// order above and is stated where it is enforced:
//
//  1. entries are stamped with the generation of the replica that computed
//     them, never the one current at insert time (runOn's return value),
//  2. generation 0 — fallback and shed outcomes — is never inserted
//     (estimateGroup's fill).

// Fallback and shed reasons, exported on the estimate_fallback_total and
// estimate_shed_total counters and in degraded response bodies.
const (
	reasonTimeout   = "timeout"    // checkout missed the deadline budget
	reasonDegraded  = "degraded"   // degraded health, no replica free
	reasonQueueFull = "queue_full" // bounded admission queue overflowed
	reasonShedding  = "shedding"   // shedding health, no replica free
)

// EstimateOutcome reports how an estimate was (or was not) served: fully
// (zero value), from the fallback ladder (Degraded), or refused (Shed).
type EstimateOutcome struct {
	Degraded bool
	Shed     bool
	Reason   string
}

// scratchPoolSize bounds the scratch free list; concurrent requests beyond
// it allocate transient units (counted on wire_buffer_misses_total) that
// the full list lets die.
const scratchPoolSize = 64

// scratch is one pooled request unit: every slab a request needs between
// decode and respond. Single-owner between getScratch and putScratch;
// slabs grow to their high-water mark once and stay.
type scratch struct {
	// buf is the binary frame buffer, attached by the scratch's first binary
	// request (wireScratch) so scalar-only servers never pay its 64 KiB.
	buf *wire.Buffer
	// body holds a JSON request body, then the response; bounds holds a
	// recognised body's lows and highs (jsonbody.go).
	body   []byte
	bounds []float64
	// one is the group a scalar request sends through the pipeline.
	one [1]query.Predicate
	// cards holds the whole request's answers (the binary response payload).
	cards []float64
	// hashes holds one row group's cache-key hashes.
	hashes []uint64
	// missIdx/missPreds/missOuts gather a group's cache misses into the
	// packed batch one replica checkout answers.
	missIdx   []int
	missPreds []query.Predicate
	missOuts  []float64
}

// getScratch checks a scratch out of the server-wide free list, allocating
// a fresh one (counted) when the list is empty.
func (s *Server) getScratch() *scratch {
	select {
	case sc := <-s.scratch:
		return sc
	default:
		s.met.wireBufMisses.Inc()
		//lint:allow hotpathalloc free-list miss: a fresh scratch allocates once and is recycled by putScratch forever after
		return &scratch{}
	}
}

// putScratch returns a scratch to the free list, dropping it when the list
// is already full.
func (s *Server) putScratch(sc *scratch) {
	select {
	case s.scratch <- sc:
	default:
	}
}

// size prepares the scratch for one request of `rows` predicates: cards is
// cut to rows, and the group slabs are grown for min(rows, wireGroupRows)
// rows.
//
//lint:allow hotpathalloc grow-once slabs: bounded by maxWireRows answers and wireGroupRows group rows, kept at high-water capacity for the scratch's pooled lifetime
func (sc *scratch) size(rows int) {
	if cap(sc.cards) < rows {
		sc.cards = make([]float64, rows)
	}
	sc.cards = sc.cards[:rows]
	n := min(rows, wireGroupRows)
	if cap(sc.hashes) >= n {
		return
	}
	sc.hashes = make([]uint64, n)
	sc.missIdx = make([]int, n)
	sc.missPreds = make([]query.Predicate, n)
	sc.missOuts = make([]float64, n)
}

// Estimate answers one predicate on the served model — the in-process
// equivalent of POST /estimate, exported for embedding Warper without HTTP;
// bench/'s ladder times it as the serving core without a codec. It always
// answers from the model and waits for a replica as long as it takes: in
// pipeline terms, a healthy server and no deadline. The predicate must
// already be normalized against the server's schema. Safe for concurrent use.
func (s *Server) Estimate(p query.Predicate) float64 {
	card, _ := s.estimateOne(p, Healthy, time.Time{}, nil)
	return card
}

// estimateOne sends p through the pipeline as a group of one, under
// admission state h: the deadline bounds how long the request may queue for
// a replica (a zero deadline waits forever in healthy state), and the
// outcome says whether the answer is the model's, the fallback ladder's, or
// a shed. With tr == nil the path is identical to before tracing existed —
// nil-receiver stage calls compile to cheap no-ops and nothing allocates.
func (s *Server) estimateOne(p query.Predicate, h HealthState, deadline time.Time, tr *obs.Trace) (float64, EstimateOutcome) {
	sc := s.getScratch()
	defer s.putScratch(sc)
	return s.estimateIn(sc, p, h, deadline, tr)
}

// estimateIn is estimateOne on a scratch the caller holds — POST
// /estimate's, whose slabs hold the decoded bounds p views.
func (s *Server) estimateIn(sc *scratch, p query.Predicate, h HealthState, deadline time.Time, tr *obs.Trace) (float64, EstimateOutcome) {
	sc.size(1)
	sc.one[0] = p
	_, oc := s.estimateGroup(sc, sc.one[:], sc.cards, h, deadline, tr)
	return sc.cards[0], oc
}

// estimateGroup answers one group of predicates into out: probe the cache,
// pack the misses, answer them through admit, scatter the answers back and
// insert the full-model ones. It returns the generation of the replica that
// answered the misses (0 when every row was a hit, or the ladder answered).
// On a shed outcome out is not meaningful.
//
// A cache hit is admission-free — it consumes no replica and no queue slot —
// so hits serve even in degraded and shedding states: an exact model answer
// for ~100 ns is strictly better than a fallback answer or a 429. While the
// state is not healthy an all-hit group still offers a health evaluation,
// as admit does for a group that misses.
func (s *Server) estimateGroup(sc *scratch, group []query.Predicate, out []float64, h HealthState, deadline time.Time, tr *obs.Trace) (uint64, EstimateOutcome) {
	c := s.cache
	tr.EnterStage("cache")
	n := len(group)
	cur := s.pool.generation()
	hashes, miss := sc.hashes[:n], sc.missIdx[:n]
	nm := 0
	for i := range group {
		hashes[i] = cacheHash(group[i])
		if card, ok := c.get(group[i], hashes[i], cur); ok {
			out[i] = card
			continue
		}
		miss[nm] = i
		nm++
	}
	miss = miss[:nm]
	s.met.cacheHits.Add(int64(n - nm))
	s.met.cacheMisses.Add(int64(nm))
	if nm == 0 {
		if h != Healthy {
			// An all-hit group never reaches admit, so it offers the
			// evaluation here: traffic of repeated predicates must be able
			// to walk the machine back to healthy too.
			s.evalHealth(time.Now()) //lint:allow hotpathalloc sanctioned slow branch: only while not healthy, and due() elects one evaluator per evalInterval
		}
		return 0, EstimateOutcome{}
	}
	// A group that missed on every row is already packed.
	mp, mo := group, out
	if nm < n {
		mp, mo = sc.missPreds[:nm], sc.missOuts[:nm]
		for j, i := range miss {
			mp[j] = group[i]
		}
	}
	gen, oc := s.admit(h, deadline, mp, mo, tr)
	if oc.Shed {
		return 0, oc
	}
	if nm < n {
		for j, i := range miss {
			out[i] = mo[j]
		}
	}
	if gen != 0 {
		// Invariant 2: only full-model answers are inserted. Fallback answers
		// come back with generation 0 — a degraded answer served from cache
		// after recovery would be a silent accuracy regression.
		c.putMisses(group, hashes, miss, gen, mo)
	}
	return gen, oc
}

// admit answers one packed group under admission control. It holds the only
// copy of the health switch: h picks the admission rule, the deadline
// budgets the replica wait, and the fallback ladder keeps what the model
// cannot reach answerable. It is also the only place the
// estimate_shed_total / estimate_fallback_total counters move — once per
// group, which for a group of one is once per request. The returned
// generation is the one that computed a full-model answer, or 0 for
// fallback and shed outcomes.
//
// Callers that must always get the model's answer (Estimate, the feedback
// probe) pass Healthy and a zero deadline: the checkout then waits forever
// and no other branch is reachable.
func (s *Server) admit(h HealthState, deadline time.Time, preds []query.Predicate, out []float64, tr *obs.Trace) (uint64, EstimateOutcome) {
	tr.EnterStage("checkout")
	// A healthy server queues the group, budgeted by the deadline. Degraded
	// and shedding admit only what a free replica can absorb right now:
	// letting requests queue is exactly what the server must stop doing.
	r, queued, err := s.pool.checkout(h == Healthy, deadline)
	if queued || h != Healthy {
		// The health machine's clock is the traffic it governs: a group that
		// left the checkout fast path (queued — served, timed out or shed —
		// or refused), or runs under a state that must be able to recover,
		// offers an evaluation. A healthy group served by a free replica
		// skips this.
		s.evalHealth(time.Now()) //lint:allow hotpathalloc sanctioned slow branch: off the fast path only, and due() elects one evaluator per evalInterval
	}
	if err == nil {
		return s.runOn(r, preds, out, tr), EstimateOutcome{}
	}
	var oc EstimateOutcome
	var charged *obs.Counter
	switch {
	case err == errShed:
		oc, charged = EstimateOutcome{Shed: true, Reason: reasonQueueFull}, s.met.shedQueueFull
	case h == Shedding:
		// Everything a free replica cannot absorb is refused, so the queue
		// drains instead of growing.
		oc, charged = EstimateOutcome{Shed: true, Reason: reasonShedding}, s.met.shedShedding
	case h == Degraded:
		oc, charged = EstimateOutcome{Degraded: true, Reason: reasonDegraded}, s.met.fbDegraded
	default:
		oc, charged = EstimateOutcome{Degraded: true, Reason: reasonTimeout}, s.met.fbTimeout
	}
	charged.Inc()
	if oc.Degraded {
		tr.EnterStage("fallback")
		for i := range preds {
			out[i] = s.fb.estimate(preds[i])
		}
	}
	return 0, oc
}

// runOn answers one packed group on a checked-out replica, returning the
// replica's serving generation (invariant 1: the cache stamps its entries
// with the generation that computed them, never the one current at insert
// time). The deferred checkin is the replica-leak guard: even a panicking
// model hands its replica back to the free list (forward scratch is
// overwritten per call, so the replica stays usable) before the panic
// reaches the recover middleware.
//
// Groups of two or more rows take the batched forward pass — the columnar
// decode leaves preds in the contiguous layout EstimateAll's feature matrix
// wants, and nn.InferBatch works in 8-row tiles. A one-row group calls
// Estimate instead, and per the BatchEstimator contract the two are
// bit-identical. Routing one row through the zero-padded tile won the
// micro-benchmark (BenchmarkLMEstimate 4.10 → 3.59 µs) but lost json_scalar
// end to end (request_p95_us +4.1 %, higher in 16 of 18 alternating pairs,
// 2-vCPU AVX-512 guest), so the per-row Forward stays.
func (s *Server) runOn(r *replica, preds []query.Predicate, out []float64, tr *obs.Trace) uint64 {
	defer s.pool.checkin(r)
	if tr != nil {
		tr.BatchSize = len(preds)
		tr.Generation = r.gen
	}
	tr.EnterStage("infer")
	if be, ok := r.model.(ce.BatchEstimator); ok && len(preds) > 1 {
		be.EstimateAll(preds, out)
		return r.gen
	}
	for i := range preds {
		out[i] = r.model.Estimate(preds[i])
	}
	return r.gen
}
