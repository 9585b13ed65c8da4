package serve

import (
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warper/internal/ce"
	"warper/internal/query"
	"warper/internal/wire"
)

// constEst is a trivially correct estimator whose answer is a fixed value:
// swapping constEst{v: n} where n tracks the pool generation turns the
// cached cardinality itself into a generation witness — a cache hit showing
// a value other than the current generation's constant is a stale-serve bug.
type constEst struct{ v float64 }

func (c *constEst) Train([]query.Labeled) error  { return nil }
func (c *constEst) Update([]query.Labeled) error { return nil }
func (c *constEst) Estimate(query.Predicate) float64 {
	return c.v
}
func (c *constEst) Policy() ce.UpdatePolicy { return ce.FineTune }
func (c *constEst) Clone() ce.Estimator     { return &constEst{v: c.v} }
func (c *constEst) Name() string            { return "const" }

// cacheKey builds a predicate with a distinct keyLen-word key from a seed
// value.
func cacheKey(keyLen int, seed float64) query.Predicate {
	k := make([]float64, keyLen)
	for i := range k {
		k[i] = seed + float64(i)/16
	}
	return query.Predicate{Lows: k[:keyLen/2], Highs: k[keyLen/2:]}
}

func TestEstimateCachePutGet(t *testing.T) {
	c := newEstimateCache(4, 2, 64, NewMetrics())
	key := cacheKey(4, 0.5)
	h := cacheHash(key)
	gen := uint64(1)

	if _, ok := c.get(key, h, gen); ok {
		t.Fatal("hit on an empty cache")
	}
	c.put(key, h, gen, 42)
	card, ok := c.get(key, h, gen)
	if !ok || card != 42 {
		t.Fatalf("get = %v, %v; want 42, true", card, ok)
	}
	if n := int64(c.met.cacheEntries.Value()); n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}

	// A different generation must miss: the swap's atomic bump is the
	// wholesale invalidation.
	if _, ok := c.get(key, h, gen+1); ok {
		t.Error("hit across a generation bump")
	}

	// Same-key insert refreshes in place: no new slot, new value.
	c.put(key, h, gen+1, 43)
	if card, ok := c.get(key, h, gen+1); !ok || card != 43 {
		t.Fatalf("refreshed get = %v, %v; want 43, true", card, ok)
	}
	if n := int64(c.met.cacheEntries.Value()); n != 1 {
		t.Fatalf("entries after same-key refresh = %d, want 1", n)
	}
}

func TestEstimateCacheEviction(t *testing.T) {
	met := NewMetrics()
	// One shard of exactly cacheWays slots: every probe group covers the
	// whole shard, so the (cacheWays+1)th live same-generation key finds its
	// group full.
	c := newEstimateCache(4, 1, cacheWays, met)
	keys := make([]query.Predicate, cacheWays+1)
	for i := range keys {
		keys[i] = cacheKey(4, float64(i)+0.25)
	}
	for i, k := range keys[:cacheWays] {
		c.put(k, cacheHash(k), 1, float64(i))
	}
	resident := func(i int) bool {
		card, ok := c.get(keys[i], cacheHash(keys[i]), 1)
		return ok && card == float64(i)
	}

	// A first sighting into the full group is declined: nothing is stored,
	// nothing evicted, and the group keeps every entry.
	last := keys[cacheWays]
	c.put(last, cacheHash(last), 1, float64(cacheWays))
	if ev, d := met.cacheEvictions.Value(), c.declined.Load(); ev != 0 || d != 1 {
		t.Errorf("first sighting into a full group: %d evictions, %d declined; want 0 and 1", ev, d)
	}
	for i := range keys[:cacheWays] {
		if !resident(i) {
			t.Errorf("key %d lost to a declined insert", i)
		}
	}
	if resident(cacheWays) {
		t.Error("a declined insert is resident")
	}

	// The second sighting evicts, and the newest insert is resident
	// (second-chance always finds a victim for it).
	c.put(last, cacheHash(last), 1, float64(cacheWays))
	if ev := met.cacheEvictions.Value(); ev != 1 {
		t.Errorf("second sighting into a full group: %d evictions, want 1", ev)
	}
	if n := int64(c.met.cacheEntries.Value()); n > int64(cacheWays) {
		t.Errorf("entries = %d beyond capacity %d", n, cacheWays)
	}
	if !resident(cacheWays) {
		t.Error("newest insert not resident after its second sighting")
	}

	// Stale (old-generation) entries are preferred victims: inserting at a
	// new generation reclaims them without charging an eviction and without
	// asking the doorkeeper.
	before, declined := met.cacheEvictions.Value(), c.declined.Load()
	k := cacheKey(4, 99.5)
	c.put(k, cacheHash(k), 2, 7)
	if got := met.cacheEvictions.Value(); got != before {
		t.Errorf("evictions %d -> %d; overwriting a stale generation should be free", before, got)
	}
	if got := c.declined.Load(); got != declined {
		t.Errorf("declined %d -> %d; a stale slot takes a first sighting", declined, got)
	}
	if card, ok := c.get(k, cacheHash(k), 2); !ok || card != 7 {
		t.Errorf("first sighting into a stale slot not resident: get = %v, %v", card, ok)
	}
}

// TestEstimateCacheProbation pins the probation window: at its end an entry
// that was not hit during it is retired and its slot taken by the next
// insert, while one that was hit stays and starts a new window — which it
// must earn again.
func TestEstimateCacheProbation(t *testing.T) {
	met := NewMetrics()
	// One shard of cacheWays slots, one probe group: a window is
	// probation·cacheWays inserts.
	const window = probation * cacheWays
	c := newEstimateCache(4, 1, cacheWays, met)
	keys := make([]query.Predicate, cacheWays)
	for i := range keys {
		keys[i] = cacheKey(4, float64(i)+0.25)
		c.put(keys[i], cacheHash(keys[i]), 1, float64(i))
	}
	resident := func(k query.Predicate) bool {
		_, ok := c.get(k, cacheHash(k), 1)
		return ok
	}
	if !resident(keys[0]) {
		t.Fatal("key 0 not resident")
	}
	// First sightings, one window and a group's worth: declined until the
	// windows end, then they take the retired slots.
	next := 100.25
	sight := func(n int) {
		for ; n > 0; n-- {
			k := cacheKey(4, next)
			next++
			c.put(k, cacheHash(k), 1, 0)
		}
	}
	sight(window + cacheWays)
	if ev, d := met.cacheEvictions.Value(), c.declined.Load(); ev != cacheWays-1 || d == 0 {
		t.Errorf("%d evictions, %d declined; want the %d unhit entries retired after some declines", ev, d, cacheWays-1)
	}
	for _, k := range keys[1:] {
		if resident(k) {
			t.Error("an entry never hit outlived its probation window")
		}
	}
	if !resident(keys[0]) { // a hit in its new window
		t.Fatal("the entry hit during its window was retired")
	}
	// It starts one more window at the end of this one, and that window
	// passes without a hit: it is retired too.
	sight(2*window + cacheWays)
	if resident(keys[0]) {
		t.Error("an entry not hit during its second window outlived it")
	}
}

// TestEstimateCacheScanKeepsHotSet pins the scan resistance admission buys:
// one pass of fresh predicates, sixteen times the capacity, through a full
// cache leaves a hot set resident as long as it keeps being asked for (once
// per capacity of the scan, well inside a probation window). First
// sightings take only the slots of entries retired unhit, at most one per
// slot per probation window, and a second sighting still evicts.
func TestEstimateCacheScanKeepsHotSet(t *testing.T) {
	const keyLen = 6
	met := NewMetrics()
	c := newEstimateCache(keyLen, cacheShards, 1024, met)
	// Warm the hot set: a quarter of the capacity, keeping the keys that
	// found room (a crowded probe group declines a first sighting even
	// while the cache has room elsewhere).
	var hot []query.Predicate
	for i := 0; len(hot) < c.capacity/4; i++ {
		k := cacheKey(keyLen, float64(i)+0.5)
		c.put(k, cacheHash(k), 1, float64(i))
		if _, ok := c.get(k, cacheHash(k), 1); ok {
			hot = append(hot, k)
		}
	}
	lost := func() int {
		n := 0
		for _, k := range hot {
			if _, ok := c.get(k, cacheHash(k), 1); !ok {
				n++
			}
		}
		return n
	}

	scan := 16 * c.capacity
	for base := 0; base < scan; base += wireGroupRows {
		preds, hashes, miss, cards := fillGroup(keyLen, wireGroupRows, wireGroupRows, 1e6+float64(base))
		c.putMisses(preds, hashes, miss, 1, cards)
		if (base+wireGroupRows)%c.capacity == 0 {
			if n := lost(); n != 0 {
				t.Fatalf("after %d scanned predicates %d of %d hot keys are gone", base+wireGroupRows, n, len(hot))
			}
		}
	}
	if ev, bound := met.cacheEvictions.Value(), int64(scan/probation); ev > bound {
		t.Errorf("the scan of %d first sightings evicted %d entries, want at most %d (one per slot per window)", scan, ev, bound)
	}
	if n := int64(met.cacheEntries.Value()); n != int64(c.capacity) {
		t.Errorf("entries = %d after the scan, want a full cache of %d", n, c.capacity)
	}

	// A predicate declined on its first sighting is admitted on its
	// second, evicting an entry in its window.
	for i := 0; ; i++ {
		k := cacheKey(keyLen, -7.5-float64(i))
		declined := c.declined.Load()
		c.put(k, cacheHash(k), 1, 3)
		if c.declined.Load() == declined {
			continue // its group had a slot to give; try another
		}
		evictions := met.cacheEvictions.Value()
		c.put(k, cacheHash(k), 1, 3)
		if ev := met.cacheEvictions.Value() - evictions; ev != 1 {
			t.Errorf("second sighting: %d evictions, want 1", ev)
		}
		if card, ok := c.get(k, cacheHash(k), 1); !ok || card != 3 {
			t.Errorf("second-sighted key not resident: get = %v, %v", card, ok)
		}
		break
	}
}

// TestEstimateCacheSizing pins the sizing of operator-supplied capacity:
// the constructor rounds up to a power of two per shard, defaults zero and
// negative requests, and clamps anything past maxCacheEntries instead of
// failing the allocation (or, past 2^62, never returning from nextPow2).
func TestEstimateCacheSizing(t *testing.T) {
	for _, tc := range []struct{ entries, want int }{
		{-1, defaultCacheEntries},
		{0, defaultCacheEntries},
		{1, cacheShards * cacheWays},
		{4096, 4096},
		{4097, 8192},
		{maxCacheEntries + 1, maxCacheEntries},
		{math.MaxInt / 2, maxCacheEntries},
		{math.MaxInt, maxCacheEntries},
	} {
		// keyLen 1 keeps the largest case at a few hundred MB.
		if got := newEstimateCache(1, cacheShards, tc.entries, NewMetrics()).capacity; got != tc.want {
			t.Errorf("entries %d: capacity %d, want %d", tc.entries, got, tc.want)
		}
	}
	const maxPow2 = 1 << (bits.UintSize - 2) // the largest power of two an int holds
	for _, tc := range []struct{ n, want int }{
		{math.MinInt, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {1 << 20, 1 << 20}, {1<<20 + 1, 1 << 21},
		{maxPow2, maxPow2}, {maxPow2 + 1, maxPow2}, {math.MaxInt, maxPow2},
	} {
		if got := nextPow2(tc.n); got != tc.want {
			t.Errorf("nextPow2(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestEstimateCacheHitByteIdentity(t *testing.T) {
	srv, _, sch, _, gNew := newTestServerOpts(t, Options{})
	rng := rand.New(rand.NewSource(7))
	ref := srv.Estimator().Clone()

	preds := make([]query.Predicate, 32)
	for i := range preds {
		preds[i] = gNew.Gen(rng).Normalize(sch)
	}
	// First pass populates, second pass must hit — and both must be
	// byte-identical to an uncached reference clone.
	for pass := 0; pass < 2; pass++ {
		for _, p := range preds {
			got, want := srv.Estimate(p), ref.Estimate(p)
			if got != want {
				t.Fatalf("pass %d: estimate = %v, want %v", pass, got, want)
			}
		}
	}
	hits, misses := srv.met.cacheHits.Value(), srv.met.cacheMisses.Value()
	if misses != int64(len(preds)) {
		t.Errorf("misses = %d, want %d", misses, len(preds))
	}
	if hits != int64(len(preds)) {
		t.Errorf("hits = %d, want %d", hits, len(preds))
	}
	if n := srv.met.cacheEntries; n.Value() != float64(len(preds)) {
		t.Errorf("estimate_cache_entries = %v, want %d", n.Value(), len(preds))
	}
}

// TestEstimateCacheKeyIsNormalizedBounds pins what the cache key is: the
// normalized predicate's bounds, bit for bit — not its feature vector, and
// not the bounds as the client sent them.
func TestEstimateCacheKeyIsNormalizedBounds(t *testing.T) {
	srv, ts, sch, _, gNew := newTestServerOpts(t, Options{})
	rng := rand.New(rand.NewSource(41))

	// -0 and +0 inside a column that spans zero are different bounds with
	// one feature vector: two entries, and the model's answer is the same
	// for both, bit for bit.
	c := -1
	for i := range sch.Mins {
		if sch.Mins[i] < 0 && sch.Maxs[i] > 0 {
			c = i
			break
		}
	}
	if c < 0 {
		t.Fatalf("no schema column spans zero: %v..%v", sch.Mins, sch.Maxs)
	}
	neg := gNew.Gen(rng).Normalize(sch)
	neg.SetRange(c, math.Copysign(0, -1), 0)
	pos := neg.Clone()
	pos.SetRange(c, 0, 0)
	fNeg, fPos := neg.Featurize(sch), pos.Featurize(sch)
	for i := range fNeg {
		if math.Float64bits(fNeg[i]) != math.Float64bits(fPos[i]) {
			t.Fatalf("feature %d differs: %v vs %v", i, fNeg[i], fPos[i])
		}
	}
	a, b := srv.Estimate(neg), srv.Estimate(pos)
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("equal feature vectors answered %v and %v", a, b)
	}
	if n := int64(srv.met.cacheEntries.Value()); n != 2 {
		t.Errorf("entries = %d, want 2 (one per normalized bounds)", n)
	}
	if hits := srv.met.cacheHits.Value(); hits != 0 {
		t.Errorf("hits = %d, want 0: -0 and +0 bounds shared an entry", hits)
	}

	// Two raw predicates that normalize to the same bounds share one entry,
	// whichever door they come through: an inverted column and an
	// out-of-range column over JSON, the same column pushed out of range by
	// another amount over the wire.
	norm := gNew.Gen(rng).Normalize(sch)
	lo, hi := norm.Lows[0], norm.Highs[0]
	if lo == hi {
		t.Fatalf("column 0 is a point [%v, %v]; pick another seed", lo, hi)
	}
	norm.SetRange(1, sch.Mins[1], sch.Maxs[1])
	viaJSON, viaWire := norm.Clone(), norm.Clone()
	viaJSON.SetRange(0, hi, lo)
	viaJSON.SetRange(1, sch.Mins[1]-100, sch.Maxs[1]+100)
	viaWire.SetRange(1, sch.Mins[1]-7, sch.Maxs[1]+7)
	var er estimateResponse
	if r := postJSON(t, ts.URL+"/estimate", predicateJSON{Lows: viaJSON.Lows, Highs: viaJSON.Highs}, &er); r.StatusCode != http.StatusOK {
		t.Fatalf("POST /estimate: status %d", r.StatusCode)
	}
	entries, hits := int64(srv.met.cacheEntries.Value()), srv.met.cacheHits.Value()
	frame, err := wire.AppendRequest(nil, 0, []query.Predicate{viaWire}, false)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.EstimateBatchWire(nil, frame, time.Time{})
	if err != nil {
		t.Fatalf("EstimateBatchWire: %v", err)
	}
	_, cards, err := wire.DecodeResponse(resp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cards) != 1 || math.Float64bits(cards[0]) != math.Float64bits(er.Cardinality) {
		t.Errorf("wire answered %v, JSON %v", cards, er.Cardinality)
	}
	if got := srv.met.cacheHits.Value() - hits; got != 1 {
		t.Errorf("the wire row hit %d times, want 1", got)
	}
	if got := int64(srv.met.cacheEntries.Value()); got != entries {
		t.Errorf("entries %d -> %d: the wire row did not share the JSON row's entry", entries, got)
	}
	if want := srv.Estimator().Clone().Estimate(norm); math.Float64bits(er.Cardinality) != math.Float64bits(want) {
		t.Errorf("shared entry = %v, model = %v", er.Cardinality, want)
	}
}

func TestEstimateCacheSwapInvalidates(t *testing.T) {
	srv, _, sch, _, gNew := newTestServerOpts(t, Options{})
	p := gNew.Gen(rand.New(rand.NewSource(3))).Normalize(sch)

	srv.pool.swap(&constEst{v: 111})
	if got := srv.Estimate(p); got != 111 {
		t.Fatalf("estimate = %v, want 111", got)
	}
	if got := srv.Estimate(p); got != 111 {
		t.Fatalf("cached estimate = %v, want 111", got)
	}
	if srv.met.cacheHits.Value() == 0 {
		t.Fatal("second estimate did not hit the cache")
	}

	// Swap a model with a different answer: the very next estimate must see
	// the new model, never the cached old answer.
	srv.pool.swap(&constEst{v: 222})
	if got := srv.Estimate(p); got != 222 {
		t.Fatalf("post-swap estimate = %v, want 222 (stale cache served)", got)
	}
}

func TestEstimateCacheGenerationStamp(t *testing.T) {
	// The cached value doubles as a generation witness: after each swap the
	// model's constant equals the new pool generation, so any hit whose value
	// differs from the current generation is a cross-generation leak.
	srv, _, sch, _, gNew := newTestServerOpts(t, Options{})
	rng := rand.New(rand.NewSource(5))
	preds := make([]query.Predicate, 8)
	for i := range preds {
		preds[i] = gNew.Gen(rng).Normalize(sch)
	}
	for swap := 0; swap < 10; swap++ {
		gen := srv.pool.generation() + 1
		srv.pool.swap(&constEst{v: float64(gen)})
		if got := srv.pool.generation(); got != gen {
			t.Fatalf("generation = %d, want %d", got, gen)
		}
		for _, p := range preds {
			for rep := 0; rep < 2; rep++ { // miss+fill, then hit
				if got := srv.Estimate(p); got != float64(gen) {
					t.Fatalf("gen %d rep %d: estimate = %v (stale generation served)", gen, rep, got)
				}
			}
		}
	}
}

func TestEstimateCacheNeverCachesDegraded(t *testing.T) {
	srv, _, sch, _, gNew := newTestServerOpts(t, Options{
		Replicas: 1,
	})
	p := gNew.Gen(rand.New(rand.NewSource(9))).Normalize(sch)
	want := srv.Estimator().Clone().Estimate(p)

	// Hold the only replica: a budgeted estimate must fall back — and the
	// degraded answer must not be inserted.
	r, _, _ := srv.pool.checkout(true, time.Time{})
	card, out := srv.estimateOne(p, srv.health.current(), time.Now().Add(time.Millisecond), nil)
	if !out.Degraded {
		t.Fatalf("outcome = %+v, want degraded", out)
	}
	if card == want {
		t.Fatalf("fallback answer equals model answer; test cannot distinguish them")
	}
	srv.pool.checkin(r)

	// The degraded answer must be gone: the next estimate misses again and
	// returns the full-model answer.
	card, out = srv.estimateOne(p, srv.health.current(), time.Time{}, nil)
	if out.Degraded || out.Shed {
		t.Fatalf("outcome = %+v, want full", out)
	}
	if card != want {
		t.Fatalf("post-recovery estimate = %v, want %v (degraded answer was cached)", card, want)
	}
	if hits := srv.met.cacheHits.Value(); hits != 0 {
		t.Errorf("hits = %d, want 0", hits)
	}
	if misses := srv.met.cacheMisses.Value(); misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
	}
	// Now it is cached — a full-model answer.
	if card = srv.Estimate(p); card != want {
		t.Fatalf("cached estimate = %v, want %v", card, want)
	}
	if hits := srv.met.cacheHits.Value(); hits != 1 {
		t.Errorf("hits after full answer = %d, want 1", hits)
	}
}

func TestEstimateCacheNeverCachesShed(t *testing.T) {
	srv, _, sch, _, gNew := newTestServerOpts(t, Options{
		Replicas: 1,
	})
	p := gNew.Gen(rand.New(rand.NewSource(11))).Normalize(sch)
	want := srv.Estimator().Clone().Estimate(p)

	// Shedding with the only replica held: the miss is refused.
	srv.health.state.Store(int32(Shedding))
	r, _, _ := srv.pool.checkout(true, time.Time{})
	_, out := srv.estimateOne(p, srv.health.current(), time.Now().Add(time.Millisecond), nil)
	if !out.Shed {
		t.Fatalf("outcome = %+v, want shed", out)
	}
	srv.pool.checkin(r)
	srv.health.state.Store(int32(Healthy))

	card, out := srv.estimateOne(p, srv.health.current(), time.Time{}, nil)
	if out.Shed || out.Degraded {
		t.Fatalf("outcome = %+v, want full", out)
	}
	if card != want {
		t.Fatalf("post-shed estimate = %v, want %v", card, want)
	}
	if hits := srv.met.cacheHits.Value(); hits != 0 {
		t.Errorf("hits = %d, want 0 (shed outcome was cached)", hits)
	}
}

// TestFeedbackCoherenceAndFlushOnAlarm: feedback re-estimates through the
// cache without swallowing the accuracy signal, and the drift alarm leaves
// the cache alone. A cached answer is the served model's own, bit for bit,
// so it keeps answering after the alarm — even on a degraded server with no
// replica free, where a miss would have been a fallback answer.
func TestFeedbackCoherenceAndFlushOnAlarm(t *testing.T) {
	srv, ts, sch, _, gNew := newTestServerOpts(t, Options{
		CacheFlushOnAlarm: true, // deprecated no-op: must not flush
		Replicas:          1,
		DriftWindow:       time.Minute,
		DriftAlarmGMQ:     4,
	})
	p := gNew.Gen(rand.New(rand.NewSource(13))).Normalize(sch)

	// Warm the cache, then post ground-truth feedback wildly off the
	// estimate. The feedback path re-estimates (hitting the cache) and its
	// q-error must still reach the drift watch — a cache that swallowed the
	// accuracy signal would never alarm.
	est := srv.Estimate(p)
	hitsBefore := srv.met.cacheHits.Value()
	missesBefore := srv.met.cacheMisses.Value()
	gt := est * 1e6
	// The drift watch refuses to alarm below its windowed observation floor
	// (default 20): post until it raises and no further, so the estimates
	// below are the first ones after the alarm.
	for i := 0; srv.met.driftAlarm.Value() == 0; i++ {
		if i == 25 {
			t.Fatal("no drift alarm after 25 feedbacks far off the estimate")
		}
		var fr feedbackResponse
		r := postJSON(t, ts.URL+"/feedback", map[string]any{
			"lows": p.Lows, "highs": p.Highs, "cardinality": gt,
		}, &fr)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("feedback %d: status %d", i, r.StatusCode)
		}
	}
	if hits := srv.met.cacheHits.Value(); hits <= hitsBefore {
		t.Errorf("feedback estimates bypassed the cache: hits %d -> %d", hitsBefore, hits)
	}

	// Degraded, with the only replica held: a miss would be answered by the
	// fallback ladder, the warmed predicate is still the model's answer.
	srv.health.state.Store(int32(Degraded))
	r, _, _ := srv.pool.checkout(true, time.Time{})
	card, out := srv.estimateOne(p, srv.health.current(), time.Time{}, nil)
	srv.pool.checkin(r)
	srv.health.state.Store(int32(Healthy))
	if card != est || out != (EstimateOutcome{}) {
		t.Errorf("degraded, replica held: estimate %v %+v, want the cached model answer %v with a zero outcome", card, out, est)
	}
	if got := srv.Estimate(p); got != est {
		t.Fatalf("post-alarm estimate = %v, want %v", got, est)
	}
	if misses := srv.met.cacheMisses.Value(); misses != missesBefore {
		t.Errorf("the drift alarm evicted the warmed predicate: misses %d -> %d", missesBefore, misses)
	}
	if inv := srv.met.cacheInvalidations.Value(); inv != 0 {
		t.Errorf("estimate_cache_invalidations_total = %d with no model swap", inv)
	}
}

func TestEstimateCacheSwapUnderLoad(t *testing.T) {
	// Swap-under-load soak: readers continuously estimate a fixed predicate
	// set while the main goroutine swaps estimate-identical clones. Every
	// answer must stay byte-identical throughout — under -race this also
	// proves the seqlock publication is clean.
	srv, _, sch, _, gNew := newTestServerOpts(t, Options{
		CacheEntries: 256, // small: force eviction churn under the soak
	})
	rng := rand.New(rand.NewSource(17))
	preds := make([]query.Predicate, 64)
	want := make([]float64, len(preds))
	ref := srv.Estimator().Clone()
	for i := range preds {
		preds[i] = gNew.Gen(rng).Normalize(sch)
		want[i] = ref.Estimate(preds[i])
	}

	var stop atomic.Bool
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				i := r.Intn(len(preds))
				if srv.Estimate(preds[i]) != want[i] {
					wrong.Add(1)
					return
				}
			}
		}(int64(w + 100))
	}
	src := srv.Estimator()
	for i := 0; i < 50; i++ {
		srv.pool.swap(src.Clone())
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d estimates diverged from the reference during swaps", n)
	}
	if srv.met.cacheHits.Value() == 0 {
		t.Error("soak never hit the cache")
	}
}

// TestStatusShowsCache checks the estimate cache on /status: one entry, in
// a cache of the default capacity, after the same predicate twice.
func TestStatusShowsCache(t *testing.T) {
	srv, ts, sch, _, gNew := newTestServerOpts(t, Options{})
	p := gNew.Gen(rand.New(rand.NewSource(19))).Normalize(sch)
	srv.Estimate(p)
	srv.Estimate(p)
	if c := getStatus(t, ts.URL).Cache; c.Entries != 1 || c.Capacity != srv.cache.capacity {
		t.Fatalf("/status cache = %+v, want 1 entry of %d", c, srv.cache.capacity)
	}
}

// TestZeroOptionsServeCacheAndBatch pins the one served configuration: a
// server built from the zero Options mounts POST /estimate/batch, and a
// repeated predicate is answered from the estimate cache, bit for bit.
func TestZeroOptionsServeCacheAndBatch(t *testing.T) {
	ad, sch, _, gNew := newTestAdapter(t, 61, nil)
	ts := httptest.NewServer(NewWithOptions(ad, sch, Options{}).Handler())
	defer ts.Close()
	frame, err := wire.AppendRequest(nil, 0, []query.Predicate{gNew.Gen(rand.New(rand.NewSource(19)))}, false)
	if err != nil {
		t.Fatal(err)
	}
	var cards [2]float64
	for i := range cards {
		_, got, code := postWire(t, ts.URL+"/estimate/batch", frame)
		if code != http.StatusOK || len(got) != 1 {
			t.Fatalf("POST /estimate/batch = %d with %d cards, want 200 with 1", code, len(got))
		}
		cards[i] = got[0]
	}
	if math.Float64bits(cards[0]) != math.Float64bits(cards[1]) {
		t.Errorf("repeated predicate answered %v, then %v", cards[0], cards[1])
	}
	_, body := getBody(t, ts.URL+"/metrics")
	if hits := metricValue(t, string(body), "estimate_cache_hits_total"); hits != 1 {
		t.Errorf("estimate_cache_hits_total = %v after a repeated predicate, want 1", hits)
	}
}
