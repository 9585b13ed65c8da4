package serve

import (
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
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
	if n := c.entries(); n != 1 {
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
	if n := c.entries(); n != 1 {
		t.Fatalf("entries after same-key refresh = %d, want 1", n)
	}
}

func TestEstimateCacheEviction(t *testing.T) {
	met := NewMetrics()
	// One shard of exactly cacheWays slots: every probe group covers the
	// whole shard, so cacheWays+1 live same-generation inserts must evict.
	c := newEstimateCache(4, 1, cacheWays, met)
	keys := make([]query.Predicate, cacheWays+1)
	for i := range keys {
		keys[i] = cacheKey(4, float64(i)+0.25)
		c.put(keys[i], cacheHash(keys[i]), 1, float64(i))
	}
	if met.cacheEvictions.Value() == 0 {
		t.Error("no eviction after overfilling a full probe group")
	}
	if n := c.entries(); n > int64(cacheWays) {
		t.Errorf("entries = %d beyond capacity %d", n, cacheWays)
	}
	// The newest insert must be resident (second-chance always finds a
	// victim for it).
	last := keys[cacheWays]
	if card, ok := c.get(last, cacheHash(last), 1); !ok || card != float64(cacheWays) {
		t.Errorf("newest insert not resident: get = %v, %v", card, ok)
	}

	// Stale (old-generation) entries are preferred victims: inserting at a
	// new generation reclaims them without charging an eviction.
	before := met.cacheEvictions.Value()
	k := cacheKey(4, 99.5)
	c.put(k, cacheHash(k), 2, 7)
	if got := met.cacheEvictions.Value(); got != before {
		t.Errorf("evictions %d -> %d; overwriting a stale generation should be free", before, got)
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
		{1 << 40, maxCacheEntries},
		{math.MaxInt, maxCacheEntries},
	} {
		// keyLen 1 keeps the largest case at a few hundred MB.
		if got := newEstimateCache(1, cacheShards, tc.entries, NewMetrics()).capacity; got != tc.want {
			t.Errorf("entries %d: capacity %d, want %d", tc.entries, got, tc.want)
		}
	}
	for _, tc := range []struct{ n, want int }{
		{math.MinInt, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {1 << 20, 1 << 20}, {1<<20 + 1, 1 << 21},
		{1 << 62, 1 << 62}, {1<<62 + 1, 1 << 62}, {math.MaxInt, 1 << 62},
	} {
		if got := nextPow2(tc.n); got != tc.want {
			t.Errorf("nextPow2(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestEstimateCacheHitByteIdentity(t *testing.T) {
	srv, _, sch, _, gNew := newTestServerOpts(t, Options{EstimateCache: true})
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
	srv, ts, sch, _, gNew := newTestServerOpts(t, Options{EstimateCache: true, BinaryProtocol: true})
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
	pos.SetEquals(c, 0)
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
	if n := srv.cache.entries(); n != 2 {
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
	entries, hits := srv.cache.entries(), srv.met.cacheHits.Value()
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
	if got := srv.cache.entries(); got != entries {
		t.Errorf("entries %d -> %d: the wire row did not share the JSON row's entry", entries, got)
	}
	if want := srv.Estimator().Clone().Estimate(norm); math.Float64bits(er.Cardinality) != math.Float64bits(want) {
		t.Errorf("shared entry = %v, model = %v", er.Cardinality, want)
	}
}

func TestEstimateCacheSwapInvalidates(t *testing.T) {
	srv, _, sch, _, gNew := newTestServerOpts(t, Options{EstimateCache: true})
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
	srv, _, sch, _, gNew := newTestServerOpts(t, Options{EstimateCache: true})
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
		EstimateCache: true,
		Replicas:      1,
	})
	p := gNew.Gen(rand.New(rand.NewSource(9))).Normalize(sch)
	want := srv.Estimator().Clone().Estimate(p)

	// Hold the only replica: a budgeted estimate must fall back — and the
	// degraded answer must not be inserted.
	r, _, _ := srv.pool.checkout(true, time.Time{})
	card, out := srv.EstimateBudget(p, time.Now().Add(time.Millisecond))
	if !out.Degraded {
		t.Fatalf("outcome = %+v, want degraded", out)
	}
	if card == want {
		t.Fatalf("fallback answer equals model answer; test cannot distinguish them")
	}
	srv.pool.checkin(r)

	// The degraded answer must be gone: the next estimate misses again and
	// returns the full-model answer.
	card, out = srv.EstimateBudget(p, time.Time{})
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
		EstimateCache: true,
		Replicas:      1,
	})
	p := gNew.Gen(rand.New(rand.NewSource(11))).Normalize(sch)
	want := srv.Estimator().Clone().Estimate(p)

	// Shedding with the only replica held: the miss is refused.
	srv.health.state.Store(int32(Shedding))
	r, _, _ := srv.pool.checkout(true, time.Time{})
	_, out := srv.EstimateBudget(p, time.Now().Add(time.Millisecond))
	if !out.Shed {
		t.Fatalf("outcome = %+v, want shed", out)
	}
	srv.pool.checkin(r)
	srv.health.state.Store(int32(Healthy))

	card, out := srv.EstimateBudget(p, time.Time{})
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
		EstimateCache:     true,
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
	card, out := srv.EstimateBudget(p, time.Time{})
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
		EstimateCache: true,
		CacheEntries:  256, // small: force eviction churn under the soak
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

func TestStatuszShowsCache(t *testing.T) {
	srv, ts, sch, _, gNew := newTestServerOpts(t, Options{EstimateCache: true})
	p := gNew.Gen(rand.New(rand.NewSource(19))).Normalize(sch)
	srv.Estimate(p)
	srv.Estimate(p)

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "Estimate cache") {
		t.Error("/statusz has no Estimate cache section")
	}
}

func TestStatuszCacheDisabled(t *testing.T) {
	_, ts, _, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "Options.EstimateCache is off") {
		t.Error("/statusz cache section missing its disabled hint")
	}
}
