package serve

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"warper/internal/query"
)

// This file implements the drift-aware estimate cache: a sharded,
// allocation-free predicate→cardinality map sitting in front of the replica
// pool. The paper's whole premise (§1, §3.1) is that the served model only
// changes at discrete adaptation-period boundaries — between two swaps the
// model is a pure function of the normalized predicate, so a repeated
// predicate can be answered from memory, byte-identical, without touching a
// replica.
//
// The key is the normalized predicate's bounds, lows then highs, compared
// as raw float64 bits. A probe reads them where they lie — on the binary
// path, in the request frame — so a hit copies, divides and featurizes
// nothing; a miss is featurized once, by the model. Any model reads its
// answer off the bounds (an LM through the feature vector they map to), so
// equal keys mean equal answers.
//
// Correctness hangs on one stamp carried by every entry: gen, the
// replica-pool generation of the model that COMPUTED the answer (not the
// generation current at insert time — a swap racing the insert must leave
// the entry invisible, never serve it one generation late). Lookups require
// an exact match with the pool's current generation, so a model swap
// invalidates the whole cache with the one atomic bump the pool already
// performs: no scan, no lock. Nothing else invalidates: within one
// generation an entry is the model's own answer, so dropping it could only
// turn a hit into a miss.
//
// The lookup path takes no lock. Entries are seqlock-style, but with every
// mutable word atomic (a classical seqlock's plain reads would be flagged by
// the race detector, and the swap-under-load soak runs under -race): a
// reader snapshots seq, reads the stamped words and the key, and accepts
// only if seq was even and unchanged. Writers (inserts only) serialize per
// shard on a mutex that no reader ever touches.
//
// Admission is on second sighting (TinyLFU's doorkeeper: Einziger, Friedman
// & Manes, arXiv:1512.00727), and residence is on probation. An insert that
// finds its key, an empty slot or a stale-generation slot writes at once, so
// a fresh cache and every post-swap refill fill on the first miss. Into a
// group of live same-generation entries, only a predicate the shard's
// doorkeeper has seen before evicts, second-chance style; a first sighting
// leaves its fingerprint there and is declined, storing no entry. Every
// entry lives in probation windows of probation·capacity inserts of its
// shard: one not hit during its window is retired when the window ends,
// freeing its slot for the next insert. So a stream of one-off predicates
// writes only as fast as windows end — not on every miss — and no entry
// outlives a window and a bit unless it is asked for: a stream that never
// repeats within a few capacities never hits, as under plain second chance.
type estimateCache struct {
	shards []cacheShard
	// shardMask selects a shard from the hash's low bits (len(shards)-1,
	// power of two).
	shardMask uint64
	// keyLen is the key length in words, 2·d: a predicate's d lows, then
	// its d highs.
	keyLen int
	// capacity is the total entry count across shards, for /status.
	capacity int
	// declined counts inserts the doorkeeper turned away, for /status.
	declined atomic.Int64
	met      *Metrics
}

// cacheWays is the probe-group width: an entry may live in any of the
// cacheWays consecutive slots after its home slot, and eviction picks a
// second-chance victim within the group.
const cacheWays = 4

// cacheEntry is one cached answer. seq is the seqlock word: odd while a
// writer is mid-update, bumped to the next even value when the write is
// complete. All payload words are atomics so torn reads are impossible at
// the word level and the race detector sees only synchronized accesses; the
// seq validation makes the multi-word snapshot consistent.
type cacheEntry struct {
	seq  atomic.Uint64
	hash atomic.Uint64
	gen  atomic.Uint64
	// card holds math.Float64bits of the cached cardinality.
	card atomic.Uint64
	// used is the clock/second-chance reference bit, cleared by a write
	// and set by a hit.
	used atomic.Uint32
}

// cacheShard is one power-of-two slice of the cache. Readers index ents and
// keys lock-free; mu serializes inserts (victim choice + the seqlock write)
// and is never taken on the lookup path.
type cacheShard struct {
	mu   sync.Mutex
	ents []cacheEntry
	// keys is a flat slab of float64 bit patterns: ents[i]'s key occupies
	// keys[i*keyLen : (i+1)*keyLen], lows then highs.
	keys []atomic.Uint64
	// mask is len(ents)-1 (power of two).
	mask uint64
	// hand is the per-shard second-chance clock hand, advanced under mu.
	hand uint64
	// door is the admission doorkeeper, guarded by mu and never read by
	// get: one 32-bit fingerprint word per slot, direct-mapped. A declined
	// first sighting overwrites its word, so a predicate earns an eviction
	// only if it recurs before another first sighting takes its word — on
	// average within one shard's capacity of them.
	door []uint32
	// tick counts the shard's inserts, and born holds the tick at which
	// each slot's probation window began. Both are guarded by mu and never
	// read by get.
	tick uint32
	born []uint32
}

// probation is the length of an entry's probation window, in inserts per
// slot of its shard. An entry whose window has ended expires if it was not
// hit during it, and starts a new window with its reference bit cleared if
// it was; a write or a second-chance pass starts one too. It must stay
// below the shortest cycle of distinct predicates that should never hit, in
// capacities: the tiny benchmark stream repeats after four, and an expired
// entry waits for an insert into its group.
const probation = 2

// doorShift drops the hash's shard bits (h&shardMask: bits 0–2 for
// cacheShards) from a door word's index, hash bits 3 and up; the
// fingerprint is the slot word h>>32. A false admit — another predicate's
// fingerprint in the word — needs both to match.
const doorShift = 3

// Cache geometry. Only the capacity is an option (Options.CacheEntries).
const (
	// cacheShards is the server's shard count (a power of two): inserts
	// serialize per shard, lookups take no lock at all.
	cacheShards         = 8
	defaultCacheEntries = 4096
	// maxCacheEntries clamps the requested capacity, which is operator
	// input: 4M slots is already ~800 MB of entries and keys on the
	// 9-column default table, and past it a typo would be a start-up
	// allocation failure instead of a cache.
	maxCacheEntries = 1 << 22
)

// nextPow2 rounds n up to the next power of two. It is total: n < 1 gives 1
// and anything past the largest power of two an int holds gives that power.
func nextPow2(n int) int {
	const maxPow2 = 1 << (bits.UintSize - 2)
	switch {
	case n <= 1:
		return 1
	case n > maxPow2:
		return maxPow2
	}
	return 1 << bits.Len(uint(n-1))
}

// newEstimateCache builds a cache with keyLen-word keys over roughly
// `entries` total slots (0 = the default, clamped to maxCacheEntries) split
// across `shards` shards, a power of two.
func newEstimateCache(keyLen, shards, entries int, met *Metrics) *estimateCache {
	if entries <= 0 {
		entries = defaultCacheEntries
	}
	if entries > maxCacheEntries {
		entries = maxCacheEntries
	}
	per := nextPow2((entries + shards - 1) / shards)
	if per < cacheWays {
		per = cacheWays
	}
	c := &estimateCache{
		shards:    make([]cacheShard, shards),
		shardMask: uint64(shards - 1),
		keyLen:    keyLen,
		capacity:  shards * per,
		met:       met,
	}
	for i := range c.shards {
		c.shards[i].ents = make([]cacheEntry, per)
		c.shards[i].keys = make([]atomic.Uint64, per*keyLen)
		c.shards[i].mask = uint64(per - 1)
		c.shards[i].door = make([]uint32, per)
		c.shards[i].born = make([]uint32, per)
	}
	return c
}

// cacheHash mixes the predicate's raw bound bits, lows then highs: FNV-1a
// word-wise, then a murmur3-style finalizer so the low bits (shard) and
// high bits (slot) are independently well distributed. It and keyEqual
// define the cache key; the predicate must be normalized.
func cacheHash(p query.Predicate) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range p.Lows {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	for _, v := range p.Highs {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// keyEqual compares the key stored at slot with p's bounds, bit-exact. A
// predicate of another width never matches. Atomic loads keep the race
// detector satisfied; the caller's seq validation rejects a torn mixture
// of two keys.
func (sh *cacheShard) keyEqual(slot, keyLen int, p query.Predicate) bool {
	d := keyLen / 2
	if len(p.Lows) != d || len(p.Highs) != d {
		return false
	}
	k := sh.keys[slot*keyLen : (slot+1)*keyLen]
	for i, v := range p.Lows {
		if k[i].Load() != math.Float64bits(v) {
			return false
		}
	}
	for i, v := range p.Highs {
		if k[d+i].Load() != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// get probes the cache for p (with hash cacheHash(p)) against the given
// serving generation. It is lock-free: at most cacheWays seqlock reads. A
// hit marks the entry referenced for the second-chance clock.
func (c *estimateCache) get(p query.Predicate, h, gen uint64) (float64, bool) {
	sh := &c.shards[h&c.shardMask]
	base := (h >> 32) & sh.mask
	for i := uint64(0); i < cacheWays; i++ {
		slot := (base + i) & sh.mask
		e := &sh.ents[slot]
		s1 := e.seq.Load()
		if s1 == 0 || s1&1 != 0 {
			continue // empty, or a writer is mid-update
		}
		if e.hash.Load() != h || e.gen.Load() != gen {
			continue
		}
		if !sh.keyEqual(int(slot), c.keyLen, p) {
			continue
		}
		card := math.Float64frombits(e.card.Load())
		if e.seq.Load() != s1 {
			continue // raced an insert; the snapshot may mix two entries
		}
		if e.used.Load() == 0 {
			e.used.Store(1)
		}
		return card, true
	}
	return 0, false
}

// putMisses inserts one group's full-model answers, all computed by
// generation gen (the replica's, returned by runOn): cards[j] is the answer
// for group[miss[j]], whose hash is hashes[miss[j]]. It takes the lock of
// each shard the group has rows in once, in ascending shard order, never two
// at once, and inserts that shard's rows in group order — each shard sees
// the same insert sequence as row-at-a-time inserts would give it. The entry
// count and the eviction and decline counters move once per group.
func (c *estimateCache) putMisses(group []query.Predicate, hashes []uint64, miss []int, gen uint64, cards []float64) {
	fresh, evicted, declined := 0, 0, 0
	for s := range c.shards {
		sh, locked := &c.shards[s], false
		for j, i := range miss {
			if hashes[i]&c.shardMask != uint64(s) {
				continue
			}
			if !locked {
				sh.mu.Lock()
				locked = true
			}
			what, ev := sh.insert(group[i], hashes[i], gen, cards[j], c.keyLen)
			evicted += ev
			switch what {
			case insertFresh:
				fresh++
			case insertDeclined:
				declined++
			}
		}
		if locked {
			sh.mu.Unlock()
		}
	}
	if fresh > 0 {
		c.met.cacheEntries.Add(float64(fresh))
	}
	if evicted > 0 {
		c.met.cacheEvictions.Add(int64(evicted))
	}
	if declined > 0 {
		c.declined.Add(int64(declined))
	}
}

// What one insert did with its answer.
const (
	insertReused   = iota // overwrote the same key, a stale entry or an evicted one
	insertFresh           // filled an empty slot
	insertDeclined        // a first sighting into a full group: stored nothing
)

// insert writes p's answer into its probe group under sh.mu. On the way it
// ends the probation window of every live entry in the group whose window
// is over: an entry not hit during it is retired (stamped generation 0,
// which no lookup asks for), one that was hit starts a new window. Within
// the group it then prefers, in order: the same key (refresh in place), an
// empty slot, a stale entry (old generation or retired), then — for a
// predicate the doorkeeper has seen before — a second-chance eviction of a
// live entry. Otherwise it declines. evicted counts the live entries it
// retired or evicted.
func (sh *cacheShard) insert(p query.Predicate, h, gen uint64, card float64, keyLen int) (what, evicted int) {
	base := (h >> 32) & sh.mask
	sh.tick++
	window := uint32(probation * len(sh.ents))
	victim, empty, stale := -1, -1, -1
	for i := uint64(0); i < cacheWays; i++ {
		slot := int((base + i) & sh.mask)
		e := &sh.ents[slot]
		if e.seq.Load() == 0 {
			if empty < 0 {
				empty = slot
			}
			continue
		}
		if e.hash.Load() == h && sh.keyEqual(slot, keyLen, p) {
			victim = slot // same predicate: overwrite its slot
			break
		}
		g := e.gen.Load()
		if g == gen && sh.tick-sh.born[slot] >= window {
			// Its probation window has ended.
			if e.used.Load() == 0 {
				e.gen.Store(0) // not hit during it: retired
				g = 0
				evicted++
			} else {
				e.used.Store(0) // hit: a new window
				sh.born[slot] = sh.tick
			}
		}
		if stale < 0 && g != gen {
			stale = slot
		}
	}
	what = insertReused
	switch {
	case victim >= 0:
	case empty >= 0:
		victim, what = empty, insertFresh
	case stale >= 0:
		victim = stale
	case !sh.seenBefore(h):
		return insertDeclined, evicted
	default:
		// Every way holds a live same-generation entry in its probation
		// window, and p was seen before: second-chance scan. The first pass clears
		// reference bits, starting each cleared entry's next probation
		// window; the second pass must find a victim, so the loop is bounded
		// at two laps.
		for lap := 0; lap < 2*cacheWays; lap++ {
			slot := int((base + sh.hand%cacheWays) & sh.mask)
			sh.hand++
			e := &sh.ents[slot]
			if e.used.Load() != 0 {
				e.used.Store(0)
				sh.born[slot] = sh.tick
				continue
			}
			victim = slot
			break
		}
		if victim < 0 {
			victim = int(base & sh.mask)
		}
		evicted++
	}
	e := &sh.ents[victim]
	e.seq.Add(1) // odd: readers skip while the words below are in flux
	e.hash.Store(h)
	e.gen.Store(gen)
	e.card.Store(math.Float64bits(card))
	k := sh.keys[victim*keyLen : (victim+1)*keyLen]
	d := keyLen / 2
	for i, v := range p.Lows {
		k[i].Store(math.Float64bits(v))
	}
	for i, v := range p.Highs {
		k[d+i].Store(math.Float64bits(v))
	}
	e.used.Store(0)
	sh.born[victim] = sh.tick
	e.seq.Add(1) // even: the entry is visible again
	return what, evicted
}

// seenBefore is the doorkeeper, consulted under sh.mu: it reports whether
// h's door word holds h's fingerprint, and writes it there if not.
func (sh *cacheShard) seenBefore(h uint64) bool {
	w := &sh.door[(uint32(h)>>doorShift)&uint32(len(sh.door)-1)]
	f := uint32(h>>32) | 1 // never 0, the empty word
	if *w == f {
		return true
	}
	*w = f
	return false
}
