package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"warper/internal/query"
)

// put inserts one answer computed by generation gen: putMisses' one-row
// case, the insert the cache tests drive.
func (c *estimateCache) put(p query.Predicate, h, gen uint64, card float64) {
	ps, hs, idx, cards := [1]query.Predicate{p}, [1]uint64{h}, [1]int{0}, [1]float64{card}
	c.putMisses(ps[:], hs[:], idx[:], gen, cards[:])
}

// fillGroup builds a group of rows keys, key r seeded base+r%distinct (so a
// group can repeat a predicate), with their hashes, an all-miss index and
// answers that name the row.
func fillGroup(keyLen, rows, distinct int, base float64) ([]query.Predicate, []uint64, []int, []float64) {
	preds, hashes := make([]query.Predicate, rows), make([]uint64, rows)
	miss, cards := make([]int, rows), make([]float64, rows)
	for r := range preds {
		preds[r] = cacheKey(keyLen, base+float64(r%distinct))
		hashes[r] = cacheHash(preds[r])
		miss[r], cards[r] = r, base+float64(r)
	}
	return preds, hashes, miss, cards
}

// TestPutMissesMatchesRowPuts pins the grouped fill to the row-at-a-time
// one: the same groups through putMisses and through one put per row leave
// every slot, key, clock hand, probation tick, doorkeeper word and counter
// identical — each shard sees the same insert sequence — across fresh
// slots, same-key refreshes within a group, stale generations, probation
// retirements, declined first sightings and second-chance evictions.
func TestPutMissesMatchesRowPuts(t *testing.T) {
	const keyLen = 6
	grouped := newEstimateCache(keyLen, cacheShards, 256, NewMetrics())
	rows := newEstimateCache(keyLen, cacheShards, 256, NewMetrics())
	for g := 0; g < 12; g++ {
		gen := uint64(1 + g/4)
		preds, hashes, miss, cards := fillGroup(keyLen, 96, 80, float64(g*37))
		grouped.putMisses(preds, hashes, miss, gen, cards)
		for j, i := range miss {
			rows.put(preds[i], hashes[i], gen, cards[j])
		}
	}
	for s := range grouped.shards {
		a, b := &grouped.shards[s], &rows.shards[s]
		if a.hand != b.hand || a.tick != b.tick {
			t.Fatalf("shard %d: clock hand %d, tick %d; row-at-a-time %d, %d", s, a.hand, a.tick, b.hand, b.tick)
		}
		for i := range a.door {
			if a.door[i] != b.door[i] || a.born[i] != b.born[i] {
				t.Fatalf("shard %d: door word or window start %d differs from the row-at-a-time fill", s, i)
			}
		}
		for i := range a.ents {
			ea, eb := &a.ents[i], &b.ents[i]
			if ea.seq.Load() != eb.seq.Load() || ea.hash.Load() != eb.hash.Load() || ea.gen.Load() != eb.gen.Load() ||
				ea.card.Load() != eb.card.Load() || ea.used.Load() != eb.used.Load() {
				t.Fatalf("shard %d slot %d differs from the row-at-a-time fill", s, i)
			}
		}
		for i := range a.keys {
			if a.keys[i].Load() != b.keys[i].Load() {
				t.Fatalf("shard %d key word %d differs from the row-at-a-time fill", s, i)
			}
		}
	}
	for _, m := range []struct {
		name string
		a, b float64
	}{
		{"estimate_cache_entries", grouped.met.cacheEntries.Value(), rows.met.cacheEntries.Value()},
		{"estimate_cache_evictions_total", float64(grouped.met.cacheEvictions.Value()), float64(rows.met.cacheEvictions.Value())},
		{"declined", float64(grouped.declined.Load()), float64(rows.declined.Load())},
	} {
		if m.a != m.b {
			t.Errorf("%s = %v, row-at-a-time %v", m.name, m.a, m.b)
		}
	}
	if grouped.met.cacheEvictions.Value() == 0 || grouped.declined.Load() == 0 {
		t.Errorf("%d evictions, %d declined: the groups never took both branches of a full probe group",
			grouped.met.cacheEvictions.Value(), grouped.declined.Load())
	}
}

// TestPutMissesConcurrentCount fills one cache from several goroutines at
// once, with overlapping groups: afterwards the entry count and its gauge
// must both equal the number of occupied slots. Run it under -race.
func TestPutMissesConcurrentCount(t *testing.T) {
	const keyLen, workers = 6, 4
	c := newEstimateCache(keyLen, cacheShards, 512, NewMetrics())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := 0; g < 20; g++ {
				preds, hashes, miss, cards := fillGroup(keyLen, 64, 64, float64((w+g)*16))
				c.putMisses(preds, hashes, miss, 1, cards)
			}
		}(w)
	}
	wg.Wait()
	occupied := 0
	for s := range c.shards {
		for i := range c.shards[s].ents {
			if c.shards[s].ents[i].seq.Load() != 0 {
				occupied++
			}
		}
	}
	if v := c.met.cacheEntries.Value(); v != float64(occupied) {
		t.Errorf("estimate_cache_entries = %v, %d slots occupied", v, occupied)
	}
}

// BenchmarkCacheFillGroup is the uncached path's cache fill: one wire group
// of 256 distinct full-model answers per op through putMisses, into the
// default 4096-slot cache filled before the timer starts, with keys of the
// default 9-column width: every insert finds its probe group full of live
// entries. The two sub-benchmarks time the two ways such an insert goes,
// and steady state must report 0 allocs/op for both:
//
//   - evict: 16 groups, cycled, each sent twice with the second send timed:
//     second
//     sightings, which evict and write (or refresh a row the first send
//     wrote into a slot probation had freed). It runs on one goroutine,
//     because only b.StopTimer can leave the first send out and RunParallel
//     has no per-goroutine timer.
//   - declined: first sightings of 64 groups per worker, cycled — over four
//     capacities per worker, so that no key recurs within its probation
//     window — inserted from b.RunParallel goroutines so that the cores
//     contend for the shard locks the way concurrent binary
//     requests do. Most are declined without a store; the rest take the
//     slots of entries retired at the end of their probation window, as on
//     a never-repeating stream (declined/row reports the share).
func BenchmarkCacheFillGroup(b *testing.B) {
	b.Run("evict", func(b *testing.B) {
		c, workers, miss, cards := fullCacheFill(1, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i, g := 0, 0; i < b.N; i, g = i+1, (g+1)%len(workers[0]) {
			grp := workers[0][g]
			b.StopTimer()
			c.putMisses(grp.preds, grp.hashes, miss, 1, cards)
			b.StartTimer()
			c.putMisses(grp.preds, grp.hashes, miss, 1, cards)
		}
	})
	b.Run("declined", func(b *testing.B) {
		c, workers, miss, cards := fullCacheFill(runtime.GOMAXPROCS(0), 64)
		var next atomic.Int64
		declined := c.declined.Load()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			mine := workers[int(next.Add(1)-1)%len(workers)]
			for g := 0; pb.Next(); g = (g + 1) % len(mine) {
				c.putMisses(mine[g].preds, mine[g].hashes, miss, 1, cards)
			}
		})
		b.ReportMetric(float64(c.declined.Load()-declined)/float64(b.N*wireGroupRows), "declined/row")
	})
}

// fillGroupKeys is one wire group's keys and their hashes.
type fillGroupKeys struct {
	preds  []query.Predicate
	hashes []uint64
}

// fullCacheFill builds BenchmarkCacheFillGroup's state: a default-sized
// cache with every slot holding a key no group sends, the given number of
// groups of distinct keys for each of n workers, an all-miss index and
// answers.
func fullCacheFill(n, groups int) (*estimateCache, [][]fillGroupKeys, []int, []float64) {
	const keyLen = 18
	workers := make([][]fillGroupKeys, n)
	for w := range workers {
		workers[w] = make([]fillGroupKeys, groups)
		for g := range workers[w] {
			grp := fillGroupKeys{make([]query.Predicate, wireGroupRows), make([]uint64, wireGroupRows)}
			for r := range grp.preds {
				grp.preds[r] = cacheKey(keyLen, float64((w*groups+g)*wireGroupRows+r))
				grp.hashes[r] = cacheHash(grp.preds[r])
			}
			workers[w][g] = grp
		}
	}
	miss, cards := make([]int, wireGroupRows), make([]float64, wireGroupRows)
	for i := range miss {
		miss[i], cards[i] = i, float64(i)
	}
	c := newEstimateCache(keyLen, cacheShards, 0, NewMetrics())
	for base := 0; c.met.cacheEntries.Value() < float64(c.capacity); base += wireGroupRows {
		preds, hashes, miss, cards := fillGroup(keyLen, wireGroupRows, wireGroupRows, -1e9-float64(base))
		c.putMisses(preds, hashes, miss, 1, cards)
	}
	return c, workers, miss, cards
}
