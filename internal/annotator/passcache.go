package annotator

import (
	"context"
	"sync"

	"warper/internal/dataset"
)

// passCache keeps the pass bitmaps of the column runs that counts over one
// table have seen more than once (see count); the table holds it, and
// every annotator over the table shares it. A bitmap is a function of the
// table contents and of one run of one column's sorted order, so the cache
// is keyed like dataset.Table.SortedOrder — (Version, NumRows, NumCols) —
// and emptied when that changes; within one table state a run is keyed by
// its bounds in the sorted order, so two predicates whose different float
// bounds select the same rows share one bitmap.
//
// Admission is on second sighting: a run seen once is remembered in a small
// ring per column, and only a run seen again is built. Each column holds at
// most two bitmaps, so the cache never exceeds cols·2·⌈n/64⌉ words (n·cols/4
// bytes). A full column evicts the bitmap with fewer hits and halves the
// survivor's, so a run that nearly every predicate carries (an
// unconstrained column whose schema range no longer covers the drifted
// rows) stays, while runs that repeat a few times take turns in the other
// slot.
//
// Counts read bitmaps outside the lock. A bitmap handed to a count is
// pinned until the count releases it; eviction and invalidation reuse a
// bitmap's words only when nobody holds it, and otherwise leave them to the
// reader and allocate afresh. Scratch accumulators are recycled through the
// same lock, so a count on a warm cache allocates nothing.
type passCache struct {
	mu sync.Mutex
	// version, numRows and numCols are the table state the bitmaps were
	// built from.
	version, numRows, numCols int
	cols                      []colCache
	spare                     [][]uint64 // free scratch accumulators
}

// seenRuns is how many once-seen runs each column remembers for admission.
const seenRuns = 4

type colCache struct {
	slots [2]passBitmap
	seen  [seenRuns]runKey
	next  int // ring position of the next sighting
}

// runKey is a run's passing range of the sorted order, order[lo:hi] (the
// NaN prefix is fixed per column and table state). The zero key names no
// run: count never looks up a run that passes no row or every row, and the
// only runs with lo == hi == 0 pass none.
type runKey struct{ lo, hi int32 }

// passBitmap is one cached bitmap: bit r of bits is set when row r passes
// the run key names. Empty slots have a zero key.
type passBitmap struct {
	key  runKey
	bits []uint64
	hits uint32
	pins int32 // counts reading bits right now
}

// acquire fills act[i].bits with the cached pass bitmap of every active
// column that has one — building it first if this sighting admits it — and
// returns scratch space for two bitmaps of ⌈n/64⌉ words. Every bitmap it
// hands out is pinned, including on error, so the caller must call release
// with the same act and scratch whatever acquire returns.
func (pc *passCache) acquire(ctx context.Context, t *dataset.Table, order [][]int32, act []active) ([]uint64, error) {
	n := t.NumRows()
	w := (n + 63) / 64
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.version != t.Version || pc.numRows != n || pc.numCols != len(t.Cols) {
		pc.reset(t.Version, n, len(t.Cols))
	}
	var scratch []uint64
	if k := len(pc.spare); k > 0 {
		scratch, pc.spare = pc.spare[k-1], pc.spare[:k-1]
	}
	if cap(scratch) < 2*w {
		scratch = make([]uint64, 2*w) // the table grew: the old scratch goes
	}
	scratch = scratch[:2*w]
	for i := range act {
		c := &act[i]
		cc := &pc.cols[c.col]
		s := cc.lookup(c.key())
		if s == nil {
			if !cc.sighted(c.key()) {
				continue
			}
			if s = cc.victim(); s == nil {
				continue // both slots are being read: admit on a later sighting
			}
			if len(s.bits) != w {
				s.bits = make([]uint64, w)
			}
			if err := buildPass(ctx, s.bits, order[c.col], c.run, n); err != nil {
				return scratch, err
			}
			s.key = c.key()
			cc.forget(s.key)
		}
		s.hits++
		s.pins++
		c.slot, c.bits = s, s.bits
	}
	return scratch, nil
}

// release unpins what acquire handed out and keeps scratch for the next
// count.
func (pc *passCache) release(act []active, scratch []uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, c := range act {
		if c.slot != nil {
			c.slot.pins--
		}
	}
	pc.spare = append(pc.spare, scratch)
}

// reset empties the cache for a new table state, keeping the words of
// unpinned bitmaps for reuse.
func (pc *passCache) reset(version, n, cols int) {
	pc.version, pc.numRows, pc.numCols = version, n, cols
	if len(pc.cols) != cols {
		pc.cols = make([]colCache, cols)
		return
	}
	for i := range pc.cols {
		cc := &pc.cols[i]
		for j := range cc.slots {
			s := &cc.slots[j]
			s.key, s.hits = runKey{}, 0
			if s.pins > 0 {
				s.bits = nil
			}
		}
		cc.seen, cc.next = [seenRuns]runKey{}, 0
	}
}

func (cc *colCache) lookup(k runKey) *passBitmap {
	for j := range cc.slots {
		if cc.slots[j].key == k {
			return &cc.slots[j]
		}
	}
	return nil
}

// sighted reports whether k was seen before, and remembers it if not.
func (cc *colCache) sighted(k runKey) bool {
	for _, s := range cc.seen {
		if s == k {
			return true
		}
	}
	cc.seen[cc.next] = k
	cc.next = (cc.next + 1) % seenRuns
	return false
}

// forget drops an admitted key from the sightings ring.
func (cc *colCache) forget(k runKey) {
	for j := range cc.seen {
		if cc.seen[j] == k {
			cc.seen[j] = runKey{}
		}
	}
}

// victim returns the slot a new bitmap goes into — an empty one, else the
// one with fewer hits, halving the other's so past popularity fades — or
// nil when the candidate is pinned. Pinned bitmaps keep their words: the
// slot gets fresh ones.
func (cc *colCache) victim() *passBitmap {
	a, b := &cc.slots[0], &cc.slots[1]
	if b.key == (runKey{}) || a.key != (runKey{}) && b.hits < a.hits {
		a, b = b, a
	}
	if a.pins > 0 {
		return nil
	}
	if a.key != (runKey{}) {
		b.hits /= 2
	}
	a.key, a.hits = runKey{}, 0
	return a
}
