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
// and starts afresh when that changes; within one table state a run is
// keyed by its bounds in the sorted order, so two predicates whose
// different float bounds select the same rows share one bitmap.
//
// Admission is on second sighting: a run seen once is remembered in a small
// ring per column, and only a run seen again is built. Each column holds at
// most two bitmaps per table state, written once and never evicted, so the
// cache never exceeds cols·2·⌈n/64⌉ words (n·cols/4 bytes). The first two
// runs a column sees twice are the ones that nearly every predicate carries
// on a drifted table (an unconstrained column whose schema range no longer
// covers the drifted rows), so they keep their slots.
//
// Counts read bitmaps outside the lock. A bitmap is never rewritten, and a
// new table state gets fresh slots, so a count still reading an old bitmap
// keeps it alive until it finishes. Scratch accumulators are recycled
// through the same lock, so a count on a warm cache allocates nothing.
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
	seen  [seenRuns]run
	next  int // ring position of the next sighting
}

// passBitmap is one cached bitmap: bit r of bits is set when row r passes
// run. Empty slots have a zero run, which names no cached run: count never
// looks up a run that passes no row, and the only runs with lo == hi == 0
// pass none.
type passBitmap struct {
	run  run
	bits []uint64
}

// acquire fills act[i].bits with the cached pass bitmap of every active
// column that has one — building it first if this sighting admits it — and
// returns scratch space for two bitmaps of ⌈n/64⌉ words. The caller must
// hand the scratch back to release whatever acquire returns.
func (pc *passCache) acquire(ctx context.Context, t *dataset.Table, order [][]int32, act []active) ([]uint64, error) {
	n := t.NumRows()
	w := (n + 63) / 64
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.version != t.Version || pc.numRows != n || pc.numCols != len(t.Cols) {
		pc.version, pc.numRows, pc.numCols = t.Version, n, len(t.Cols)
		pc.cols = make([]colCache, len(t.Cols))
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
		s := cc.lookup(c.run)
		if s == nil {
			if s = cc.admit(c.run); s == nil {
				continue
			}
			bits := make([]uint64, w)
			if err := buildPass(ctx, bits, order[c.col], c.run, n); err != nil {
				return scratch, err
			}
			s.run, s.bits = c.run, bits
		}
		c.bits = s.bits
	}
	return scratch, nil
}

// release keeps scratch for the next count.
func (pc *passCache) release(scratch []uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.spare = append(pc.spare, scratch)
}

func (cc *colCache) lookup(r run) *passBitmap {
	for j := range cc.slots {
		if cc.slots[j].run == r {
			return &cc.slots[j]
		}
	}
	return nil
}

// admit returns the empty slot r's bitmap goes into when r was seen before,
// and remembers r if not; nil when r is not admitted, or when both slots
// are written.
func (cc *colCache) admit(r run) *passBitmap {
	s := cc.lookup(run{})
	if s == nil {
		return nil
	}
	for _, seen := range cc.seen {
		if seen == r {
			return s
		}
	}
	cc.seen[cc.next] = r
	cc.next = (cc.next + 1) % seenRuns
	return nil
}
