package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"warper/internal/ce"
	"warper/internal/obs"
)

// Admission-control outcomes of a checkout that found no free replica.
// Sentinels, not wrapped errors: the estimate path switches on identity and
// never formats them.
var (
	// errNoReplica: every replica is busy and the caller declined to queue.
	errNoReplica = errors.New("no replica free")
	// errShed: the bounded admission queue is full; the request is load-shed
	// without waiting. Also what EstimateBatchWire returns for a batch shed
	// for any reason.
	errShed = errors.New("shed by admission control")
	// errCheckoutTimeout: the request queued but no replica freed up within
	// its deadline budget.
	errCheckoutTimeout = errors.New("replica checkout deadline exceeded")
)

// This file implements the replica-pool serving core. PR 1 kept estimates
// behind one serving mutex; that lock is gone from the hot path entirely:
// N independent model clones sit on a channel free-list, each estimate
// checks one out, runs on private scratch, and checks it back in. A model
// swap after an adaptation period is a single atomic generation bump —
// replicas notice the stale generation on their next checkout and lazily
// re-clone from the new source, so a swap never stalls in-flight estimates.

// modelGen is one serving generation: a private clone of the adapter's
// model plus a monotonically increasing generation number.
type modelGen struct {
	model ce.Estimator
	gen   uint64
}

// replica is one checkout-able serving model. Exactly one goroutine owns a
// replica between checkout and checkin, so its model's forward-pass scratch
// is never shared — the property ce.Estimator.Estimate requires.
type replica struct {
	model ce.Estimator
	gen   uint64
}

// replicaPool hands model clones to concurrent estimates via a channel
// free-list. The checkout path is lock-free (a channel receive, an atomic
// load); the only mutex, refreshMu, serializes the rare lazy re-clone after
// a generation bump, because Clone advances the source model's RNG.
// warperlint's lockorder rule pins the lock-free property.
type replicaPool struct {
	free chan *replica
	src  atomic.Pointer[modelGen]
	// refreshMu serializes replica refreshes against each other; it is the
	// only lock a checkout may ever take, and only on the post-swap path.
	refreshMu sync.Mutex
	met       *Metrics

	// waiters counts deadline-carrying requests parked in the bounded
	// admission queue; maxQueue caps it — arrival number maxQueue+1 is shed
	// with errShed instead of queueing.
	waiters  atomic.Int64
	maxQueue int64
	// timers recycles the slow-path deadline timers so a queued checkout
	// does not allocate one per wait.
	timers chan *time.Timer
}

// newReplicaPool builds a pool of n replicas cloned from src. src must be a
// private model (never the adapter's own M): the pool owns it, and refreshes
// advance its RNG.
func newReplicaPool(src ce.Estimator, n int, met *Metrics) *replicaPool {
	if n < 1 {
		n = 1
	}
	p := &replicaPool{
		free:     make(chan *replica, n),
		met:      met,
		maxQueue: defaultShedQueue(n),
		timers:   make(chan *time.Timer, n),
	}
	p.src.Store(&modelGen{model: src, gen: 1})
	for i := 0; i < n; i++ {
		p.free <- &replica{model: src.Clone(), gen: 1}
	}
	met.replicas.Set(float64(n))
	return p
}

// checkout acquires a replica — the pool's one way in. A free replica is
// taken immediately: the fast path is one buffered-channel receive. When
// every replica is busy, wait decides. Without it the call fails with
// errNoReplica (the admission rule of the degraded and shedding health
// states). With it the request queues: under a deadline it joins the bounded
// admission queue — a full queue sheds with errShed without waiting, a
// missed deadline returns errCheckoutTimeout — and with a zero deadline it
// waits forever, exempt from the queue bound (no deadline means the caller
// opted out of admission control). queued reports that the request left the
// fast path and joined the queue, whatever came of it.
func (p *replicaPool) checkout(wait bool, deadline time.Time) (r *replica, queued bool, err error) {
	select {
	case r = <-p.free:
	default:
		if !wait {
			return nil, false, errNoReplica
		}
		if r, err = p.queue(deadline); err != nil {
			return nil, true, err
		}
		queued = true
	}
	p.met.checkouts.Inc()
	if cur := p.src.Load(); r.gen != cur.gen {
		p.refresh(r) //lint:allow hotpathalloc sanctioned slow branch: one re-clone per model swap, serialized behind refreshMu
	}
	return r, queued, nil
}

// queue parks one request until a replica frees up or its deadline passes.
// The wait histogram is the successor of PR 1's estimate-lock wait, renamed
// to say what it now measures.
func (p *replicaPool) queue(deadline time.Time) (*replica, error) {
	var timeout <-chan time.Time // nil without a deadline: never fires
	if !deadline.IsZero() {
		if p.waiters.Add(1) > p.maxQueue {
			p.waiters.Add(-1)
			return nil, errShed
		}
		defer p.waiters.Add(-1)
		d := time.Until(deadline)
		if d <= 0 {
			return nil, errCheckoutTimeout
		}
		t := p.getTimer(d)
		defer p.putTimer(t)
		timeout = t.C
	}
	p.met.checkoutQueue.Add(1)
	defer p.met.checkoutQueue.Add(-1)
	// The span records timed-out waits too: those are precisely the signal
	// the health machine's p99 watches.
	sp := obs.StartSpan(p.met.checkoutWait)
	defer sp.End()
	select {
	case r := <-p.free:
		return r, nil
	case <-timeout:
		return nil, errCheckoutTimeout
	}
}

// getTimer takes a recycled deadline timer or allocates one on a free-list
// miss.
func (p *replicaPool) getTimer(d time.Duration) *time.Timer {
	select {
	case t := <-p.timers:
		t.Reset(d)
		return t
	default:
	}
	return time.NewTimer(d) //lint:allow hotpathalloc timer free-list miss: at most pool-capacity timers are ever live, then every wait recycles
}

// putTimer returns a timer to the free-list, stopped and drained so the next
// Reset starts clean. Callers that consumed the fire hand over an already
// drained channel; Stop returning false is then benign.
func (p *replicaPool) putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	select {
	case p.timers <- t:
	default:
	}
}

// checkin returns a replica to the free-list.
func (p *replicaPool) checkin(r *replica) { p.free <- r }

// queueDepth reports how many requests sit in the bounded admission queue.
func (p *replicaPool) queueDepth() int64 { return p.waiters.Load() }

// defaultShedQueue derives the admission-queue bound from the pool size:
// room for a healthy burst (16 requests per replica) but never less than 64,
// so small pools still absorb scrape-sized spikes.
func defaultShedQueue(replicas int) int64 {
	q := int64(16 * replicas)
	if q < 64 {
		q = 64
	}
	return q
}

// refresh re-clones a stale replica from the current generation's source.
// Refreshes are serialized because Clone draws from the source model's RNG;
// the source is pool-private, so those draws never perturb the adapter's
// seeded state.
func (p *replicaPool) refresh(r *replica) {
	p.refreshMu.Lock()
	defer p.refreshMu.Unlock()
	cur := p.src.Load()
	if r.gen == cur.gen {
		return
	}
	r.model = cur.model.Clone()
	r.gen = cur.gen
	p.met.refreshes.Inc()
}

// swap installs m as the new serving generation: one private clone, one
// atomic pointer store. In-flight estimates finish on the old generation;
// each replica re-clones lazily at its next checkout. The caller must
// serialize swaps (handlePeriod's periodMu does) and guarantee m is not
// concurrently mutated during the clone.
func (p *replicaPool) swap(m ce.Estimator) {
	sp := obs.StartSpan(p.met.swapSeconds)
	src := m.Clone()
	cur := p.src.Load()
	p.src.Store(&modelGen{model: src, gen: cur.gen + 1})
	sp.End()
}

// current returns the serving generation's source model. Callers must treat
// it as read-only: it backs every future replica refresh.
func (p *replicaPool) current() ce.Estimator { return p.src.Load().model }

// generation returns the current serving generation number.
func (p *replicaPool) generation() uint64 { return p.src.Load().gen }
