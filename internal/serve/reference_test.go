package serve

import (
	"context"
	"sync"

	"warper/internal/ce"
	"warper/internal/query"
	"warper/internal/warper"
)

// refServer is the test oracle of this package: the serving core written the
// obvious way. One mutex around everything, one model per generation, no
// cache, no replica pool, no batching, no admission control, no fallback —
// an estimate is "lock, ask the model, unlock", and a period holds the lock
// from its first line to its last. It owns its own seeded warper.Adapter and
// is sent the same feedback and period operations as the Server under test
// (see differential_test.go), so its models are not copies of the served
// ones: the two stacks agree bit for bit only while the Server really does
// serve what an adaptation period produced, when it says it does.
//
// It follows the Adapter's documented serving contract and nothing else:
// serve a ModelSnapshot, never M itself; take a pre-period clone and
// reinstate it (and the consumed arrivals) when PeriodCtx fails; snapshot
// again after a success. Those clones draw from M's RNG, which seeds the
// next update's shuffles — a Server that clones M at other moments serves
// different bits, and the driver will say so.
type refServer struct {
	mu sync.Mutex
	ad *warper.Adapter
	// models[g-1] is the model of generation g; the last one is serving. The
	// earlier ones stay answerable because a request that overlapped a swap
	// may legally have been answered by either side of it.
	models []ce.Estimator
	buffer []warper.Arrival
}

func newRefServer(ad *warper.Adapter) *refServer {
	return &refServer{ad: ad, models: []ce.Estimator{ad.ModelSnapshot()}}
}

// generation is the serving generation: 1 plus the successful periods.
func (r *refServer) generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return uint64(len(r.models))
}

// estimateAt answers a normalized predicate as generation gen does.
func (r *refServer) estimateAt(gen uint64, p query.Predicate) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.models[gen-1].Estimate(p)
}

// feedback buffers one arrival for the next period and returns the buffer
// length.
func (r *refServer) feedback(ar warper.Arrival) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buffer = append(r.buffer, ar)
	return len(r.buffer)
}

// period runs one adaptation period over the buffered arrivals. On success
// the repaired model becomes the next generation; on failure the model and
// the buffer are as they were before the call.
func (r *refServer) period(ctx context.Context) (warper.Report, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pre := r.ad.M.Clone()
	arrivals := r.buffer
	r.buffer = nil
	rep, err := r.ad.PeriodCtx(ctx, arrivals)
	if err != nil {
		r.ad.M, r.buffer = pre, arrivals
		return rep, err
	}
	r.models = append(r.models, r.ad.ModelSnapshot())
	return rep, nil
}
