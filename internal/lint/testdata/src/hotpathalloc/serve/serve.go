// Package serve is the hotpathalloc fixture: a miniature serving stack
// whose handleEstimate / Estimate / checkout / checkin shape mirrors the
// real one, with every allocating construct the rule knows about on the
// reachable side and allocation-heavy code behind allow pruning or
// unreachability on the other.
package serve

import "fmt"

type Estimator interface{ Estimate(x float64) float64 }

type replica struct{ model Estimator }

type replicaPool struct{ free chan *replica }

type Server struct {
	pool  *replicaPool
	cache *estimateCache
	free  chan *scratch
	buf   []float64
	tag   string
}

// estimateCache mirrors the real cache's shape: a lock-free probe (get) and
// a serialized group insert (putMisses).
type estimateCache struct {
	keys  []uint64
	trail []float64
}

// scratch mirrors the real pooled request unit: slabs sized by one
// function that carries the one sanctioned grow-once allocation.
type scratch struct{ keys []float64 }

// size is pruned whole by its decl-level allow, like the real one.
//
//lint:allow hotpathalloc fixture: grow-once slab, kept at high-water capacity
func (sc *scratch) size(n int) {
	if cap(sc.keys) < n {
		sc.keys = make([]float64, n)
	}
}

// get is rooted directly: pure index arithmetic, nothing to flag.
func (c *estimateCache) get(key []float64, h uint64) (float64, bool) {
	for i := range key {
		if c.keys[i%len(c.keys)] != h {
			return 0, false
		}
	}
	return key[0], true
}

// putMisses is rooted directly; its bookkeeping must stay allocation-free
// too.
func (c *estimateCache) putMisses(key []float64, h uint64) {
	c.trail = append(c.trail, key[0]) // want "append may grow"
	c.keys[0] = h
}

// estimateGroup is rooted directly: the scratch free-list miss is the
// sanctioned allocation behind a statement allow, the slab sizing is pruned
// at its declaration, and one unsanctioned allocation must still fire.
func (s *Server) estimateGroup(x float64) float64 {
	var sc *scratch
	select {
	case sc = <-s.free:
	default:
		//lint:allow hotpathalloc fixture: scratch free-list miss allocates once, recycled on release
		sc = &scratch{}
	}
	sc.size(4)
	probe := &estimateCache{} // want "composite literal escapes"
	_ = probe
	if v, ok := s.cache.get(sc.keys, uint64(x)); ok {
		return v
	}
	return s.admit(x)
}

// admit is rooted directly too: its outcome bookkeeping must not allocate.
func (s *Server) admit(x float64) float64 {
	reason := "shed:" + s.tag // want "string concatenation allocates"
	_ = reason
	return x
}

// cheap is the zero-alloc implementation: nothing to flag.
type cheap struct{ w float64 }

func (c *cheap) Estimate(x float64) float64 { return c.w * x }

// boxy is reachable only through interface dispatch; its allocation must
// still be found, proving the CHA fan-out.
type boxy struct{}

func (b *boxy) Estimate(x float64) float64 {
	tmp := []float64{x} // want "slice literal allocates"
	return tmp[0]
}

// heavy allocates by design; the decl-level allow prunes the whole
// function from the hot-path walk.
//
//lint:allow hotpathalloc fixture: heavyweight model allocates by design
func (h *heavy) Estimate(x float64) float64 {
	buf := make([]float64, 8)
	return buf[0] + x
}

type heavy struct{}

func (p *replicaPool) checkout() *replica { return <-p.free }

func (p *replicaPool) checkin(r *replica) {
	select {
	case p.free <- r:
	default:
	}
}

func (s *Server) handleEstimate(x float64) float64 {
	if x < 0 {
		panic(fmt.Sprintf("bad %v", x)) // panic arguments are exempt
	}
	r := s.pool.checkout()
	defer s.pool.checkin(r)
	out := r.model.Estimate(x)
	//lint:allow hotpathalloc fixture: sampled slow branch is sanctioned
	s.slowPath(x)
	go s.logit(x) // want "go statement allocates"
	return out
}

func (s *Server) Estimate(x float64) float64 {
	tmp := make([]float64, 4) // want "make allocates"
	s.buf = append(s.buf, x)  // want "append may grow"
	p := new(replica)         // want "new allocates"
	_ = p
	m := map[string]float64{"q": x} // want "map literal allocates"
	_ = m
	r := &replica{} // want "composite literal escapes"
	_ = r
	msg := fmt.Sprintln(x) // want "fmt.Sprintln allocates"
	name := "q" + s.tag    // want "string concatenation allocates"
	bs := []byte(name)     // want "conversion copies"
	_ = bs
	sink(x) // want "interface boxing of float64"
	var v any
	v = msg // want "interface boxing of string"
	_ = v
	k := x
	f := func() float64 { return k } // want "closure capturing k allocates"
	return tmp[0] + f()
}

// slowPath allocates, but its only call site carries an allow: the edge
// is cut and nothing here is reported.
func (s *Server) slowPath(x float64) {
	s.buf = append(s.buf, make([]float64, 16)...)
}

func (s *Server) logit(x float64) { _ = x }

func sink(v any) { _ = v }

// unreachableHelper is never called from a hot-path root: its allocation
// is out of scope.
func unreachableHelper() []int { return make([]int, 9) }
