// Package serve is the lockorder fixture: an AB/BA inversion where one
// half is transitive, TryLock and refreshMu exemptions, a deferred-unlock
// region, and a slow call under a lock, direct and transitive.
package serve

import "sync"

type Server struct {
	mu sync.Mutex
	st sync.Mutex
}

type Journal struct {
	mu sync.Mutex
}

type Model struct{}

func (m *Model) Update(x float64) {}

// ab acquires mu then st directly.
func (s *Server) ab() {
	s.mu.Lock()
	s.st.Lock() // want "lock acquisition cycle"
	s.st.Unlock()
	s.mu.Unlock()
}

// ba acquires st, then mu three frames away: the inversion only exists
// module-wide.
func (s *Server) ba() {
	s.st.Lock()
	s.lockMuIndirect()
	s.st.Unlock()
}

func (s *Server) lockMuIndirect() {
	s.mu.Lock()
	s.mu.Unlock()
}

// try holds mu via TryLock while taking j.mu; inverse takes j.mu then mu.
// That would be a cycle if TryLock opened a region — it must not, because
// a non-blocking acquisition cannot deadlock.
func (s *Server) try(j *Journal) {
	if !s.mu.TryLock() {
		return
	}
	j.mu.Lock()
	j.mu.Unlock()
	s.mu.Unlock()
}

func (s *Server) inverse(j *Journal) {
	j.mu.Lock()
	s.lockMuIndirect()
	j.mu.Unlock()
}

// periodUnderLock shields slow work behind a helper: no per-function scan
// can see it, the transitive check must.
func (s *Server) periodUnderLock(m *Model) {
	s.mu.Lock()
	s.repair(m) // want "transitively reaches m.Update"
	s.mu.Unlock()
}

func (s *Server) repair(m *Model) {
	m.Update(1)
}

// directSlow is depth 0 of the same check: the call under the lock is the
// slow work, and is reported once, as itself.
func (s *Server) directSlow(m *Model) {
	s.mu.Lock()
	m.Update(2) // want "m.Update under a held sync lock"
	s.mu.Unlock()
}

// refresher keeps refreshMu's sanctioned exemption from the hygiene
// check (though not from ordering).
type refresher struct {
	refreshMu sync.Mutex
}

func (r *refresher) refresh(s *Server, m *Model) {
	r.refreshMu.Lock()
	s.repair(m)
	r.refreshMu.Unlock()
}

// deferred pins the deferred-unlock region shape: the region runs to the
// end of the statement list, and the edge st → tracer.tmu is acyclic.
type tracer struct {
	tmu sync.Mutex
}

func (s *Server) deferred(tr *tracer) {
	s.st.Lock()
	defer s.st.Unlock()
	tr.tmu.Lock()
	tr.tmu.Unlock()
}
