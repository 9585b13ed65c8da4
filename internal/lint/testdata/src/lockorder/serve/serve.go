// Package serve is the lockorder fixture: nested acquisitions, direct and
// transitive, each half of an AB/BA inversion flagged on its own, TryLock
// and refreshMu exemptions, a deferred-unlock region, and a slow call under
// a lock, direct and transitive.
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

// ab acquires st directly while holding mu.
func (s *Server) ab() {
	s.mu.Lock()
	s.st.Lock() // want "serve.Server.st acquired while serve.Server.mu is held"
	s.st.Unlock()
	s.mu.Unlock()
}

// ba acquires mu through a helper while holding st: the other half of ab's
// inversion, a finding on its own.
func (s *Server) ba() {
	s.st.Lock()
	s.lockMuIndirect() // want "call to serve.\(\*Server\).lockMuIndirect acquires serve.Server.mu while serve.Server.st is held"
	s.st.Unlock()
}

func (s *Server) lockMuIndirect() {
	s.mu.Lock()
	s.mu.Unlock()
}

// try holds mu via TryLock while taking j.mu; inverse takes j.mu then mu.
// TryLock opens no region, because a non-blocking acquisition cannot
// deadlock, so only inverse is flagged.
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
	s.lockMuIndirect() // want "acquires serve.Server.mu while serve.Journal.mu is held"
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
// check (though not from nesting).
type refresher struct {
	refreshMu sync.Mutex
}

func (r *refresher) refresh(s *Server, m *Model) {
	r.refreshMu.Lock()
	s.repair(m)
	r.refreshMu.Unlock()
}

// deferred pins the deferred-unlock region shape: the region runs to the
// end of the statement list, so tr.tmu is taken under st.
type tracer struct {
	tmu sync.Mutex
}

func (s *Server) deferred(tr *tracer) {
	s.st.Lock()
	defer s.st.Unlock()
	tr.tmu.Lock() // want "serve.tracer.tmu acquired while serve.Server.st is held"
	tr.tmu.Unlock()
}
