// Package serve is a lint fixture: its import-path segment places it in
// the scope of lockorder's hygiene and checkout checks, which were the
// lockhygiene rule before lockorder absorbed it.
package serve

import (
	"os"
	"sync"
)

type model struct{}

func (m *model) Update(_ []float64) error { return nil }
func (m *model) Estimate() float64        { return 1 }

type server struct {
	mu       sync.Mutex
	periodMu sync.Mutex
	model    *model
}

// badUpdateUnderLock trains the model while holding the serving lock.
func (s *server) badUpdateUnderLock(xs []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model.Update(xs) // want "under a held sync lock"
}

// badIOUnderLock reads a file while holding the lock.
func (s *server) badIOUnderLock() {
	s.mu.Lock()
	_, _ = os.ReadFile("/etc/hostname") // want "os.ReadFile under a held sync lock"
	s.mu.Unlock()
}

// goodShortLock releases the lock before the slow call.
func (s *server) goodShortLock(xs []float64) error {
	s.mu.Lock()
	m := s.model
	s.mu.Unlock()
	return m.Update(xs)
}

// goodTryLock mirrors handlePeriod: a non-blocking latch may span a full
// repair, so TryLock regions are exempt.
func (s *server) goodTryLock(xs []float64) error {
	if !s.periodMu.TryLock() {
		return nil
	}
	defer s.periodMu.Unlock()
	return s.model.Update(xs)
}

type replica struct{ model *model }

type replicaPool struct {
	free      chan *replica
	mu        sync.Mutex
	refreshMu sync.Mutex
}

// badCheckoutLock funnels every estimate through a mutex — the exact
// single-lock bottleneck the replica pool exists to remove.
func (p *replicaPool) badCheckoutLock() *replica {
	p.mu.Lock() // want "on the replica checkout path"
	defer p.mu.Unlock()
	return <-p.free
}

// goodRefresh: refreshMu serializes rare post-swap re-clones and is the
// one sanctioned lock on pool methods.
func (p *replicaPool) goodRefresh(r *replica) {
	p.refreshMu.Lock()
	defer p.refreshMu.Unlock()
	r.model = &model{}
}

// Estimate reintroduces a blocking serving lock on the public estimate
// path, which must stay channel-only.
func (s *server) Estimate() float64 {
	s.mu.Lock() // want "on the replica checkout path"
	defer s.mu.Unlock()
	return s.model.Estimate()
}
