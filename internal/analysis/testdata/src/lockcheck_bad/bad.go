// Package lockcheck_bad is a known-bad fixture: mutex misuse the lockcheck
// analyzer must flag — leaked locks, early returns inside critical
// sections, and blocking operations while a lock is held.
package lockcheck_bad

import (
	"sync"

	"quasar/internal/par"
)

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	vals map[string]int
}

// NeverReleased locks and forgets to unlock: every later caller deadlocks.
func (s *store) NeverReleased(k string, v int) {
	s.mu.Lock()
	s.vals[k] = v
}

// EarlyReturn releases on the happy path only; the early return leaks the
// lock.
func (s *store) EarlyReturn(k string) int {
	s.mu.Lock()
	v, ok := s.vals[k]
	if !ok {
		return -1
	}
	s.mu.Unlock()
	return v
}

// ReadLeaked takes the read lock and never releases it.
func (s *store) ReadLeaked(k string) int {
	s.rw.RLock()
	return s.vals[k]
}

// SendWhileLocked holds the lock across a channel send; if the receiver is
// not ready, the critical section blocks everyone.
func (s *store) SendWhileLocked(ch chan<- int, k string) {
	s.mu.Lock()
	ch <- s.vals[k]
	s.mu.Unlock()
}

// FanoutWhileLocked holds the lock across a par submission: every worker
// task runs (and blocks) inside the critical section.
func (s *store) FanoutWhileLocked(out []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	par.ParFor(len(out), func(i int) {
		out[i] = i
	})
}
