// Package lockcheck_clean is a known-clean fixture: the mutex patterns
// lockcheck sanctions — defer-released locks, fully paired critical
// sections, blocking operations only after release, and sibling mutexes
// released independently.
package lockcheck_clean

import (
	"sync"

	"quasar/internal/par"
)

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	vals map[string]int
}

// DeferReleased is the canonical form: defer on the next line.
func (s *store) DeferReleased(k string, v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[k] = v
}

// PairedRelease releases in the same block with no return in between.
func (s *store) PairedRelease(k string, v int) {
	s.mu.Lock()
	s.vals[k] = v
	s.mu.Unlock()
}

// ReadDeferReleased pairs RLock with a deferred RUnlock.
func (s *store) ReadDeferReleased(k string) int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.vals[k]
}

// SendAfterUnlock copies under the lock and sends after releasing it.
func (s *store) SendAfterUnlock(ch chan<- int, k string) {
	s.mu.Lock()
	v := s.vals[k]
	s.mu.Unlock()
	ch <- v
}

// FanoutAfterUnlock snapshots under the lock and fans out after release.
func (s *store) FanoutAfterUnlock(out []int) {
	s.mu.Lock()
	n := len(s.vals)
	s.mu.Unlock()
	par.ParFor(len(out), func(i int) {
		out[i] = n + i
	})
}

// SiblingMutexes locks both mutexes and releases each one.
func (s *store) SiblingMutexes(k string, v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rw.Lock()
	defer s.rw.Unlock()
	s.vals[k] = v
}
