// Package tcpvia is the fixture home of the lock-discipline cases. The
// sync and via imports are deliberate extra violations (determinism and
// layering): the fixture policy strips the restricted leaf's exemption so
// every rule sees this file raw.
package tcpvia

import (
	"sync"

	"fixmod/internal/via"
)

// Manager mirrors the real tcpvia.Manager leaf-lock shape; metricsMu is
// declared in Policy.LeafLocks.
type Manager struct {
	metricsMu sync.Mutex
	n         int
}

// CountBad leaks the lock on the early-return path and re-enters a layered
// package while holding the leaf — must flag twice.
func (m *Manager) CountBad(skip bool) int {
	m.metricsMu.Lock() // lockorder violation: no Unlock on the skip path
	m.n++
	via.Poke() // lockorder violation: layered call under the leaf lock
	if skip {
		return m.n
	}
	m.metricsMu.Unlock()
	return m.n
}

// CountGood defers the unlock and stays inside the leaf — must NOT flag.
func (m *Manager) CountGood() int {
	m.metricsMu.Lock()
	defer m.metricsMu.Unlock()
	m.n++
	return m.n
}

// CountBranches unlocks explicitly on every path — must NOT flag.
func (m *Manager) CountBranches(fast bool) int {
	m.metricsMu.Lock()
	if fast {
		n := m.n
		m.metricsMu.Unlock()
		return n
	}
	m.n++
	m.metricsMu.Unlock()
	return m.n
}

// RelockBad locks the same mutex a second time while it is still held —
// must flag (self-deadlock: sync.Mutex is not reentrant).
func (m *Manager) RelockBad() {
	m.metricsMu.Lock()
	m.n++
	m.metricsMu.Lock() // lockorder violation: re-acquire while held
	m.n++
	m.metricsMu.Unlock()
}

// RelockGood releases before taking the mutex again — must NOT flag.
func (m *Manager) RelockGood() {
	m.metricsMu.Lock()
	m.n++
	m.metricsMu.Unlock()
	m.metricsMu.Lock()
	m.n++
	m.metricsMu.Unlock()
}

// UnlockUnheldBad releases a mutex no path through it acquired — must flag
// (sync: unlock of unlocked mutex is a runtime fault).
func (m *Manager) UnlockUnheldBad() {
	m.n++
	m.metricsMu.Unlock() // lockorder violation: nothing to unlock
}
