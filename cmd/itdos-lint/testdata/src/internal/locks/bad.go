// Package locks holds fixtures for the lock-hold check (which scopes to the
// whole module, so any fixture path exercises it).
package locks

import "sync"

type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func (c *counter) leakOnReturn() int {
	c.mu.Lock() // want:lock-hold
	if c.n > 0 {
		return c.n // leaks the lock on this path
	}
	c.mu.Unlock()
	return 0
}

func (c *counter) neverUnlocks() {
	c.mu.Lock() // want:lock-hold
	c.n++
}

func (c *counter) readLeak() int {
	c.rw.RLock() // want:lock-hold
	return c.n
}

func (c *counter) wrongMode() {
	c.rw.RLock() // want:lock-hold
	c.rw.Unlock()
}

// Two mutexes are two obligations: releasing one says nothing about the other.
func transfer(from, to *counter) {
	from.mu.Lock()
	to.mu.Lock() // want:lock-hold
	from.n--
	to.n++
	from.mu.Unlock()
}

// A closure may or may not run, and a mutex cannot be handed to it the way
// a variable can: its Unlock does not close this function's Lock.
func (c *counter) unlockInClosure() func() {
	c.mu.Lock() // want:lock-hold
	return func() { c.mu.Unlock() }
}

// tally is the keep-test row: cluster.RunLoad's per-call result closure
// with its deferred Unlock dropped. The second call deadlocks, but only
// itdos-load runs RunLoad; no test does.
func tally(calls int) int {
	var mu sync.Mutex
	n := 0
	for i := 0; i < calls; i++ {
		func() {
			mu.Lock() // want:lock-hold
			n++
		}()
	}
	return n
}
