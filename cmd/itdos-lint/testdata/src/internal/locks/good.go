package locks

import "sync"

// Negative fixtures: the release disciplines the check must accept.

type gauge struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func (g *gauge) deferred() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

func (g *gauge) explicit() int {
	g.mu.Lock()
	n := g.n
	g.mu.Unlock()
	return n
}

func (g *gauge) readDeferred() int {
	g.rw.RLock()
	defer g.rw.RUnlock()
	return g.n
}

func (g *gauge) everyPath(flag bool) int {
	g.mu.Lock()
	if flag {
		g.mu.Unlock()
		return 1
	}
	g.mu.Unlock()
	return 0
}

func (g *gauge) deferredClosure() int {
	g.mu.Lock()
	defer func() {
		g.n = 0
		g.mu.Unlock()
	}()
	return g.n
}

// a closure is its own scope: its internal lock discipline is checked
// independently of the enclosing function.
func (g *gauge) closureScope() func() int {
	return func() int {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.n
	}
}

func move(from, to *gauge) {
	from.mu.Lock()
	to.mu.Lock()
	from.n--
	to.n++
	to.mu.Unlock()
	from.mu.Unlock()
}
