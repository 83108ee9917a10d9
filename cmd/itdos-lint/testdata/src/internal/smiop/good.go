package smiop

import "fixture/internal/pool"

func (c *conn) deferReleases(n int) []byte {
	b := pool.Get(n)
	defer b.Release()
	b.B = append(b.B, 0x5A)
	if n > c.fragSize {
		return nil
	}
	return append([]byte(nil), b.B...)
}

func (c *conn) releasedOnEveryPath(n int) int {
	b := pool.Get(n)
	if n > c.fragSize {
		b.Release()
		return 0
	}
	out := len(b.B)
	b.Release()
	return out
}

func (c *conn) detachTransfers(n int) []byte {
	b := pool.Get(n)
	b.B = append(b.B, 0x5A)
	return b.Detach()
}

func (c *conn) ownershipEscapesAsArgument(n int) {
	b := pool.Get(n)
	c.enqueue(b) // documented transfer: the queue releases on drain
}

func (c *conn) ownershipEscapesAsReturn(n int) *pool.Buffer {
	b := pool.Get(n)
	b.B = append(b.B, 0x5A)
	return b
}

func (c *conn) ownershipEscapesIntoField(n int) {
	b := pool.Get(n)
	c.spare = b
}

func (c *conn) ownershipEscapesIntoComposite(n int) []*pool.Buffer {
	b := pool.Get(n)
	return []*pool.Buffer{b}
}

func (c *conn) releasedByOwningClosure(n int) func() {
	b := pool.Get(n)
	return func() { b.Release() } // the returned closure owns the reference
}

func (c *conn) retainThenRelease(n int) {
	b := pool.Get(n)
	second := b.Retain() // second owner; escapes through the new reference
	second.Release()
	b.Release()
}

func (c *conn) enqueue(b *pool.Buffer) {
	b.Release()
}

func (c *conn) deferredClosureReleases(n int) int {
	b := pool.Get(n)
	defer func() {
		c.fragSize = len(b.B)
		b.Release()
	}()
	if n > c.fragSize {
		return 0
	}
	return n
}

func (c *conn) reassignedBeforeRelease(n int) {
	b := pool.Get(n)
	b = b.Retain() // written again: handed on, as any other use of the variable
	b.Release()
	b.Release()
}
