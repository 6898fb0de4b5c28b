// Fixture: balanced lock usage — explicit release on every path, deferred
// release (direct and through a closure), read locks, and an unlock-only
// helper whose lock is held by the caller.
package fixture

import "sync"

// Counter guards a value with a RWMutex.
type Counter struct {
	mu sync.RWMutex
	n  int
}

// Add balances on the straight path.
func (c *Counter) Add(d int) {
	c.mu.Lock()
	c.n += d
	c.mu.Unlock()
}

// Snapshot releases via defer on every path, including the early return.
func (c *Counter) Snapshot(clamp bool) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if clamp && c.n < 0 {
		return 0
	}
	return c.n
}

// Guarded releases inside a deferred closure.
func (c *Counter) Guarded(f func() int) int {
	c.mu.Lock()
	defer func() {
		c.mu.Unlock()
	}()
	return f()
}

// releaseLocked is an unlock-only helper: the caller holds the lock, so a
// single Unlock here is not a double release.
func (c *Counter) releaseLocked() {
	c.n = 0
	c.mu.Unlock()
}

// Branchy releases on both arms before returning.
func (c *Counter) Branchy(hi bool) int {
	c.mu.Lock()
	if hi {
		c.n++
		c.mu.Unlock()
		return c.n
	}
	c.mu.Unlock()
	return 0
}

// Tracer is a nil-safe recorder: a nil *Tracer records nothing.
type Tracer struct {
	mu    sync.Mutex
	spans []int
}

// Add returns early on a nil receiver before the lock is taken; the
// locked path defers its release. The early-return path never held the
// lock, so it needs no deferred release of its own.
func (t *Tracer) Add(span int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span)
	return len(t.spans)
}
