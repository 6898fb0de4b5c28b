// Fixture: unbalanced lock usage the CFG pass must catch — a leak on an
// early-return path and a straight-line double release.
package fixture

import "sync"

// Registry guards a map with a plain mutex.
type Registry struct {
	mu    sync.Mutex
	items map[string]int
}

// Get leaks the lock whenever the key is missing.
func (r *Registry) Get(key string) (int, bool) {
	r.mu.Lock()
	v, ok := r.items[key]
	if !ok {
		return 0, false
	}
	r.mu.Unlock()
	return v, true
}

// Reset releases twice on the only path through the function.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.items = nil
	r.mu.Unlock()
	r.mu.Unlock()
}

// Bump has the same nil guard as a nil-safe method, but defers the
// release only when verbose: the quiet path leaks the lock.
func (r *Registry) Bump(key string, verbose bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if verbose {
		defer r.mu.Unlock()
	}
	r.items[key]++
}
