// Package ranked exercises the lockorder declaration checks: an edge
// against the declared rank order, a lock class missing from the
// declaration entirely, and a declared row whose mutex is gone. The test
// config declares Order = [A.mu, B.mu, Retired.mu, elsewhere.T.mu] with
// DeclarePkgs = ["ranked."]; the last row's package is not under
// analysis, so it stays silent.
package ranked // want `LockOrder row ranked\.Retired\.mu is stale: no analyzed function locks it`

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

// C's mutex is acquired but never declared in the canonical order.
type C struct{ mu sync.Mutex }

// Sequential never nests the two locks: no edge, no finding.
func Sequential(a *A, b *B) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// Outward acquires A.mu while holding B.mu: rank violation (but no
// cycle, since nothing ever acquires B.mu under A.mu).
func Outward(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock() // want `violates the canonical lock order`
	a.mu.Unlock()
}

// UsesC acquires the undeclared class.
func UsesC(c *C) {
	c.mu.Lock() // want `lock class ranked\.C\.mu is not declared in the canonical lock order`
	c.mu.Unlock()
}
