// Package correct implements the correcting memory allocator (paper §6.3,
// Figure 6).
//
// The correcting allocator wraps DieFast and applies runtime patches:
//
//   - on every malloc it advances the allocation clock, executes any
//     deferred frees that have come due, and pads the request if the
//     allocation site has a pad-table entry;
//   - on every free it consults the deferral table for the (allocation
//     site, deallocation site) pair and either frees immediately or
//     pushes the object on a deferral priority queue, which frees it
//     when due at the site and time the program freed it, unless the
//     program has freed it itself meanwhile.
//
// Patches can be reloaded at any time (the paper's on-the-fly reload
// signal for running replicas), and the pad/deferral tables rebuild
// without interrupting execution.
package correct

import (
	"exterminator/internal/alloc"
	"exterminator/internal/diefast"
	"exterminator/internal/heap"
	"exterminator/internal/mem"
	"exterminator/internal/patch"
	"exterminator/internal/site"
)

// deferred is one queued deallocation: the object the program freed, and
// where and when it freed it.
type deferred struct {
	ptr  mem.Addr
	id   heap.ObjectID
	site site.ID // logical free site
	time uint64  // logical free time
	due  uint64  // allocation clock at which to really free
	seq  int     // FIFO tie-break for equal due times
}

// before orders deferrals by due time, then by seq. Every seq is
// distinct, so the order is strict and total, and the queue pops
// deferrals in one sequence whatever its internal layout.
func (d *deferred) before(e *deferred) bool {
	if d.due != e.due {
		return d.due < e.due
	}
	return d.seq < e.seq
}

// deferralQueue is a binary min-heap of deferrals in before order. It
// holds its entries by value, so pushing and popping allocate nothing
// once the slice has grown.
type deferralQueue []deferred

// push adds d, sifting it up from the bottom.
func (q *deferralQueue) push(d deferred) {
	*q = append(*q, d)
	h := *q
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(&h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
}

// pop removes and returns the first deferral, sifting the last one down
// from the top. The queue must not be empty.
func (q *deferralQueue) pop() deferred {
	h := *q
	first, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(&h[j]) {
			j = r
		}
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h
	return first
}

// Allocator is the correcting allocator.
type Allocator struct {
	heap    *diefast.Heap
	patches *patch.Set
	queue   deferralQueue
	seq     int

	// frontPads maps the pointer handed to the program to its leading
	// pad: with a front pad the program sees slotBase+frontPad, and the
	// allocator must translate back on free (the §2.1 backward-overflow
	// extension).
	frontPads map[mem.Addr]int

	// accounting for §7.3 (patch overhead)
	padBytesLive  int
	padBytesPeak  int
	deferredBytes uint64 // Σ size × deferral length ("drag", §6.2)
	deferredCount uint64
	padSizes      map[mem.Addr]int // live pad per object (keyed by slot base)
}

var _ alloc.Allocator = (*Allocator)(nil)

// New wraps a DieFast heap with an (initially empty) patch set.
func New(h *diefast.Heap) *Allocator {
	return &Allocator{
		heap:      h,
		patches:   patch.New(),
		padSizes:  make(map[mem.Addr]int),
		frontPads: make(map[mem.Addr]int),
	}
}

// Heap returns the underlying DieFast heap.
func (a *Allocator) Heap() *diefast.Heap { return a.heap }

// Patches returns the active patch set.
func (a *Allocator) Patches() *patch.Set { return a.patches }

// Reload installs a new patch set, as the paper's reload signal does for
// running replicas. Already-queued deferrals keep their original due
// times; future operations use the new tables.
func (a *Allocator) Reload(p *patch.Set) {
	if p == nil {
		p = patch.New()
	}
	a.patches = p
}

// Clock returns the allocation clock.
func (a *Allocator) Clock() uint64 { return a.heap.Clock() }

// Malloc implements Figure 6's correcting_malloc, extended with leading
// pads: with a front pad f the allocator requests size+f+pad bytes and
// returns base+f, so underflows of up to f bytes stay inside the object's
// own slot.
func (a *Allocator) Malloc(size int, allocSite site.ID) (mem.Addr, error) {
	// The clock ticks inside DieFast's Commit; the deferral queue is
	// drained against the post-allocation clock, so an object deferred
	// "d allocations" survives exactly d further allocations.
	pad := int(a.patches.Pad(allocSite))
	front := int(a.patches.FrontPad(allocSite))
	// Keep the program-visible pointer 8-aligned so word accesses at
	// offset 0 behave as without the patch.
	front = (front + 7) &^ 7
	base, err := a.heap.Malloc(size+front+pad, allocSite)
	if err != nil && (pad > 0 || front > 0) {
		// A padded request can exceed the max size class; fall back to
		// the unpadded size rather than failing the program.
		base, err = a.heap.Malloc(size, allocSite)
		pad, front = 0, 0
	}
	if err != nil {
		return 0, err
	}
	if pad+front > 0 {
		a.padSizes[base] = pad + front
		a.padBytesLive += pad + front
		if a.padBytesLive > a.padBytesPeak {
			a.padBytesPeak = a.padBytesLive
		}
	}
	ptr := base + mem.Addr(front)
	if front > 0 {
		a.frontPads[ptr] = front
	}
	a.drain()
	return ptr, nil
}

// translate maps a program pointer back to its slot base (undoing any
// front pad) and reports the front pad applied.
func (a *Allocator) translate(ptr mem.Addr) (mem.Addr, int) {
	if f, ok := a.frontPads[ptr]; ok {
		return ptr - mem.Addr(f), f
	}
	return ptr, 0
}

// Free implements Figure 6's correcting_free: defer if the site pair has a
// deferral entry, otherwise free immediately. Front-padded pointers are
// translated back to their slot base first.
func (a *Allocator) Free(ptr mem.Addr, freeSite site.ID) alloc.FreeStatus {
	base, front := a.translate(ptr)
	mh, slot, ok := a.heap.Diehard().Lookup(base)
	if !ok {
		return a.heap.Free(base, freeSite) // counted invalid by diehard
	}
	if front > 0 {
		delete(a.frontPads, ptr)
	}
	m := mh.Meta(slot)
	pair := site.Pair{Alloc: m.AllocSite, Free: freeSite}
	d := a.patches.Deferral(pair)
	if d == 0 {
		a.unaccountPad(base)
		return a.heap.Free(base, freeSite)
	}
	// Record the logical free site now, so a heap image taken while the
	// object sits in the queue still shows where the program freed it.
	m.FreeSite = freeSite
	a.seq++
	now := a.heap.Clock()
	a.queue.push(deferred{ptr: base, id: m.ID, site: freeSite, time: now, due: now + d, seq: a.seq})
	a.deferredCount++
	a.deferredBytes += uint64(m.ReqSize) * d
	return alloc.FreeDeferred
}

// drain really-frees deferred objects that have come due (Figure 6's loop
// at the top of correcting_malloc).
func (a *Allocator) drain() {
	now := a.heap.Clock()
	for len(a.queue) > 0 && a.queue[0].due <= now {
		a.release(a.queue.pop())
	}
}

// Flush immediately frees everything in the deferral queue (used at
// program end so heap accounting balances).
func (a *Allocator) Flush() {
	for len(a.queue) > 0 {
		a.release(a.queue.pop())
	}
}

// release carries out one deferred free at the site and time the program
// made it. If the program has since freed the object itself, the slot is
// free or holds another object, and the entry is dropped: freeing by
// address alone would release an innocent occupant.
func (a *Allocator) release(d deferred) {
	mh, slot, ok := a.heap.Diehard().Lookup(d.ptr)
	if !ok || !mh.InUse(slot) || mh.Meta(slot).ID != d.id {
		return
	}
	a.unaccountPad(d.ptr)
	a.heap.FreeAt(d.ptr, d.site, d.time)
}

// PendingDeferrals returns the number of queued deallocations.
func (a *Allocator) PendingDeferrals() int { return len(a.queue) }

func (a *Allocator) unaccountPad(ptr mem.Addr) {
	if pad, ok := a.padSizes[ptr]; ok {
		a.padBytesLive -= pad
		delete(a.padSizes, ptr)
	}
}

// Overhead reports the space cost of active patches for §7.3:
// peak live pad bytes, and total drag (object bytes × allocations
// deferred).
func (a *Allocator) Overhead() (padPeakBytes int, dragBytes uint64, deferredObjects uint64) {
	return a.padBytesPeak, a.deferredBytes, a.deferredCount
}
