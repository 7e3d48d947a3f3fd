// Package diefast implements DieFast, Exterminator's probabilistic
// debugging allocator (paper §3.3, Figure 4).
//
// DieFast keeps DieHard's randomized, over-provisioned layout and adds
// error *detection*:
//
//   - Freed space is (probabilistically) filled with a process-wide random
//     canary whose low bit is set. Freed slots double as implicit
//     fence-posts: no per-object padding is needed because live objects are
//     separated by E(M−1) freed slots.
//   - malloc verifies the canary of the slot about to be returned; a
//     corrupted slot signals an error and is "bad-object isolated": left
//     allocated forever so its contents survive for the error isolator.
//   - free checks both physically adjacent slots; a freed, canaried
//     neighbour with a broken canary signals a buffer overflow immediately.
//
// In iterative/replicated modes every freed slot is canaried (AlwaysFill);
// cumulative mode fills with probability p (default 1/2) so that canary
// placement becomes a Bernoulli trial that the §5.2 dangling-pointer
// isolation can correlate with failures.
//
// Allocated objects are zero-filled: Exterminator does not detect
// uninitialized reads (Table 1), it defines them away.
package diefast

import (
	"fmt"

	"exterminator/internal/alloc"
	"exterminator/internal/canary"
	"exterminator/internal/diehard"
	"exterminator/internal/heap"
	"exterminator/internal/mem"
	"exterminator/internal/site"
	"exterminator/internal/xrand"
)

// EventKind distinguishes how a corruption was discovered.
type EventKind int

const (
	// CorruptOnAlloc: malloc found the canary of the slot it was about to
	// return overwritten.
	CorruptOnAlloc EventKind = iota
	// CorruptOnFreeNeighbor: free found an adjacent freed slot's canary
	// overwritten.
	CorruptOnFreeNeighbor
	// CorruptOnScan: a full-heap sweep (cumulative mode end-of-run check)
	// found an overwritten canary.
	CorruptOnScan
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case CorruptOnAlloc:
		return "corrupt-on-alloc"
	case CorruptOnFreeNeighbor:
		return "corrupt-on-free-neighbor"
	case CorruptOnScan:
		return "corrupt-on-scan"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is a DieFast error signal: heap corruption detected at a specific
// slot. The victim's identity (the overwritten freed object) is recorded;
// finding the culprit is the error isolator's job.
type Event struct {
	Kind     EventKind
	Mini     int           // miniheap index
	Slot     int           // slot within the miniheap
	Addr     mem.Addr      // slot address
	VictimID heap.ObjectID // most recent occupant of the corrupted slot
	Clock    uint64        // allocation clock at detection
}

// String formats the event.
func (e Event) String() string {
	return fmt.Sprintf("%s mini=%d slot=%d addr=0x%x victim=%d t=%d",
		e.Kind, e.Mini, e.Slot, e.Addr, e.VictimID, e.Clock)
}

// Config parameterizes DieFast.
type Config struct {
	Diehard diehard.Config
	// AlwaysFill fills every freed slot with canaries (iterative and
	// replicated modes; "notCumulativeMode" in Figure 4).
	AlwaysFill bool
	// FillProb is the canary fill probability p when AlwaysFill is false.
	// The paper sets p = 1/2 (§5.2).
	FillProb float64
	// LogFrees records a FreeRecord per successful free — the per-run
	// Bernoulli-trial data cumulative-mode dangling isolation needs
	// (paper §5.2).
	LogFrees bool
}

// FreeRecord is one entry of the cumulative-mode free log.
type FreeRecord struct {
	ID        heap.ObjectID
	AllocSite site.ID
	FreeSite  site.ID
	FreeTime  uint64
	Canaried  bool
	Class     int
}

// DefaultConfig returns the iterative/replicated-mode configuration.
func DefaultConfig() Config {
	return Config{Diehard: diehard.DefaultConfig(), AlwaysFill: true, FillProb: 0.5}
}

// CumulativeConfig returns the cumulative-mode configuration with canary
// probability p (the paper's p = 1/2) and allocation/free logging enabled.
func CumulativeConfig(p float64) Config {
	dh := diehard.DefaultConfig()
	dh.LogAllocs = true
	return Config{Diehard: dh, AlwaysFill: false, FillProb: p, LogFrees: true}
}

// Heap is a DieFast heap.
type Heap struct {
	dh  *diehard.Heap
	can canary.Canary
	cfg Config
	rng *xrand.RNG

	// OnError, if set, is invoked synchronously for each detection. The
	// driver uses it to stop execution and dump a heap image.
	OnError func(Event)

	events  []Event
	checks  uint64 // canary verifications performed (perf accounting)
	freeLog []FreeRecord
}

var _ alloc.Allocator = (*Heap)(nil)

// New creates a DieFast heap. rng seeds the heap layout, the canary value
// and the probabilistic fill decisions; different seeds yield fully
// independent heaps.
func New(cfg Config, rng *xrand.RNG) *Heap {
	if cfg.FillProb <= 0 || cfg.FillProb > 1 {
		cfg.FillProb = 0.5
	}
	space := mem.NewSpace(rng.Split())
	return &Heap{
		dh:  diehard.New(cfg.Diehard, space, rng.Split()),
		can: canary.New(rng),
		cfg: cfg,
		rng: rng.Split(),
	}
}

// Diehard exposes the underlying DieHard heap (for image capture and the
// correcting allocator).
func (h *Heap) Diehard() *diehard.Heap { return h.dh }

// Space returns the simulated address space.
func (h *Heap) Space() *mem.Space { return h.dh.Space() }

// Canary returns the process-wide canary value.
func (h *Heap) Canary() canary.Canary { return h.can }

// Clock returns the allocation clock.
func (h *Heap) Clock() uint64 { return h.dh.Clock() }

// Events returns all error signals raised so far.
func (h *Heap) Events() []Event { return h.events }

// Checks returns the number of canary verifications performed.
func (h *Heap) Checks() uint64 { return h.checks }

// Malloc implements Figure 4's diefast_malloc: allocate, verify that the
// slot's canary (if any) is intact, signal and bad-isolate on corruption,
// and zero-fill the returned object.
func (h *Heap) Malloc(size int, allocSite site.ID) (mem.Addr, error) {
	class := alloc.ClassForSize(size)
	if class < 0 {
		return 0, fmt.Errorf("diefast: unsatisfiable request of %d bytes", size)
	}
	for {
		mh, slot := h.dh.AllocSlot(class)
		m := mh.Meta(slot)
		if m.Canaried {
			h.checks++
			if !h.can.Verify(mh.SlotData(slot)) {
				// Corrupted: signal, isolate, and try another slot. The
				// object id is NOT consumed, so ids stay aligned across
				// replicas that did not observe this corruption.
				h.dh.MarkBad(mh, slot)
				h.signal(Event{
					Kind: CorruptOnAlloc, Mini: mh.Index, Slot: slot,
					Addr: mh.SlotAddr(slot), VictimID: m.ID, Clock: h.dh.Clock(),
				})
				continue
			}
		}
		addr := h.dh.Commit(mh, slot, size, allocSite)
		m.Canaried = false
		zero(mh.SlotData(slot))
		return addr, nil
	}
}

// Free implements Figure 4's diefast_free: release the slot,
// probabilistically canary it, and verify the canaries of both physically
// adjacent slots if they are free.
func (h *Heap) Free(ptr mem.Addr, freeSite site.ID) alloc.FreeStatus {
	return h.FreeAt(ptr, freeSite, h.Clock())
}

// FreeAt is Free with the free time given, for a free the program made
// earlier (a deferred free); the free log records that time.
func (h *Heap) FreeAt(ptr mem.Addr, freeSite site.ID, freeTime uint64) alloc.FreeStatus {
	mh, slot, ok := h.dh.Lookup(ptr)
	if !ok {
		return h.dh.FreeAt(ptr, freeSite, freeTime) // counts the invalid free
	}
	st := h.dh.FreeAt(ptr, freeSite, freeTime)
	if st != alloc.FreeOK {
		return st
	}
	m := mh.Meta(slot)
	// Probabilistically fill with canary (always outside cumulative mode).
	if h.cfg.AlwaysFill || h.rng.Bool(h.cfg.FillProb) {
		h.can.Fill(mh.SlotData(slot))
		m.Canaried = true
	} else {
		m.Canaried = false
	}
	if h.cfg.LogFrees {
		h.freeLog = append(h.freeLog, FreeRecord{
			ID: m.ID, AllocSite: m.AllocSite, FreeSite: m.FreeSite,
			FreeTime: m.FreeTime, Canaried: m.Canaried, Class: mh.Class,
		})
	}
	// Check the preceding and following slots.
	h.checkNeighbor(mh, slot-1)
	h.checkNeighbor(mh, slot+1)
	return st
}

// FreeLog returns the free log (nil unless Config.LogFrees).
func (h *Heap) FreeLog() []FreeRecord { return h.freeLog }

func (h *Heap) checkNeighbor(mh *heap.Miniheap, slot int) {
	if slot < 0 || slot >= mh.Slots || mh.InUse(slot) {
		return
	}
	m := mh.Meta(slot)
	if !m.Canaried {
		return
	}
	h.checks++
	if h.can.Verify(mh.SlotData(slot)) {
		return
	}
	// Preserve the evidence exactly as the alloc-time check does.
	h.dh.Isolate(mh, slot)
	h.signal(Event{
		Kind: CorruptOnFreeNeighbor, Mini: mh.Index, Slot: slot,
		Addr: mh.SlotAddr(slot), VictimID: m.ID, Clock: h.dh.Clock(),
	})
}

// Corruption describes one corrupted canaried slot found by Scan.
type Corruption struct {
	Mini, Slot int
	VictimID   heap.ObjectID
	Ranges     []canary.Range // corrupted byte ranges within the slot
}

// Scan sweeps the whole heap for overwritten canaries — the cumulative
// mode's corruption check and the basis of the paper's claim that heap
// corruption is caught within E(H) allocations. Scan itself raises no
// events unless signal is true.
func (h *Heap) Scan(signal bool) []Corruption {
	var out []Corruption
	for _, mh := range h.dh.Miniheaps() {
		for slot := 0; slot < mh.Slots; slot++ {
			m := mh.Meta(slot)
			if mh.InUse(slot) && !m.Bad {
				continue
			}
			if !m.Canaried {
				continue
			}
			h.checks++
			rs := h.can.CorruptRanges(mh.SlotData(slot))
			if len(rs) == 0 {
				continue
			}
			out = append(out, Corruption{Mini: mh.Index, Slot: slot, VictimID: m.ID, Ranges: rs})
			if signal {
				h.signal(Event{
					Kind: CorruptOnScan, Mini: mh.Index, Slot: slot,
					Addr: mh.SlotAddr(slot), VictimID: m.ID, Clock: h.dh.Clock(),
				})
			}
		}
	}
	return out
}

func (h *Heap) signal(e Event) {
	h.events = append(h.events, e)
	if h.OnError != nil {
		h.OnError(e)
	}
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
