package correct

import (
	"testing"

	"exterminator/internal/alloc"
	"exterminator/internal/diefast"
	"exterminator/internal/mem"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/xrand"
)

func newAllocator(seed uint64) *Allocator {
	return New(diefast.New(diefast.DefaultConfig(), xrand.New(seed)))
}

func reqSize(a *Allocator, p mem.Addr) int {
	mh, slot, ok := a.Heap().Diehard().Lookup(p)
	if !ok {
		return -1
	}
	return int(mh.Meta(slot).ReqSize)
}

func TestPadAppliedToPatchedSite(t *testing.T) {
	a := newAllocator(1)
	ps := patch.New()
	ps.AddPad(0xAA, 6)
	a.Reload(ps)

	p, err := a.Malloc(10, 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	if got := reqSize(a, p); got != 16 {
		t.Fatalf("padded request size = %d, want 16", got)
	}
	q, _ := a.Malloc(10, 0xBB)
	if got := reqSize(a, q); got != 10 {
		t.Fatalf("unpatched site padded: %d", got)
	}
}

func TestPadContainsOverflow(t *testing.T) {
	// A 6-byte overflow from a patched site lands in the object's own
	// slot padding, never corrupting a neighbour (the Squid scenario).
	a := newAllocator(2)
	ps := patch.New()
	ps.AddPad(0x5151, 6)
	a.Reload(ps)
	for i := 0; i < 200; i++ {
		p, _ := a.Malloc(10, 0x5151)
		over := make([]byte, 16) // 10 valid + 6 overflow
		for j := range over {
			over[j] = 0x41
		}
		if f := a.Heap().Space().Write(p, over); f != nil {
			t.Fatalf("overflow write faulted: %v", f)
		}
		a.Free(p, 0)
	}
	if evs := a.Heap().Events(); len(evs) != 0 {
		t.Fatalf("padded overflow still corrupted canaries: %v", evs)
	}
}

func TestDeferralDelaysReuse(t *testing.T) {
	a := newAllocator(3)
	ps := patch.New()
	pair := site.Pair{Alloc: 0x1, Free: 0x2}
	ps.AddDeferral(pair, 10)
	a.Reload(ps)

	p, _ := a.Malloc(32, 0x1)
	if st := a.Free(p, 0x2); st != alloc.FreeDeferred {
		t.Fatalf("free status = %v, want deferred", st)
	}
	if a.PendingDeferrals() != 1 {
		t.Fatal("deferral not queued")
	}
	// For the next 10 allocations the slot must stay allocated: writes
	// through the (dangling) pointer hit memory nobody else owns.
	mh, slot, _ := a.Heap().Diehard().Lookup(p)
	for i := 0; i < 10; i++ {
		if !mh.InUse(slot) {
			t.Fatalf("slot released after %d allocations, deferral was 10", i)
		}
		a.Malloc(32, 0x9)
	}
	// The 10th allocation's drain released it (and a later allocation may
	// legitimately reuse the slot, so check immediately).
	if mh.InUse(slot) {
		t.Fatal("slot still held after deferral elapsed")
	}
	if a.PendingDeferrals() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestDeferralOnlyForMatchingPair(t *testing.T) {
	a := newAllocator(4)
	ps := patch.New()
	ps.AddDeferral(site.Pair{Alloc: 0x1, Free: 0x2}, 10)
	a.Reload(ps)

	p, _ := a.Malloc(32, 0x1)
	if st := a.Free(p, 0x3); st != alloc.FreeOK { // different free site
		t.Fatalf("free status = %v, want ok", st)
	}
	q, _ := a.Malloc(32, 0x7) // different alloc site
	if st := a.Free(q, 0x2); st != alloc.FreeOK {
		t.Fatalf("free status = %v, want ok", st)
	}
}

func TestDanglingWriteHarmlessUnderDeferral(t *testing.T) {
	// The paper's §6.2 correction in action: program frees too early,
	// then writes through the dangling pointer. With a deferral patch the
	// write lands in still-reserved memory and no other object corrupts.
	a := newAllocator(5)
	ps := patch.New()
	ps.AddDeferral(site.Pair{Alloc: 0xA, Free: 0xF}, 50)
	a.Reload(ps)

	p, _ := a.Malloc(64, 0xA)
	a.Free(p, 0xF) // premature free, deferred
	var others []mem.Addr
	for i := 0; i < 30; i++ {
		q, _ := a.Malloc(64, 0xB)
		a.Heap().Space().Write(q, []byte("OWNED-BY-Q"))
		others = append(others, q)
	}
	// Dangling write.
	a.Heap().Space().Write(p, []byte("DANGLING!!"))
	for _, q := range others {
		buf := make([]byte, 10)
		a.Heap().Space().Read(q, buf)
		if string(buf) != "OWNED-BY-Q" {
			t.Fatalf("dangling write corrupted another object: %q", buf)
		}
	}
}

func TestFIFOForEqualDueTimes(t *testing.T) {
	a := newAllocator(6)
	ps := patch.New()
	ps.AddDeferral(site.Pair{Alloc: 1, Free: 2}, 5)
	a.Reload(ps)
	p1, _ := a.Malloc(16, 1)
	p2, _ := a.Malloc(16, 1)
	a.Free(p1, 2)
	a.Free(p2, 2)
	if a.PendingDeferrals() != 2 {
		t.Fatal("both frees should queue")
	}
	a.Flush()
	if a.PendingDeferrals() != 0 {
		t.Fatal("flush left entries")
	}
}

func TestReloadOnTheFly(t *testing.T) {
	a := newAllocator(7)
	p, _ := a.Malloc(10, 0xAA)
	if got := reqSize(a, p); got != 10 {
		t.Fatal("pad before patch")
	}
	ps := patch.New()
	ps.AddPad(0xAA, 36)
	a.Reload(ps)
	q, _ := a.Malloc(10, 0xAA)
	if got := reqSize(a, q); got != 46 {
		t.Fatalf("pad after reload = %d", got)
	}
	a.Reload(nil)
	r, _ := a.Malloc(10, 0xAA)
	if got := reqSize(a, r); got != 10 {
		t.Fatalf("pad after nil reload = %d", got)
	}
}

func TestOverheadAccounting(t *testing.T) {
	a := newAllocator(8)
	ps := patch.New()
	ps.AddPad(0x1, 36)
	ps.AddDeferral(site.Pair{Alloc: 0x2, Free: 0x3}, 4)
	a.Reload(ps)

	var ptrs []mem.Addr
	for i := 0; i < 10; i++ {
		p, _ := a.Malloc(64, 0x1)
		ptrs = append(ptrs, p)
	}
	padPeak, _, _ := a.Overhead()
	if padPeak != 360 {
		t.Fatalf("pad peak = %d, want 360", padPeak)
	}
	for _, p := range ptrs {
		a.Free(p, 0x9)
	}
	// One 256-byte object deferred for 4 allocations = 1024 bytes drag
	// (the paper's §7.3 example).
	q, _ := a.Malloc(256, 0x2)
	a.Free(q, 0x3)
	_, drag, n := a.Overhead()
	if n != 1 || drag != 1024 {
		t.Fatalf("drag = %d over %d objects, want 1024 over 1", drag, n)
	}
}

func TestPadFallbackWhenTooLarge(t *testing.T) {
	a := newAllocator(9)
	ps := patch.New()
	ps.AddPad(0x1, 1<<21)
	a.Reload(ps)
	p, err := a.Malloc(alloc.MaxRequest-8, 0x1)
	if err != nil {
		t.Fatalf("padded-too-large request failed outright: %v", err)
	}
	if got := reqSize(a, p); got != alloc.MaxRequest-8 {
		t.Fatalf("fallback size = %d", got)
	}
}

func TestClockAdvances(t *testing.T) {
	a := newAllocator(10)
	a.Malloc(8, 0)
	a.Malloc(8, 0)
	if a.Clock() != 2 {
		t.Fatalf("clock = %d", a.Clock())
	}
}

func BenchmarkCorrectingMallocFreeNoPatches(b *testing.B) {
	a := newAllocator(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := a.Malloc(64, 0)
		a.Free(p, 0)
	}
}

func BenchmarkCorrectingMallocFreeWithPatches(b *testing.B) {
	a := newAllocator(1)
	ps := patch.New()
	for i := uint32(0); i < 100; i++ {
		ps.AddPad(site.ID(i), 8)
		ps.AddDeferral(site.Pair{Alloc: site.ID(i), Free: site.ID(i + 1)}, 3)
	}
	a.Reload(ps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := a.Malloc(64, site.ID(uint32(i%100)))
		a.Free(p, site.ID(uint32(i%100)+1))
	}
}

func TestFrontPadContainsUnderflow(t *testing.T) {
	// The §2.1 backward-overflow extension: a front pad makes writes
	// before the object land in its own slot.
	a := newAllocator(11)
	ps := patch.New()
	ps.AddFrontPad(0xB1, 12)
	a.Reload(ps)
	for i := 0; i < 200; i++ {
		p, _ := a.Malloc(24, 0xB1)
		under := make([]byte, 12)
		for j := range under {
			under[j] = 0xBB
		}
		// Underflow: write 12 bytes before the program's pointer.
		if f := a.Heap().Space().Write(p-12, under); f != nil {
			t.Fatalf("underflow write faulted despite front pad: %v", f)
		}
		if st := a.Free(p, 0x9); st != alloc.FreeOK {
			t.Fatalf("free of front-padded pointer = %v", st)
		}
	}
	if evs := a.Heap().Events(); len(evs) != 0 {
		t.Fatalf("front-padded underflow still corrupted canaries: %v", evs)
	}
	if got := len(a.Heap().Scan(false)); got != 0 {
		t.Fatalf("%d corrupt slots despite front pad", got)
	}
}

func TestFrontPadPointerAligned(t *testing.T) {
	a := newAllocator(12)
	ps := patch.New()
	ps.AddFrontPad(0x1, 5) // odd pad must round up to alignment
	a.Reload(ps)
	p, _ := a.Malloc(64, 0x1)
	if p%8 != 0 {
		t.Fatalf("front-padded pointer misaligned: %x", p)
	}
	// Word access at offset 0 must work as without the patch.
	if f := a.Heap().Space().Write64(p, 0xABCD); f != nil {
		t.Fatalf("aligned word write failed: %v", f)
	}
	a.Free(p, 0x2)
}

func TestFrontPadWithDeferral(t *testing.T) {
	// Front pads and deferrals compose: the deferral queue must hold the
	// slot base, not the adjusted pointer.
	a := newAllocator(13)
	ps := patch.New()
	ps.AddFrontPad(0x1, 8)
	ps.AddDeferral(site.Pair{Alloc: 0x1, Free: 0x2}, 5)
	a.Reload(ps)
	p, _ := a.Malloc(32, 0x1)
	if st := a.Free(p, 0x2); st != alloc.FreeDeferred {
		t.Fatalf("free = %v", st)
	}
	for i := 0; i < 6; i++ {
		a.Malloc(16, 0x9)
	}
	if a.PendingDeferrals() != 0 {
		t.Fatal("deferral never drained")
	}
	// The heap must be consistent afterwards.
	if err := a.Heap().Diehard().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFrontPadDoubleFreeBenign(t *testing.T) {
	a := newAllocator(14)
	ps := patch.New()
	ps.AddFrontPad(0x1, 8)
	a.Reload(ps)
	p, _ := a.Malloc(32, 0x1)
	a.Free(p, 0x2)
	// Second free: the translation entry is gone, so the raw pointer is
	// an interior pointer — detected as invalid, still benign.
	if st := a.Free(p, 0x2); st == alloc.FreeOK {
		t.Fatalf("double free of padded ptr freed something: %v", st)
	}
	if err := a.Heap().Diehard().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeferredFreeSparesSlotReuse is the injected dangling fault under its
// patch: a premature free is deferred, the program's own later free
// releases the object, and its slot is reused. The deferral coming due
// must leave the slot's new occupant alone.
func TestDeferredFreeSparesSlotReuse(t *testing.T) {
	a := newAllocator(15)
	ps := patch.New()
	ps.AddDeferral(site.Pair{Alloc: 0x1, Free: 0x2}, 1000)
	a.Reload(ps)

	p, _ := a.Malloc(32, 0x1)
	if st := a.Free(p, 0x2); st != alloc.FreeDeferred {
		t.Fatalf("premature free = %v, want deferred", st)
	}
	if st := a.Free(p, 0x3); st != alloc.FreeOK {
		t.Fatalf("program's own free = %v, want ok", st)
	}
	// Allocate and free until an object lands in the freed slot, well
	// before the deferral is due.
	reused := false
	for i := 0; i < 500 && !reused; i++ {
		q, _ := a.Malloc(32, 0x4)
		if reused = q == p; !reused {
			a.Free(q, 0x5)
		}
	}
	if !reused {
		t.Fatal("the freed slot was never reused")
	}
	mh, slot, _ := a.Heap().Diehard().Lookup(p)
	occupant := mh.Meta(slot).ID
	for a.PendingDeferrals() > 0 {
		q, _ := a.Malloc(16, 0x6)
		a.Free(q, 0x7)
	}
	if !mh.InUse(slot) || mh.Meta(slot).ID != occupant {
		t.Fatal("drain freed the slot's new occupant")
	}
	if st := a.Heap().Diehard().Stats(); st.DoubleFrees != 0 || st.InvalidFrees != 0 {
		t.Fatalf("drain counted %d double and %d invalid frees", st.DoubleFrees, st.InvalidFrees)
	}
}

// TestDeferredFreeLogsLogicalPair: when a deferred free comes due, the
// free log records the pair and time of the program's free, not the
// allocator's, so evidence from a patched run lands on the real pair.
func TestDeferredFreeLogsLogicalPair(t *testing.T) {
	a := New(diefast.New(diefast.CumulativeConfig(0.5), xrand.New(16)))
	ps := patch.New()
	ps.AddDeferral(site.Pair{Alloc: 0x1, Free: 0x2}, 10)
	a.Reload(ps)

	p, _ := a.Malloc(32, 0x1)
	mh, slot, _ := a.Heap().Diehard().Lookup(p)
	id := mh.Meta(slot).ID
	freedAt := a.Clock()
	a.Free(p, 0x2)
	for i := 0; i < 20; i++ {
		a.Malloc(16, 0x9)
	}
	for _, r := range a.Heap().FreeLog() {
		if r.ID != id {
			continue
		}
		if r.AllocSite != 0x1 || r.FreeSite != 0x2 || r.FreeTime != freedAt {
			t.Fatalf("free log records (%v, %v) at %d, want (0x1, 0x2) at %d",
				r.AllocSite, r.FreeSite, r.FreeTime, freedAt)
		}
		return
	}
	t.Fatal("the deferred free never reached the free log")
}

// TestDeferralQueuePopsInOrder: pushes and pops interleaved at random
// always pop the pending deferral that is first by (due, seq), duplicate
// due times included.
func TestDeferralQueuePopsInOrder(t *testing.T) {
	rng := xrand.New(7)
	var q deferralQueue
	var pending []deferred
	for seq := 1; seq <= 5000; seq++ {
		d := deferred{due: uint64(rng.Intn(64)), seq: seq}
		q.push(d)
		pending = append(pending, d)
		for len(q) > 0 && rng.Intn(3) == 0 {
			first := 0
			for i := range pending {
				if pending[i].before(&pending[first]) {
					first = i
				}
			}
			if got := q.pop(); got != pending[first] {
				t.Fatalf("popped (due %d, seq %d), want (due %d, seq %d)", got.due, got.seq, pending[first].due, pending[first].seq)
			}
			pending = append(pending[:first], pending[first+1:]...)
		}
	}
	if len(q) != len(pending) {
		t.Fatalf("queue holds %d deferrals, want %d", len(q), len(pending))
	}
}
