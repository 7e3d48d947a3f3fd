// Package mutator is the simulated-program substrate: the stand-in for
// the unmodified C/C++ binaries Exterminator runs underneath.
//
// A Program is deterministic given its input and program-level random
// seed, so running it over differently seeded heaps yields the aligned
// object ids that iterative/replicated isolation requires (§4). Programs
// allocate through an alloc.Allocator, access memory through the
// simulated address space (loads/stores that trap raise panics the
// driver converts into crash outcomes — the analogue of the paper's
// SIGSEGV handler that dumps a heap image), maintain a simulated call
// stack for site hashing (§3.2), and write observable output that the
// replicated-mode voter compares.
//
// The Env supports the malloc breakpoint of iterative mode (§3.4): replay
// stops when the allocation clock reaches the clock recorded in the
// original error's heap image.
package mutator

import (
	"bytes"
	"fmt"
	"sort"

	"exterminator/internal/alloc"
	"exterminator/internal/freelist"
	"exterminator/internal/mem"
	"exterminator/internal/site"
	"exterminator/internal/xrand"
)

// Ptr is a simulated pointer.
type Ptr = mem.Addr

// Program is a simulated application.
type Program interface {
	// Name identifies the workload (used in reports).
	Name() string
	// Run executes the program against the environment. Bugs manifest as
	// panics (memory faults, allocator aborts) or calls to Env.Fail.
	Run(e *Env)
}

// Hook observes allocation events; the fault injector uses it to plant
// bugs at deterministic logical points.
type Hook interface {
	// AfterMalloc runs after each successful program allocation. ord is
	// the allocation ordinal (clock value), ptr/size describe the object.
	AfterMalloc(e *Env, ord uint64, ptr Ptr, size int)
}

// Stop is the panic value used to halt execution deliberately (e.g. when
// DieFast signals an error in stop-on-error mode). The driver reports it
// as a stopped — not crashed — outcome.
type Stop struct {
	Reason string
}

// breakpoint is the internal panic value for malloc breakpoints.
type breakpoint struct{}

// failure is the internal panic value for Env.Fail (abort()-style exits).
type failure struct {
	msg string
}

// Object tracks one live program allocation (injector victim pool).
type Object struct {
	Ord  uint64
	Ptr  Ptr
	Size int
}

// Env is the execution environment handed to programs.
type Env struct {
	Alloc alloc.Allocator
	Space *mem.Space
	Stack *site.Stack
	Out   bytes.Buffer
	Rng   *xrand.RNG // program-level randomness: same seed across replicas
	Input []byte

	// StopAtClock, when nonzero, stops execution once the allocation
	// clock reaches it (the malloc breakpoint).
	StopAtClock uint64
	// Hook, when non-nil, observes allocations (fault injection).
	Hook Hook
	// NoSites skips call-site hashing (the libc baseline of Figure 7
	// computes no allocation contexts; Exterminator's cost of doing so
	// "dominates" on allocation-intensive programs, §7.1).
	NoSites bool

	live map[Ptr]Object
}

// NewEnv builds an environment around an allocator.
func NewEnv(a alloc.Allocator, space *mem.Space, rng *xrand.RNG, input []byte) *Env {
	return &Env{
		Alloc: a,
		Space: space,
		Stack: &site.Stack{},
		Rng:   rng,
		Input: input,
		live:  make(map[Ptr]Object),
	}
}

func (e *Env) siteHash() site.ID {
	if e.NoSites {
		return 0
	}
	return e.Stack.Hash()
}

// Malloc allocates n bytes at the current call site. Allocation failure
// aborts the program (as a real malloc returning NULL followed by a
// dereference would).
func (e *Env) Malloc(n int) Ptr {
	ptr, err := e.Alloc.Malloc(n, e.siteHash())
	if err != nil {
		panic(&mem.Fault{Kind: mem.SegV, Addr: 0, Op: "malloc-failed"})
	}
	ord := e.Alloc.Clock()
	e.live[ptr] = Object{Ord: ord, Ptr: ptr, Size: n}
	if e.Hook != nil {
		e.Hook.AfterMalloc(e, ord, ptr, n)
	}
	if e.StopAtClock != 0 && ord >= e.StopAtClock {
		panic(breakpoint{})
	}
	return ptr
}

// Free releases ptr at the current call site.
func (e *Env) Free(ptr Ptr) {
	e.Alloc.Free(ptr, e.siteHash())
	delete(e.live, ptr)
}

// FreeUnderneath releases an object without the program's knowledge —
// the injector's premature free. The object stays in the program's
// conceptual ownership, so later program accesses become dangling
// reads/writes and its eventual Free becomes a double free.
func (e *Env) FreeUnderneath(ptr Ptr) {
	e.Alloc.Free(ptr, e.siteHash())
}

// Live returns the live objects ordered by allocation ordinal, in a new
// slice the caller owns. It sorts on every call: the injector calls it
// once per run.
func (e *Env) Live() []Object {
	out := make([]Object, 0, len(e.live))
	for _, o := range e.live {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ord < out[j].Ord })
	return out
}

// Object returns the live object at ptr, if any.
func (e *Env) Object(ptr Ptr) (Object, bool) {
	o, ok := e.live[ptr]
	return o, ok
}

// Write stores data at ptr+off, trapping on bad addresses.
func (e *Env) Write(ptr Ptr, off int, data []byte) {
	if f := e.Space.Write(ptr+Ptr(off), data); f != nil {
		panic(f)
	}
}

// Read loads len(buf) bytes from ptr+off, trapping on bad addresses.
func (e *Env) Read(ptr Ptr, off int, buf []byte) {
	if f := e.Space.Read(ptr+Ptr(off), buf); f != nil {
		panic(f)
	}
}

// Write64 stores a word, trapping on bad or misaligned addresses.
func (e *Env) Write64(ptr Ptr, off int, v uint64) {
	if f := e.Space.Write64(ptr+Ptr(off), v); f != nil {
		panic(f)
	}
}

// Read64 loads a word, trapping on bad or misaligned addresses.
func (e *Env) Read64(ptr Ptr, off int) uint64 {
	v, f := e.Space.Read64(ptr + Ptr(off))
	if f != nil {
		panic(f)
	}
	return v
}

// Deref follows a stored pointer value: the classic way a canary read
// turns into a crash (its low bit forces an alignment trap; its random
// high bits hit unmapped space).
func (e *Env) Deref(value uint64) uint64 {
	v, f := e.Space.Read64(mem.Addr(value))
	if f != nil {
		panic(f)
	}
	return v
}

// Call runs fn inside a simulated call frame with return address pc,
// giving allocations inside fn a distinct call site.
func (e *Env) Call(pc uint64, fn func()) {
	e.Stack.Push(pc)
	defer e.Stack.Pop()
	fn()
}

// Print writes voter-visible output.
func (e *Env) Print(args ...any) {
	fmt.Fprintln(&e.Out, args...)
}

// Printf writes formatted voter-visible output.
func (e *Env) Printf(format string, args ...any) {
	fmt.Fprintf(&e.Out, format, args...)
}

// Fail aborts the program with a message, as a failed assertion or
// abort() would. Distinct from a crash: the program detected its own
// confusion (e.g. espresso reading canary bytes as bitset data).
func (e *Env) Fail(msg string) {
	panic(failure{msg: msg})
}

// Outcome describes how a run ended.
type Outcome struct {
	Program string
	// Completed: Run returned normally.
	Completed bool
	// Crashed: a memory fault (simulated SIGSEGV/SIGBUS) or allocator
	// abort terminated the run.
	Crashed bool
	Fault   *mem.Fault      // non-nil for memory faults
	Abort   *freelist.Abort // non-nil for freelist allocator aborts
	// Stopped: halted deliberately via Stop (stop-on-error).
	Stopped    bool
	StopReason string
	// BreakpointHit: the malloc breakpoint was reached.
	BreakpointHit bool
	// Failed: the program aborted itself via Env.Fail.
	Failed  bool
	FailMsg string

	Output []byte
	Clock  uint64
}

// Bad reports whether the run ended abnormally (crash or self-detected
// failure) — the cumulative mode's "failed run" predicate.
func (o *Outcome) Bad() bool { return o.Crashed || o.Failed }

// String summarizes the outcome.
func (o *Outcome) String() string {
	switch {
	case o.Crashed && o.Fault != nil:
		return fmt.Sprintf("%s: crashed (%v) at clock %d", o.Program, o.Fault, o.Clock)
	case o.Crashed && o.Abort != nil:
		return fmt.Sprintf("%s: aborted (%v) at clock %d", o.Program, o.Abort, o.Clock)
	case o.Crashed:
		return fmt.Sprintf("%s: crashed at clock %d", o.Program, o.Clock)
	case o.Failed:
		return fmt.Sprintf("%s: failed (%s) at clock %d", o.Program, o.FailMsg, o.Clock)
	case o.Stopped:
		return fmt.Sprintf("%s: stopped (%s) at clock %d", o.Program, o.StopReason, o.Clock)
	case o.BreakpointHit:
		return fmt.Sprintf("%s: hit malloc breakpoint at clock %d", o.Program, o.Clock)
	default:
		return fmt.Sprintf("%s: completed at clock %d", o.Program, o.Clock)
	}
}

// Run executes a program, converting panics into classified outcomes —
// the role the paper's signal handlers play.
func Run(p Program, e *Env) (out *Outcome) {
	out = &Outcome{Program: p.Name()}
	defer func() {
		out.Output = e.Out.Bytes()
		out.Clock = e.Alloc.Clock()
		r := recover()
		switch v := r.(type) {
		case nil:
			out.Completed = true
		case breakpoint:
			out.BreakpointHit = true
		case Stop:
			out.Stopped = true
			out.StopReason = v.Reason
		case *Stop:
			out.Stopped = true
			out.StopReason = v.Reason
		case failure:
			out.Failed = true
			out.FailMsg = v.msg
		case *mem.Fault:
			out.Crashed = true
			out.Fault = v
		case *freelist.Abort:
			out.Crashed = true
			out.Abort = v
		default:
			panic(r) // genuine bug in the harness: do not swallow
		}
	}()
	p.Run(e)
	return out
}
