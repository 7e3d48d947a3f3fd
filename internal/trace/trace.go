// Package trace records and replays allocation traces.
//
// A Recorder is allocator middleware: wrapped around any alloc.Allocator
// it logs every malloc/free with sizes and call sites. A Player replays
// a recorded trace — as a mutator.Program — against any other allocator,
// which is how memory-management studies compare allocators on identical
// workloads (the methodology behind the paper's §7.1 suite) and how a
// deployed site can ship a repro trace instead of its binary.
//
// The binary format round-trips losslessly and is versioned like the
// heap-image and patch formats.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"exterminator/internal/alloc"
	"exterminator/internal/mem"
	"exterminator/internal/mutator"
	"exterminator/internal/site"
)

// OpKind distinguishes trace records.
type OpKind uint8

const (
	// OpMalloc allocates; Arg is the requested size.
	OpMalloc OpKind = iota
	// OpFree frees; Arg is the index of the malloc op that created the
	// object (object identity is positional, not address-based, so a
	// trace replays on any allocator).
	OpFree
)

// Op is one trace record.
type Op struct {
	Kind OpKind
	Arg  uint64
	Site site.ID
}

// Trace is a recorded operation sequence.
type Trace struct {
	Ops []Op
}

// Recorder wraps an allocator and logs operations through it.
type Recorder struct {
	inner alloc.Allocator
	trace *Trace
	index map[mem.Addr]uint64 // live address -> malloc op index
}

var _ alloc.Allocator = (*Recorder)(nil)

// NewRecorder wraps inner.
func NewRecorder(inner alloc.Allocator) *Recorder {
	return &Recorder{inner: inner, trace: &Trace{}, index: make(map[mem.Addr]uint64)}
}

// Trace returns the recording so far.
func (r *Recorder) Trace() *Trace { return r.trace }

// Malloc implements alloc.Allocator.
func (r *Recorder) Malloc(size int, s site.ID) (mem.Addr, error) {
	ptr, err := r.inner.Malloc(size, s)
	if err != nil {
		return 0, err
	}
	r.index[ptr] = uint64(len(r.trace.Ops))
	r.trace.Ops = append(r.trace.Ops, Op{Kind: OpMalloc, Arg: uint64(size), Site: s})
	return ptr, nil
}

// Free implements alloc.Allocator. Invalid/double frees are forwarded but
// not recorded (they have no positional identity).
func (r *Recorder) Free(ptr mem.Addr, s site.ID) alloc.FreeStatus {
	idx, known := r.index[ptr]
	st := r.inner.Free(ptr, s)
	if known && (st == alloc.FreeOK || st == alloc.FreeDeferred) {
		delete(r.index, ptr)
		r.trace.Ops = append(r.trace.Ops, Op{Kind: OpFree, Arg: idx, Site: s})
	}
	return st
}

// Clock implements alloc.Allocator.
func (r *Recorder) Clock() uint64 { return r.inner.Clock() }

// Player replays a trace as a mutator.Program: mallocs and frees execute
// in recorded order with recorded sizes and sites, and each object's
// payload is touched so the replay exercises memory, not just metadata.
type Player struct {
	T *Trace
	// TraceName labels the program.
	TraceName string
}

// Name implements mutator.Program.
func (p Player) Name() string {
	if p.TraceName != "" {
		return "trace:" + p.TraceName
	}
	return "trace"
}

// Run implements mutator.Program.
func (p Player) Run(e *mutator.Env) {
	ptrs := make(map[uint64]mutator.Ptr, 64)
	sizes := make(map[uint64]int, 64)
	for i, op := range p.T.Ops {
		switch op.Kind {
		case OpMalloc:
			var ptr mutator.Ptr
			e.Call(uint64(op.Site), func() { ptr = e.Malloc(int(op.Arg)) })
			ptrs[uint64(i)] = ptr
			sizes[uint64(i)] = int(op.Arg)
			// Touch the object like a program would.
			n := int(op.Arg)
			if n > 8 {
				n = 8
			}
			e.Write(ptr, 0, make([]byte, n))
		case OpFree:
			ptr, ok := ptrs[op.Arg]
			if !ok {
				e.Fail(fmt.Sprintf("trace: free of unknown op %d", op.Arg))
			}
			e.Call(uint64(op.Site), func() { e.Free(ptr) })
			delete(ptrs, op.Arg)
			delete(sizes, op.Arg)
		}
	}
	e.Printf("trace replay done: %d ops, %d leaked\n", len(p.T.Ops), len(ptrs))
}

// Binary format.
const (
	magic   = 0x43415458 // "XTAC"
	version = 1
)

// Encode writes the trace.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(t.Ops)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for _, op := range t.Ops {
		var rec [13]byte
		rec[0] = byte(op.Kind)
		binary.LittleEndian.PutUint64(rec[1:], op.Arg)
		binary.LittleEndian.PutUint32(rec[9:], uint32(op.Site))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a trace written by Encode. The last op must end the
// input: a trace with bytes after it is refused.
func Decode(r io.Reader) (*Trace, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, errors.New("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > 1<<28 {
		return nil, errors.New("trace: implausible op count")
	}
	// The count is unchecked until the records arrive: a forged one on a
	// short file cannot pre-allocate more than 1,024 ops.
	t := &Trace{Ops: make([]Op, 0, min(n, 1024))}
	for i := uint32(0); i < n; i++ {
		var rec [13]byte
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: op %d: %w", i, err)
		}
		op := Op{
			Kind: OpKind(rec[0]),
			Arg:  binary.LittleEndian.Uint64(rec[1:]),
			Site: site.ID(binary.LittleEndian.Uint32(rec[9:])),
		}
		if op.Kind != OpMalloc && op.Kind != OpFree {
			return nil, fmt.Errorf("trace: op %d: bad kind %d", i, op.Kind)
		}
		t.Ops = append(t.Ops, op)
	}
	var extra [1]byte
	switch _, err := io.ReadFull(r, extra[:]); err {
	case io.EOF:
		return t, nil
	case nil:
		return nil, errors.New("trace: trailing bytes after the last op")
	default:
		return nil, fmt.Errorf("trace: %w", err)
	}
}

// Stats summarizes a trace.
func (t *Trace) Stats() (mallocs, frees int, bytes uint64, peakLive int) {
	live := 0
	for _, op := range t.Ops {
		switch op.Kind {
		case OpMalloc:
			mallocs++
			bytes += op.Arg
			live++
			if live > peakLive {
				peakLive = live
			}
		case OpFree:
			frees++
			live--
		}
	}
	return
}
