// Package codec implements the fleet's v2 binary wire encoding
// (docs/PROTOCOL.md, "Binary v2 frames"): the one encoding of evidence,
// the one representation on every upload, drain and tier-internal poll,
// and of every file the system writes (daemon state, client history and
// patch files). JSON burned the
// aggregation tier's CPU marshalling at fleet scale; v2 exists so the
// ingest path costs near zero per observation.
//
// Every v2 HTTP body and file is one self-contained frame:
//
//	magic "XWF2" | version byte | frame type byte | u32 LE payload length | payload
//
// Payloads encode integers as LEB128 varints, site-ID columns as
// zigzag deltas (canonical snapshots sort them, so deltas are tiny),
// and observations columnarly — all X values as one float64 run, all Y
// bits packed — which is both smaller and decodable straight into
// exact-size output slices with no intermediate maps. Encoders append
// into pooled buffers (GetBuffer/PutBuffer); decoders only ever slice
// the input, so a forged length or count prefix fails validation
// before any allocation is sized from it.
//
// The package declares each frame's message once, five in all: Batch
// (also the drained evidence POST /v1/evict answers), PatchSet (also a
// patch file), Delta, State (a daemon's durable state) and a client's
// cumulative.History (its history file). It depends only
// on the evidence types (internal/cumulative, internal/site,
// internal/patch) and on internal/atomicfile, through which WriteFile
// saves state, history and patch files: the fleet and cluster tiers, the
// engine, the tools, the examples and the benchmarks build and read
// these types directly.
package codec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"exterminator/internal/atomicfile"
	"exterminator/internal/site"
)

// ContentTypeV2 is the v2 media type: requests carrying a frame declare
// it in Content-Type, pollers declare it in Accept, and servers
// answering with a frame stamp it on the response.
const ContentTypeV2 = "application/x-exterminator-v2"

// Frame types. One frame type per message, so a frame is
// self-describing and a misrouted body fails loudly instead of
// half-decoding.
const (
	// FrameBatch is a Batch (POST /v1/observations body, and the POST
	// /v1/evict answer: a drain stamped with its token).
	FrameBatch byte = 1
	// FramePatches is a PatchSet (GET /v1/patches response, and an
	// exterminate -patches file).
	FramePatches byte = 2
	// FrameDelta is a Delta (GET /v1/deltas response): one op per
	// journal entry, a resync led by a reset op.
	FrameDelta byte = 3
	// FrameState is a State (a fleetd or coordinator -snapshot file).
	FrameState byte = 4
	// FrameHistory is a cumulative.History (an exterminate
	// -save-history file).
	FrameHistory byte = 5
)

// frameVersion is the encoding version inside the magic. Bumped only
// for incompatible layout changes; field additions get new trailing
// sections gated on it instead.
const frameVersion = 1

var frameMagic = [4]byte{'X', 'W', 'F', '2'}

// frameHeaderLen is magic(4) + version(1) + type(1) + length(4).
const frameHeaderLen = 10

// MaxFrameBytes bounds a frame's declared payload length. It exists so
// ParseFrame callers that stream (rather than hold the whole body)
// have a hard ceiling; HTTP callers are additionally bounded by the
// server's body limit.
const MaxFrameBytes = 1 << 30

// Buffer is a pooled append buffer for frame encoding. Encoders append
// to B; the encoded frame aliases B, so the buffer must outlive any use
// of the returned bytes and only then go back via PutBuffer.
type Buffer struct {
	B []byte
}

// maxPooledBuffer keeps pathological one-off giants out of the pool.
const maxPooledBuffer = 4 << 20

var bufPool = sync.Pool{
	New: func() any { return &Buffer{B: make([]byte, 0, 4096)} },
}

// GetBuffer returns an empty buffer from the pool.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// PutBuffer returns a buffer to the pool. The caller must not touch
// bytes that alias b.B afterwards.
func PutBuffer(b *Buffer) {
	if b != nil && cap(b.B) <= maxPooledBuffer {
		bufPool.Put(b)
	}
}

// beginFrame appends a frame header with a zero length and returns its
// offset, for endFrame to patch once the payload is in place.
func (b *Buffer) beginFrame(typ byte) int {
	start := len(b.B)
	b.B = append(b.B, frameMagic[:]...)
	b.B = append(b.B, frameVersion, typ, 0, 0, 0, 0)
	return start
}

// endFrame patches the header's payload length and returns the whole
// frame (aliasing the buffer).
func (b *Buffer) endFrame(start int) []byte {
	payload := len(b.B) - start - frameHeaderLen
	binary.LittleEndian.PutUint32(b.B[start+6:start+10], uint32(payload))
	return b.B[start:]
}

func (b *Buffer) u8(v byte) { b.B = append(b.B, v) }

func (b *Buffer) u64(v uint64) { b.B = binary.LittleEndian.AppendUint64(b.B, v) }

func (b *Buffer) f64(v float64) { b.u64(math.Float64bits(v)) }

func (b *Buffer) uvarint(v uint64) {
	b.B = binary.AppendUvarint(b.B, v)
}

// svarint appends a zigzag-encoded signed varint.
func (b *Buffer) svarint(v int64) {
	b.B = binary.AppendUvarint(b.B, uint64(v<<1)^uint64(v>>63))
}

func (b *Buffer) str(s string) {
	b.uvarint(uint64(len(s)))
	b.B = append(b.B, s...)
}

// ParseFrame validates a complete in-memory frame and returns its type
// and payload (aliasing data). The declared length must match the
// input exactly: truncated and concatenated frames both fail, mirroring
// the strict trailing-data rejection of the JSON decoders.
func ParseFrame(data []byte) (typ byte, payload []byte, err error) {
	if len(data) < frameHeaderLen {
		return 0, nil, fmt.Errorf("codec: frame shorter than header (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != frameMagic {
		return 0, nil, fmt.Errorf("codec: bad frame magic %q", data[:4])
	}
	if data[4] != frameVersion {
		return 0, nil, fmt.Errorf("codec: unsupported frame version %d", data[4])
	}
	typ = data[5]
	n := binary.LittleEndian.Uint32(data[6:10])
	if n > MaxFrameBytes {
		return 0, nil, fmt.Errorf("codec: implausible frame length %d", n)
	}
	if int(n) != len(data)-frameHeaderLen {
		return 0, nil, fmt.Errorf("codec: frame length %d does not match body %d", n, len(data)-frameHeaderLen)
	}
	return typ, data[frameHeaderLen:], nil
}

// WriteFile replaces path with frame through atomicfile.Write, so a
// crash mid-write leaves the previous file whole. A frame ParseFrame
// refuses, such as one beyond MaxFrameBytes, is an error and also leaves
// the previous file in place, since no reader could load it. State,
// history and patch files are written through it. A patch file is mode
// 0644, since users share patch files (§6.4); every other file holds
// evidence and is mode 0600.
func WriteFile(path string, frame []byte) error {
	typ, _, err := ParseFrame(frame)
	if err != nil {
		return fmt.Errorf("%d bytes do not fit one frame: %w", len(frame), err)
	}
	perm := os.FileMode(0o600)
	if typ == FramePatches {
		perm = 0o644
	}
	return atomicfile.Write(path, perm, func(w io.Writer) error {
		_, err := w.Write(frame)
		return err
	})
}

// expectFrame parses data and checks the frame type.
func expectFrame(data []byte, want byte) ([]byte, error) {
	typ, payload, err := ParseFrame(data)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("codec: frame type %d, want %d", typ, want)
	}
	return payload, nil
}

// reader decodes a payload with a sticky error: every accessor
// validates against the bytes actually present before sizing anything
// from a decoded count, so forged prefixes fail instead of allocating.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: "+format, args...)
	}
}

func (r *reader) rem() int { return len(r.b) - r.off }

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.rem() < 1 {
		r.fail("truncated payload")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.rem() < 8 {
		r.fail("truncated 8-byte field")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) svarint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads an element count for a section whose elements each cost
// at least perElem encoded bytes, rejecting counts the remaining input
// cannot possibly hold.
func (r *reader) count(perElem int, what string) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.rem()/perElem) {
		r.fail("forged %s count %d exceeds remaining %d bytes", what, v, r.rem())
		return 0
	}
	return int(v)
}

// nonNeg reads a varint destined for an int counter.
func (r *reader) nonNeg(what string) int {
	v := r.uvarint()
	if v > math.MaxInt64/2 {
		r.fail("implausible %s %d", what, v)
		return 0
	}
	return int(v)
}

func (r *reader) str(what string) string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.rem()) {
		r.fail("forged %s length %d exceeds remaining %d bytes", what, n, r.rem())
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// siteID decodes one zigzag-delta site ID against prev.
func (r *reader) siteID(prev *int64) site.ID {
	v := *prev + r.svarint()
	if r.err != nil {
		return 0
	}
	if v < 0 || v > math.MaxUint32 {
		r.fail("site id %d out of range", v)
		return 0
	}
	*prev = v
	return site.ID(v)
}

// finish asserts the payload was consumed exactly.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.rem() != 0 {
		return fmt.Errorf("codec: %d trailing bytes after payload", r.rem())
	}
	return nil
}
