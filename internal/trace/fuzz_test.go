package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzTraceDecode: arbitrary bytes either fail to decode or decode to a
// trace whose encoding is the input itself, byte for byte. No decode may
// panic or allocate more than a fixed amount plus a small multiple of
// its input, whatever op count the header claims.
func FuzzTraceDecode(f *testing.F) {
	tr := &Trace{Ops: []Op{{Kind: OpMalloc, Arg: 32, Site: 1}, {Kind: OpFree, Arg: 0, Site: 2}}}
	var valid bytes.Buffer
	if err := tr.Encode(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-5])
	// A bare header claiming 2^28 ops, 6 GiB of them.
	forged := append([]byte(nil), valid.Bytes()[:12]...)
	binary.LittleEndian.PutUint32(forged[8:], 1<<28)
	f.Add(forged)
	// A whole trace with one byte after its last op.
	f.Add(append(append([]byte(nil), valid.Bytes()...), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Decode(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.Encode(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, out.Bytes()) {
			t.Fatal("an accepted trace does not re-encode to the bytes it came from")
		}
	})
}
