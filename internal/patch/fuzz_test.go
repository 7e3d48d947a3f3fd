package patch

import (
	"bytes"
	"testing"
)

// FuzzPatchDecode drives the text patch decoder with arbitrary bytes: it
// may not panic, and a set it accepts survives the text round trip: its
// text form decodes Equal. The one binary encoding, the codec's PatchSet
// frame, is fuzzed by FuzzV2FrameDecode (internal/fleet/codec), which
// checks the same round trip on every set a frame decodes to.
func FuzzPatchDecode(f *testing.F) {
	s := mkSet(map[uint32]uint32{1: 8, 0xdeadbeef: 64}, map[[2]uint32]uint64{{7, 9}: 33})
	s.AddFrontPad(2, 16)
	var text bytes.Buffer
	if err := s.EncodeText(&text); err != nil {
		f.Fatal(err)
	}
	f.Add(text.Bytes())
	f.Add([]byte("pad 7 0\nfpad 2 16\ndefer 1 2 0\n"))
	f.Add([]byte("pad 00000007 64\npad 00000007 8\n"))
	f.Add([]byte("# a comment\n\npad 0000cafe 6\ndefer 00000001 00000002 10\n"))
	f.Add([]byte("pad 7 4294967296\n"))
	f.Add([]byte("defer 1 2\npad 7\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var text bytes.Buffer
		if err := s.EncodeText(&text); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeText(&text)
		if err != nil {
			t.Fatalf("an accepted set's text does not decode: %v", err)
		}
		if !back.Equal(s) {
			t.Fatalf("text round trip: %q, want %q", back, s)
		}
	})
}
