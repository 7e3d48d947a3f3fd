package patch

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// xtpm hand-encodes a binary patch file holding the given pad records
// (site, pad) in order, and nothing else.
func xtpm(pads ...[2]uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pads)))
	b = binary.LittleEndian.AppendUint32(b, 0) // front pads
	b = binary.LittleEndian.AppendUint32(b, 0) // deferrals
	for _, p := range pads {
		b = binary.LittleEndian.AppendUint32(b, p[0])
		b = binary.LittleEndian.AppendUint32(b, p[1])
	}
	return b
}

// TestBinaryDecodeAgreesWithText: the binary decoder builds a set as the
// text decoder does, through the Add methods. A zero pad adds no entry,
// a site listed twice keeps its larger pad (patches compose by maxima,
// §6.1), and bytes after the last record are refused.
func TestBinaryDecodeAgreesWithText(t *testing.T) {
	for name, c := range map[string]struct {
		bin     []byte
		text    string
		entries int
		pad     uint32
	}{
		"zero pad":      {xtpm([2]uint32{7, 0}), "pad 00000007 0\n", 0, 0},
		"repeated site": {xtpm([2]uint32{7, 64}, [2]uint32{7, 8}), "pad 00000007 64\npad 00000007 8\n", 1, 64},
	} {
		got, err := Decode(bytes.NewReader(c.bin))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fromText, err := DecodeText(strings.NewReader(c.text))
		if err != nil {
			t.Fatalf("%s: text: %v", name, err)
		}
		if !got.Equal(fromText) {
			t.Errorf("%s: binary decodes to %q, text to %q", name, got, fromText)
		}
		if got.Len() != c.entries || got.Pad(7) != c.pad {
			t.Errorf("%s: %d entries with pad %d, want %d with pad %d", name, got.Len(), got.Pad(7), c.entries, c.pad)
		}
	}
	if _, err := Decode(bytes.NewReader(append(xtpm([2]uint32{7, 64}), make([]byte, 13)...))); err == nil {
		t.Error("a file with 13 bytes after its last record decoded")
	}
}

// FuzzPatchDecode drives the binary and the text patch decoders with
// arbitrary bytes: neither may panic, and a set either accepts survives
// both round trips: it re-encodes to bytes that decode Equal, and its
// text form decodes Equal.
func FuzzPatchDecode(f *testing.F) {
	s := mkSet(map[uint32]uint32{1: 8, 0xdeadbeef: 64}, map[[2]uint32]uint64{{7, 9}: 33})
	s.AddFrontPad(2, 16)
	var bin, text bytes.Buffer
	if err := s.Encode(&bin); err != nil {
		f.Fatal(err)
	}
	if err := s.EncodeText(&text); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add(text.Bytes())
	f.Add(xtpm([2]uint32{7, 0}))
	f.Add(xtpm([2]uint32{7, 64}, [2]uint32{7, 8}))
	f.Add(append(xtpm([2]uint32{7, 64}), make([]byte, 13)...))
	f.Add([]byte("pad 7 0\nfpad 2 16\ndefer 1 2 0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := Decode(bytes.NewReader(data)); err == nil {
			checkRoundTrips(t, s)
		}
		if s, err := DecodeText(bytes.NewReader(data)); err == nil {
			checkRoundTrips(t, s)
		}
	})
}

// checkRoundTrips fails unless s survives the binary and the text round
// trips unchanged.
func checkRoundTrips(t *testing.T, s *Set) {
	t.Helper()
	var bin, text bytes.Buffer
	if err := s.Encode(&bin); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&bin)
	if err != nil {
		t.Fatalf("an accepted set's encoding does not decode: %v", err)
	}
	if !back.Equal(s) {
		t.Fatalf("binary round trip: %q, want %q", back, s)
	}
	if err := s.EncodeText(&text); err != nil {
		t.Fatal(err)
	}
	fromText, err := DecodeText(&text)
	if err != nil {
		t.Fatalf("an accepted set's text does not decode: %v", err)
	}
	if !fromText.Equal(s) {
		t.Fatalf("text round trip: %q, want %q", fromText, s)
	}
}
