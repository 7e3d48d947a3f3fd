package cumulative

import (
	"bytes"
	"encoding/binary"
	"testing"

	"exterminator/internal/site"
)

func populatedHistory(t *testing.T) *History {
	t.Helper()
	hist := NewHistory(DefaultConfig())
	for runs := 1; runs <= 10; runs++ {
		h := overflowRun(uint64(runs)*2654435761, 0xBAD, 8)
		hist.RecordRun(h, runs%2 == 0)
	}
	if hist.Runs != 10 {
		t.Fatal("setup failed")
	}
	return hist
}

func TestHistoryRoundTrip(t *testing.T) {
	hist := populatedHistory(t)
	var buf bytes.Buffer
	if err := hist.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(hist) {
		t.Fatal("round trip mismatch")
	}
	// The restored history classifies identically.
	a, b := hist.Identify(), got.Identify()
	if len(a.Overflows) != len(b.Overflows) || len(a.Danglings) != len(b.Danglings) {
		t.Fatalf("classification differs after restore: %+v vs %+v", a, b)
	}
}

func TestHistoryResumeAcrossRestart(t *testing.T) {
	// The §3.4 deployment story: runs accumulate across process restarts
	// via the persisted summaries. Splitting one experiment into two
	// "processes" must reach the same conclusion as one continuous run.
	continuous := NewHistory(DefaultConfig())
	for runs := 1; runs <= 20; runs++ {
		h := overflowRun(uint64(runs)*40503, 0xBAD, 8)
		continuous.RecordRun(h, false)
	}

	first := NewHistory(DefaultConfig())
	for runs := 1; runs <= 10; runs++ {
		h := overflowRun(uint64(runs)*40503, 0xBAD, 8)
		first.RecordRun(h, false)
	}
	var buf bytes.Buffer
	if err := first.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := DecodeHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for runs := 11; runs <= 20; runs++ {
		h := overflowRun(uint64(runs)*40503, 0xBAD, 8)
		resumed.RecordRun(h, false)
	}
	if !resumed.Equal(continuous) {
		t.Fatal("resumed history diverges from continuous run")
	}
}

func TestHistorySizeIsKilobytes(t *testing.T) {
	// "The retained data is on the order of a few kilobytes per
	// execution, compared to tens or hundreds of megabytes for each heap
	// image" (§3.4).
	hist := populatedHistory(t)
	var buf bytes.Buffer
	hist.Encode(&buf)
	perRun := buf.Len() / hist.Runs
	if perRun > 64*1024 {
		t.Fatalf("summary costs %d bytes/run — not 'a few kilobytes'", perRun)
	}
	t.Logf("history: %d bytes total, %d bytes/run", buf.Len(), perRun)
}

func TestDecodeHistoryRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("bogus"), bytes.Repeat([]byte{0xFF}, 64)} {
		if _, err := DecodeHistory(bytes.NewReader(in)); err == nil {
			t.Fatalf("decoded %q", in)
		}
	}
	// Truncation.
	hist := populatedHistory(t)
	var buf bytes.Buffer
	hist.Encode(&buf)
	if _, err := DecodeHistory(bytes.NewReader(buf.Bytes()[:buf.Len()/3])); err == nil {
		t.Fatal("decoded truncated history")
	}
}

func TestEmptyHistoryRoundTrip(t *testing.T) {
	hist := NewHistory(Config{C: 3, P: 0.25})
	var buf bytes.Buffer
	if err := hist.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(hist) || got.cfg.C != 3 || got.cfg.P != 0.25 {
		t.Fatal("empty round trip failed")
	}
	_ = site.ID(0)
}

// TestDecodeHistoryRejectsRetiredVersions: the persist format has one
// version. A file stamped with any other — the retired versions 1 and
// 2 included — is rejected, never read with a guessed layout.
func TestDecodeHistoryRejectsRetiredVersions(t *testing.T) {
	var buf bytes.Buffer
	if err := populatedHistory(t).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{0, 1, 2, persistVersion + 1} {
		data := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint32(data[4:], v)
		if _, err := DecodeHistory(bytes.NewReader(data)); err == nil {
			t.Fatalf("version %d decoded", v)
		}
	}
}
