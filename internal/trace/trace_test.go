package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"exterminator/internal/diefast"
	"exterminator/internal/freelist"
	"exterminator/internal/mem"
	"exterminator/internal/mutator"
	"exterminator/internal/site"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

// record runs a workload through a Recorder on a DieFast heap.
func record(t *testing.T, progName string, seed uint64) *Trace {
	t.Helper()
	prog, ok := workloads.ByName(progName, 1)
	if !ok {
		t.Fatalf("unknown workload %s", progName)
	}
	h := diefast.New(diefast.DefaultConfig(), xrand.New(seed))
	h.OnError = func(diefast.Event) {}
	rec := NewRecorder(h)
	e := mutator.NewEnv(rec, h.Space(), xrand.New(7), nil)
	out := mutator.Run(prog, e)
	if !out.Completed {
		t.Fatalf("recording run failed: %s", out)
	}
	return rec.Trace()
}

func TestRecorderCapturesWorkload(t *testing.T) {
	tr := record(t, "cfrac", 1)
	mallocs, frees, bytesTotal, peak := tr.Stats()
	if mallocs == 0 || frees == 0 || bytesTotal == 0 {
		t.Fatalf("empty trace: %d/%d/%d", mallocs, frees, bytesTotal)
	}
	if frees != mallocs {
		t.Fatalf("workload frees everything, trace says %d mallocs %d frees", mallocs, frees)
	}
	if peak <= 0 || peak > mallocs {
		t.Fatalf("peak = %d", peak)
	}
}

func TestReplayOnFreshDieFast(t *testing.T) {
	tr := record(t, "cfrac", 2)
	h := diefast.New(diefast.DefaultConfig(), xrand.New(99))
	h.OnError = func(diefast.Event) {}
	e := mutator.NewEnv(h, h.Space(), xrand.New(7), nil)
	out := mutator.Run(Player{T: tr, TraceName: "cfrac"}, e)
	if !out.Completed {
		t.Fatalf("replay failed: %s", out)
	}
	if h.Diehard().Stats().Live != 0 {
		t.Fatal("replay leaked")
	}
	mallocs, _, _, _ := tr.Stats()
	if out.Clock != uint64(mallocs) {
		t.Fatalf("replay clock %d != trace mallocs %d", out.Clock, mallocs)
	}
}

func TestReplayOnFreelist(t *testing.T) {
	// The whole point: one trace, any allocator.
	tr := record(t, "espresso", 3)
	rng := xrand.New(5)
	fl := freelist.New(mem.NewSpace(rng.Split()), rng.Split())
	e := mutator.NewEnv(fl, fl.Space(), xrand.New(7), nil)
	e.NoSites = true
	out := mutator.Run(Player{T: tr}, e)
	if !out.Completed {
		t.Fatalf("freelist replay failed: %s", out)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := record(t, "cfrac", 4)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(tr.Ops) {
		t.Fatalf("op counts differ: %d vs %d", len(got.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, got.Ops[i], tr.Ops[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("xx"), []byte("0123456789ABCDEF")} {
		if _, err := Decode(bytes.NewReader(in)); err == nil {
			t.Fatalf("decoded %q", in)
		}
	}
	// Bad op kind.
	tr := &Trace{Ops: []Op{{Kind: OpMalloc, Arg: 8}}}
	var buf bytes.Buffer
	tr.Encode(&buf)
	raw := buf.Bytes()
	raw[12] = 99 // first record's kind byte
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad op kind accepted")
	}
	// Bytes after the last op.
	raw[12] = byte(OpMalloc)
	if _, err := Decode(bytes.NewReader(raw)); err != nil {
		t.Fatalf("restored trace: %v", err)
	}
	if _, err := Decode(bytes.NewReader(append(raw, 0))); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(kinds []bool, args []uint32, sites []uint32) bool {
		n := len(kinds)
		if len(args) < n {
			n = len(args)
		}
		if len(sites) < n {
			n = len(sites)
		}
		tr := &Trace{}
		for i := 0; i < n; i++ {
			k := OpMalloc
			if kinds[i] {
				k = OpFree
			}
			tr.Ops = append(tr.Ops, Op{Kind: k, Arg: uint64(args[i]), Site: site.ID(sites[i])})
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || len(got.Ops) != len(tr.Ops) {
			return false
		}
		for i := range tr.Ops {
			if got.Ops[i] != tr.Ops[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlayerFailsOnCorruptTrace(t *testing.T) {
	tr := &Trace{Ops: []Op{{Kind: OpFree, Arg: 999}}}
	h := diefast.New(diefast.DefaultConfig(), xrand.New(1))
	e := mutator.NewEnv(h, h.Space(), xrand.New(1), nil)
	out := mutator.Run(Player{T: tr}, e)
	if !out.Failed {
		t.Fatalf("corrupt trace replay did not fail: %s", out)
	}
}

func BenchmarkReplayTrace(b *testing.B) {
	prog, _ := workloads.ByName("cfrac", 1)
	h := diefast.New(diefast.DefaultConfig(), xrand.New(1))
	rec := NewRecorder(h)
	e := mutator.NewEnv(rec, h.Space(), xrand.New(7), nil)
	mutator.Run(prog, e)
	tr := rec.Trace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h2 := diefast.New(diefast.DefaultConfig(), xrand.New(uint64(i)))
		e2 := mutator.NewEnv(h2, h2.Space(), xrand.New(7), nil)
		mutator.Run(Player{T: tr}, e2)
	}
}
