package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"exterminator/internal/correct"
	"exterminator/internal/diefast"
	"exterminator/internal/freelist"
	"exterminator/internal/mem"
	"exterminator/internal/mutator"
	"exterminator/internal/xrand"
)

// pinnedRun runs p on a fixed heap: the freelist baseline (no call-site
// hashing, as Fig. 7's libc) or DieFast under the correcting allocator.
// It returns the program's output and the simulated memory it leaves.
func pinnedRun(t *testing.T, p mutator.Program, input []byte, exterminator bool) ([]byte, *mem.Space) {
	t.Helper()
	const heapSeed, progSeed = 41, 7
	var e *mutator.Env
	if exterminator {
		h := diefast.New(diefast.DefaultConfig(), xrand.New(heapSeed))
		h.OnError = func(diefast.Event) {}
		e = mutator.NewEnv(correct.New(h), h.Space(), xrand.New(progSeed), input)
	} else {
		rng := xrand.New(heapSeed)
		fl := freelist.New(mem.NewSpace(rng.Split()), rng.Split())
		e = mutator.NewEnv(fl, fl.Space(), xrand.New(progSeed), input)
		e.NoSites = true
	}
	o := mutator.Run(p, e)
	if !o.Completed {
		t.Fatalf("%s", o)
	}
	return o.Output, e.Space
}

// pinnedOutputs holds, per program, the sha256 of its output (the same
// on both stacks) and of the simulated memory its two runs leave (the
// freelist's regions, then DieFast's, each in address order). They were
// recorded before the programs' payload buffers, mutator.Env's live table
// and DieFast's canaries stopped allocating per operation.
var pinnedOutputs = map[string]struct{ out, mem string }{
	"cfrac": {"97da939aa1fde4ae64af69e42b1e7abbc751a288519d33dcde867c8f873d1314",
		"738613e0c09a0cbe794e3dc0826aa75777537df1aab004eb04afe40ca68406bb"},
	"espresso": {"bcb2f4a507dd3006a2ed52f9058a16465441c32101839d36455b5b1b06760122",
		"4f35882c10ff4c93446ab855619ef0d9ead7e6660b95b2341be4d2fe6388d77f"},
	"lindsay": {"330ef0fa34d0cda4da9f9ac878546b2a02124eb6ea566f977c022db447c4b518",
		"35c11c5cfb008083d653f3f25838ca8d01f1a309c82dc2b1ed454cc479682269"},
	"p2c": {"d83412c7308acf78300c8de346d2fdc9c10c0f8342a9b80de1bf4e1d647934a3",
		"b0f6da58bef5d4ab9d4602197b0187739f19c50964aa2aa090303be8d5741c05"},
	"roboop": {"64b785f8c2bf8a89b54c4080d32537aa211545c946a6755f1a4fa24beba34406",
		"b539e6940592f06dda706182e26875e2584e3923fddf6bde5ec8652e2702cd42"},
	"gzip": {"2c9b1592d4c404d819c9b9f17afcc5c6bf6da282a5fe35399225edc542a8f468",
		"6d7455bfc7eee895b5dd06cce987d27adda4e37ae99225bee37f1c9b44cf652d"},
	"vpr": {"6c2fccd17ec29055109557275d375c935c8d70f9405fa324846acc6f85b08014",
		"3097c26d0de8979ee7222c4dea175356e8fbf4e792a0ed5fad7cc90132832faa"},
	"gcc": {"9311d025bbc69e32e2ef2d8413f40a7f93ec9eb49db9ab8c5ab04769e9de482e",
		"451fcbfdf5fb2772159496c3270a39755c295300e99090388dcd0ed3a75fbcb9"},
	"mcf": {"cb872c5a335bc82b31ae1290169a0bab6920f04878eab7ddf0623d3a747a6fbc",
		"574ef12fefdd3c982c61db2af7f2e7a3a1e0b57cccaa98734bc5d41827afd600"},
	"crafty": {"df2c63f019b444317dee205c4bd2a8f53e702c9f62b13f84aa82b3fec51019ad",
		"ccd2749a4e42d26eafc84333a32aebb7a279d082c670de74575ed638673ccf1f"},
	"parser": {"7d68d96b51cdeab5bf11e1e684ba9fa33b4b0b4ad496ffc3cecb9db8515d6136",
		"a14ff3ff9f68d92a358f6213677a741ca9a7d97844bc8d85a7ef41a4cef69479"},
	"perlbmk": {"7555042c5d68f6597420ab75007c635acebfde7bf9d590544431f4b849fc1094",
		"c90adfc9a2fd2d2643644380f2e2af45e931e2e90f841852fb4937c7e933baad"},
	"gap": {"852b34acb618f0b0a12b8bfdd086c4db247d59c53d31293a46fc1b785585e709",
		"dac430a423e784c50d61cf0538ae7c23293542057d3a654c5ee7919a30df8af9"},
	"vortex": {"bf4dc3120c1112f60993e20f6bbcb847974a24bbcd01b458abc56fcb75d809b1",
		"ae95482edb5ccbddf1f5f552ba1d97f8a58df54b1c41abfef82fb001cbd65e10"},
	"bzip2": {"dbd213fb76ffb65f9d22e492973a65e1bc597255cd09dc63233756fd46520540",
		"c504189866554ae856a3f9e5eb04af2fca0e274711127f2157d548f8b9a6527f"},
	"twolf": {"50ca9d5c4c28e86f5aad82b96ed458d8067d467b0a5043922d881fd85e6d7912",
		"14c5883d5bc50362b56084465369a8be57866a1d201b452bccd512fc3f72dda6"},
	"espresso-qm": {"e4c512bd0650f22979d27d5b760bdb8879e2e6363e14b19de57b0ce124e42787",
		"d4cd2b5c4a8d19c212c8642971c0f591ea59c00cce26e2e2b97d22d8a8554323"},
	"cfrac-mp": {"182af81cf2736a9958fa1079aff650cba47c0c45acfdbd9f89ab12d718086455",
		"ddc1fed839b0e9de0077994fbd6506b9b1c1a23e1534033a8bf8c7dcb0dcb7c7"},
	"squid": {"7a192eb2fdafdbd477e267c188d58da97bbf0ceb61005fd38f8fff3431867053",
		"fb1a435a8220df36b5166d6ea67a2e1d0b55578baf39b95288f68c06359450e6"},
	"mozilla": {"d01c8752c849d42ceec7f5082f9e250094bfb4dca8815da3884c546037f479e1",
		"4bd7c2337966b2feb306e10518629e292f66198e06b267e33470026e50438209"},
}

// TestProgramOutputsPinned checks every simulated program against
// pinnedOutputs. The heap benchmark compares the two stacks with each
// other, which misses a change that alters both the same way.
func TestProgramOutputsPinned(t *testing.T) {
	type run struct {
		p     mutator.Program
		input []byte
	}
	var runs []run
	for _, p := range append(AllocIntensive(1), SPECLike(1)...) {
		runs = append(runs, run{p: p})
	}
	qm, _ := ByName("espresso-qm", 1)
	mp, _ := ByName("cfrac-mp", 1)
	runs = append(runs, run{p: qm}, run{p: mp},
		run{NewSquid(), SquidBenignInput(200)},
		run{NewMozilla(12), MozillaSession(20, false)})
	if len(runs) != len(pinnedOutputs) {
		t.Fatalf("%d programs, %d pinned", len(runs), len(pinnedOutputs))
	}
	for _, r := range runs {
		t.Run(r.p.Name(), func(t *testing.T) {
			base, baseMem := pinnedRun(t, r.p, r.input, false)
			ext, extMem := pinnedRun(t, r.p, r.input, true)
			sum := sha256.New()
			for _, s := range []*mem.Space{baseMem, extMem} {
				s.Regions(func(reg *mem.Region) { sum.Write(reg.Data) })
			}
			outSum, extSum := sha256.Sum256(base), sha256.Sum256(ext)
			got, gotMem := hex.EncodeToString(outSum[:]), hex.EncodeToString(sum.Sum(nil))
			if extSum != outSum {
				t.Errorf("output differs between the stacks: freelist %x, DieFast %x", outSum, extSum)
			}
			want := pinnedOutputs[r.p.Name()]
			if got != want.out {
				t.Errorf("output sha256 %s, want %s", got, want.out)
			}
			if gotMem != want.mem {
				t.Errorf("memory sha256 %s, want %s", gotMem, want.mem)
			}
		})
	}
}
