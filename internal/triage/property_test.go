package triage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/patch"
	"exterminator/internal/site"
	"exterminator/internal/testutil"
)

// The incremental engine's contract: fed only what changed since the
// previous pass (rescored candidates, the patch-log delta, the
// threshold), it serves exactly what the from-scratch reference serves
// when fed everything. The property test below drives both through
// seeded random op lists and compares every observable after every
// pass; a failure prints the seed and the op list shrunk to a minimum.

type propKind int

const (
	opEvidence propKind = iota // new values for some keys, new or existing
	opFrames                   // a site's stack arrives (possibly late)
	opPatch                    // patch-log entries fold in
	opRebuild                  // keys vanish; the next pass is a full one
	opClock                    // the alert clock advances
	opPass                     // both engines pass and are compared
)

type propOp struct {
	kind      propKind
	ovf       []cumulative.Candidate
	dan       []cumulative.Candidate
	site      site.ID
	frames    []uint64
	patch     *patch.Set
	dropOvf   []site.ID
	dropDan   []site.Pair
	advance   time.Duration
	threshold float64
}

func (op propOp) String() string {
	switch op.kind {
	case opEvidence:
		var b strings.Builder
		b.WriteString("evidence")
		for _, c := range op.ovf {
			fmt.Fprintf(&b, " ovf(%x bayes=%g obs=%d)", uint32(c.Site), c.Bayes, c.Obs)
		}
		for _, c := range op.dan {
			fmt.Fprintf(&b, " dan(%x/%x bayes=%g obs=%d)", uint32(c.Pair.Alloc), uint32(c.Pair.Free), c.Bayes, c.Obs)
		}
		return b.String()
	case opFrames:
		return fmt.Sprintf("frames %x %#x", uint32(op.site), op.frames)
	case opPatch:
		return "patch " + strings.ReplaceAll(strings.TrimSpace(op.patch.String()), "\n", "; ")
	case opRebuild:
		return fmt.Sprintf("rebuild drop ovf=%x dan=%v", op.dropOvf, op.dropDan)
	case opClock:
		return "clock +" + op.advance.String()
	default:
		return fmt.Sprintf("pass threshold=%g", op.threshold)
	}
}

// propConfig turns on everything the lifecycle and the alerter can do:
// a small instance cap, a short resolve window, both alert triggers and
// a cooldown the clock ops can straddle.
func propConfig(seed int64) Config {
	return Config{
		MaxInstances: 3,
		ResolveAfter: 1 + int(seed%3),
		Alert: AlertConfig{
			URL:            "http://alerts.invalid/hook",
			BayesThreshold: 2,
			MinOccurrences: 25,
			Cooldown:       time.Hour,
		},
	}
}

// genPropOps draws an op list over a small key universe, so clusters
// collide, sites get stacks after their evidence, and patches cover
// keys before and after they appear.
func genPropOps(rng *rand.Rand) []propOp {
	bayes := []float64{0, 0.5, 1, 2, 10, 100, 100, 1e4, 1e6, 1e300}
	ovfSite := func() site.ID { return site.ID(0x10 + rng.Intn(12)) }
	pair := func() site.Pair {
		return site.Pair{Alloc: site.ID(0x10 + rng.Intn(8)), Free: site.ID(0x80 + rng.Intn(3))}
	}
	// A few shared suffixes, some with high "module base" bits set, so
	// signature clusters gather several sites.
	suffixes := make([][]uint64, 3)
	for i := range suffixes {
		for d := 0; d < 1+rng.Intn(3); d++ {
			suffixes[i] = append(suffixes[i], uint64(rng.Uint32()))
		}
	}
	var ops []propOp
	for n := 20 + rng.Intn(40); len(ops) < n; {
		switch r := rng.Intn(20); {
		case r < 7:
			op := propOp{kind: opEvidence}
			for i := rng.Intn(4); i >= 0; i-- {
				op.ovf = append(op.ovf, cumulative.Candidate{Site: ovfSite(), Bayes: bayes[rng.Intn(len(bayes))], Obs: rng.Intn(12)})
			}
			for i := rng.Intn(3); i > 0; i-- {
				op.dan = append(op.dan, cumulative.Candidate{Pair: pair(), Bayes: bayes[rng.Intn(len(bayes))], Obs: rng.Intn(12)})
			}
			ops = append(ops, op)
		case r < 9:
			frames := []uint64{uint64(rng.Uint32())}
			for _, pc := range suffixes[rng.Intn(len(suffixes))] {
				if rng.Intn(2) == 0 {
					pc |= 0xdead_0000_0000_0000
				}
				frames = append(frames, pc)
			}
			ops = append(ops, propOp{kind: opFrames, site: ovfSite(), frames: frames})
		case r < 11:
			ps := patch.New()
			for i := rng.Intn(3); i >= 0; i-- {
				switch rng.Intn(3) {
				case 0:
					ps.AddPad(ovfSite(), uint32(1+rng.Intn(64)))
				case 1:
					ps.AddFrontPad(ovfSite(), uint32(1+rng.Intn(64)))
				default:
					ps.AddDeferral(pair(), uint64(1+rng.Intn(512)))
				}
			}
			ops = append(ops, propOp{kind: opPatch, patch: ps})
		case r < 12:
			op := propOp{kind: opRebuild}
			for i := rng.Intn(3); i > 0; i-- {
				op.dropOvf = append(op.dropOvf, ovfSite())
			}
			for i := rng.Intn(2); i > 0; i-- {
				op.dropDan = append(op.dropDan, pair())
			}
			ops = append(ops, op)
		case r < 13:
			ops = append(ops, propOp{kind: opClock, advance: time.Duration(1+rng.Intn(4)) * 30 * time.Minute})
		default:
			thresholds := []float64{0, 1, 5, 50, 1e5}
			ops = append(ops, propOp{kind: opPass, threshold: thresholds[rng.Intn(len(thresholds))]})
		}
	}
	return ops
}

// runPropOps replays ops against a fresh incremental engine and a fresh
// reference, returning the first divergence.
func runPropOps(cfg Config, ops []propOp) error {
	inc, ref := New(cfg), newRef(cfg)
	clock := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clock }
	inc.alerter.now, ref.alerter.now = now, now

	ovf := map[site.ID]cumulative.Candidate{}
	dan := map[site.Pair]cumulative.Candidate{}
	dirtyOvf := map[site.ID]bool{}
	dirtyDan := map[site.Pair]bool{}
	log, delta := patch.New(), patch.New()
	full := false
	for i, op := range ops {
		switch op.kind {
		case opEvidence:
			for _, c := range op.ovf {
				ovf[c.Site], dirtyOvf[c.Site] = c, true
			}
			for _, c := range op.dan {
				dan[c.Pair], dirtyDan[c.Pair] = c, true
			}
		case opFrames:
			inc.RecordFrames(op.site, op.frames)
			ref.RecordFrames(op.site, op.frames)
		case opPatch:
			log.Merge(op.patch)
			delta.Merge(op.patch)
		case opRebuild:
			for _, s := range op.dropOvf {
				delete(ovf, s)
			}
			for _, p := range op.dropDan {
				delete(dan, p)
			}
			full = true
		case opClock:
			clock = clock.Add(op.advance)
		case opPass:
			in := PassInput{Threshold: op.threshold, Full: full}
			for s, c := range ovf {
				if full || dirtyOvf[s] {
					in.Overflows = append(in.Overflows, c)
				}
			}
			for p, c := range dan {
				if full || dirtyDan[p] {
					in.Danglings = append(in.Danglings, c)
				}
			}
			if delta.Len() > 0 {
				in.Patches = delta
			}
			got := inc.Pass(in)
			want := ref.Pass(refInput(ovf, dan, log.Clone(), op.threshold))
			if got != want {
				return fmt.Errorf("op %d: pass stats %+v, reference %+v", i, got, want)
			}
			if err := compareEngines(inc, ref); err != nil {
				return fmt.Errorf("op %d (pass %d): %w", i, want.Pass, err)
			}
			clear(dirtyOvf)
			clear(dirtyDan)
			delta, full = patch.New(), false
		}
	}
	return nil
}

// compareEngines checks every observable byte for byte: every ranking
// page, every cluster detail, and the marshalled alert state.
func compareEngines(inc *Engine, ref *refEngine) error {
	if inc.Clusters() != len(ref.clusters) {
		return fmt.Errorf("clusters %d, reference %d", inc.Clusters(), len(ref.clusters))
	}
	same := func(what string, a, b any) error {
		ja, err := json.Marshal(a)
		if err != nil {
			return err
		}
		jb, err := json.Marshal(b)
		if err != nil {
			return err
		}
		if !bytes.Equal(ja, jb) {
			return fmt.Errorf("%s differs:\n incremental %s\n reference   %s", what, ja, jb)
		}
		return nil
	}
	if err := same("default ranking page", inc.Rankings(0, 0), ref.Rankings(0, 0)); err != nil {
		return err
	}
	for off := 0; off <= len(ref.ranked); off += 2 {
		if err := same(fmt.Sprintf("ranking page at %d", off), inc.Rankings(off, 2), ref.Rankings(off, 2)); err != nil {
			return err
		}
	}
	for _, id := range ref.ranked {
		d, ok := inc.Detail(id)
		if !ok {
			return fmt.Errorf("detail %s: missing from the incremental engine", id)
		}
		rd, _ := ref.Detail(id)
		if err := same("detail "+id, d, rd); err != nil {
			return err
		}
	}
	a, err := inc.AlertState()
	if err != nil {
		return err
	}
	b, err := json.Marshal(alertState{Fired: ref.alerter.fired, Pending: ref.alerter.pending})
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("alert state differs:\n incremental %s\n reference   %s", a, b)
	}
	return nil
}

func TestIncrementalPassMatchesReference(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := propConfig(seed)
		ops := genPropOps(rand.New(rand.NewSource(seed)))
		if err := runPropOps(cfg, ops); err != nil {
			shrunk := testutil.Shrink(ops, func(o []propOp) bool { return runPropOps(cfg, o) != nil })
			var b strings.Builder
			for _, op := range shrunk {
				b.WriteString("\n  " + op.String())
			}
			t.Fatalf("seed %d: %v\nshrunk to %d ops:%s", seed, runPropOps(cfg, shrunk), len(shrunk), b.String())
		}
	}
}
