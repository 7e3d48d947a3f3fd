package engine

import (
	"context"
	"fmt"

	"exterminator/internal/diefast"
	"exterminator/internal/image"
	"exterminator/internal/isolate"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
)

// IterativeRound records one isolation round.
type IterativeRound struct {
	Images     int
	StopClock  uint64
	StopReason string
	Overflows  int
	Danglings  int
	NewPatches int
}

// IterativeResult is the outcome of iterative-mode correction.
type IterativeResult struct {
	Corrected    bool // final verification run was clean
	CleanAtStart bool // the very first run showed no error
	Rounds       []IterativeRound
	Patches      *patch.Set
	Final        *mutator.Outcome
	// GaveUp: an error persisted but isolation produced no new patches
	// (e.g. read-only dangling pointers, §4.2).
	GaveUp bool
}

// String summarizes an iterative result.
func (r *IterativeResult) String() string {
	return fmt.Sprintf("iterative: corrected=%v rounds=%d patches=%d gaveUp=%v",
		r.Corrected, len(r.Rounds), r.Patches.Len(), r.GaveUp)
}

// isolationImages is k, the number of heap images an isolation round
// starts from — the paper's empirical sweet spot.
const isolationImages = 3

// runIterative is the iterative-mode loop (§3.4): detect, replay with a
// malloc breakpoint to gather k images, isolate, patch, repeat. The
// context is checked before every execution, so cancellation returns a
// partial result promptly.
func (s *Session) runIterative(ctx context.Context, work *patch.Set) (*IterativeResult, bool) {
	cfg := &s.cfg
	prog := s.workload.Program
	input := s.input(0)
	res := &IterativeResult{Patches: work.Clone()}

	for iter := 0; iter < cfg.maxIterations; iter++ {
		if ctx.Err() != nil {
			return res, true
		}
		base := cfg.heapSeed + uint64(iter)*0x10001
		// Detection run: stop at the first DieFast signal.
		ex := s.execute(prog, input, s.hook(), diefast.DefaultConfig(),
			base, cfg.progSeed, res.Patches, 0, true)
		out := ex.Outcome
		res.Final = out
		if out.Completed && len(ex.Heap.Scan(false)) == 0 {
			res.Corrected = iter > 0
			res.CleanAtStart = iter == 0
			summary := "clean at start"
			if res.Corrected {
				summary = fmt.Sprintf("clean after %d correction round(s)", iter)
			}
			s.emit(VerifyOutcome{Clean: true, Summary: summary})
			return res, false
		}
		s.emit(ErrorDetected{Round: iter + 1, Reason: out.String(), Clock: out.Clock})

		round := IterativeRound{StopClock: out.Clock, StopReason: out.String()}
		images := []*image.Image{image.Capture(ex.Heap, out.String())}

		// Replay over fresh heaps up to the malloc breakpoint. If
		// isolation comes up empty, keep generating independent images
		// ("this process can be repeated multiple times", §3.4) before
		// giving up on this error.
		maxImages := 3 * isolationImages
		var newPatches *patch.Set
		next := uint64(1)
		target := isolationImages
		for {
			for len(images) < target {
				if ctx.Err() != nil {
					res.Rounds = append(res.Rounds, round)
					return res, true
				}
				rx := s.execute(prog, input, s.hook(), diefast.DefaultConfig(),
					base+next, cfg.progSeed, res.Patches, out.Clock, false)
				next++
				images = append(images, image.Capture(rx.Heap, "replay"))
			}
			rep, err := isolate.Analyze(images)
			if err != nil {
				break
			}
			round.Overflows = len(rep.Overflows)
			round.Danglings = len(rep.Danglings)
			newPatches = rep.Patches()
			if newPatches.Len() > 0 || len(images) >= maxImages {
				break
			}
			target = len(images) + 2
			if target > maxImages {
				target = maxImages
			}
		}
		round.Images = len(images)
		if newPatches != nil {
			round.NewPatches = newPatches.Len()
		}
		res.Rounds = append(res.Rounds, round)
		s.emit(IsolationRound{Round: iter + 1, Images: round.Images,
			Overflows: round.Overflows, Danglings: round.Danglings, NewPatches: round.NewPatches})

		if newPatches == nil || !res.Patches.Merge(newPatches) {
			// No progress possible (e.g. read-only dangling pointer:
			// no corruption evidence in any image).
			res.GaveUp = true
			return res, false
		}
		s.emit(PatchDerived{New: newPatches.Len(), Total: res.Patches.Len()})
	}
	res.GaveUp = true
	return res, false
}

// input resolves the input for a given run index (inputFor wins).
func (s *Session) input(run int) []byte {
	if s.cfg.inputFor != nil {
		return s.cfg.inputFor(run)
	}
	return s.cfg.input
}
