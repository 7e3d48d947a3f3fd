package engine

import (
	"context"
	"math"
	"sync"

	"exterminator/internal/diefast"
	"exterminator/internal/image"
	"exterminator/internal/isolate"
	"exterminator/internal/mutator"
	"exterminator/internal/patch"
	"exterminator/internal/voter"
)

// ReplicatedResult is the outcome of replicated-mode execution.
type ReplicatedResult struct {
	// ErrorDetected: a signal, crash, or output divergence occurred.
	ErrorDetected bool
	// Detection describes what tripped first.
	Detection string
	// Outcomes holds each replica's first-round outcome.
	Outcomes []*mutator.Outcome
	// Agreed is the voted output of the first round (nil if none).
	Agreed []byte
	// Patches generated by isolation (empty if no error).
	Patches *patch.Set
	// Corrected: the post-patch re-run round was clean and unanimous.
	Corrected bool
}

// runReplicated runs N replicas concurrently, votes, and — on any error
// indication — isolates across the replicas' heap images, generates
// patches, and re-runs to verify the on-the-fly fix (§3.4, Figure 5).
// Cancellation is honored between rounds (replicas themselves are
// short-lived executions).
func (s *Session) runReplicated(ctx context.Context, work *patch.Set) (*ReplicatedResult, bool) {
	cfg := &s.cfg
	prog := s.workload.Program
	input := s.input(0)
	res := &ReplicatedResult{Patches: work.Clone()}

	runAll := func(patches *patch.Set, seedBase uint64) []*execution {
		exs := make([]*execution, cfg.replicas)
		var wg sync.WaitGroup
		for i := 0; i < cfg.replicas; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				exs[i] = s.execute(prog, input, s.hook(), diefast.DefaultConfig(),
					seedBase+uint64(i)*7919, cfg.progSeed, patches, 0, false)
			}(i)
		}
		wg.Wait()
		return exs
	}

	if ctx.Err() != nil {
		return res, true
	}
	exs := runAll(res.Patches, cfg.heapSeed)
	outputs := make([][]byte, len(exs))
	for i, ex := range exs {
		res.Outcomes = append(res.Outcomes, ex.Outcome)
		if !ex.Outcome.Crashed && !ex.Outcome.Failed {
			outputs[i] = ex.Outcome.Output
		}
	}
	vote := voter.Vote(outputs)
	res.Agreed = vote.Winner

	switch {
	case anyCrashOrFail(exs):
		res.ErrorDetected = true
		res.Detection = "replica crash/failure"
	case anyEvents(exs):
		res.ErrorDetected = true
		res.Detection = "DieFast signal"
	case !vote.Unanimous:
		res.ErrorDetected = true
		res.Detection = "output divergence"
	default:
		s.emit(VerifyOutcome{Clean: true, Summary: "all replicas healthy and unanimous"})
		return res, false // healthy: nothing to do
	}
	s.emit(ErrorDetected{Round: 1, Reason: res.Detection, Clock: earliestErrorClock(exs)})

	// Dump synchronized heap images. The paper's replicas all receive the
	// dump signal at (logically) the same point; our batch replicas have
	// run past it, so exploit determinism: find the earliest error clock
	// and re-execute every replica up to that malloc breakpoint.
	if ctx.Err() != nil {
		return res, true
	}
	stopClock := earliestErrorClock(exs)
	images := make([]*image.Image, 0, cfg.replicas)
	for i := 0; i < cfg.replicas; i++ {
		if ctx.Err() != nil {
			return res, true
		}
		rx := s.execute(prog, input, s.hook(), diefast.DefaultConfig(),
			cfg.heapSeed+uint64(i)*7919, cfg.progSeed, res.Patches, stopClock, false)
		images = append(images, image.Capture(rx.Heap, res.Detection))
	}
	var newLen int
	if rep, err := isolate.Analyze(images); err == nil {
		np := rep.Patches()
		newLen = np.Len()
		res.Patches.Merge(np)
		s.emit(IsolationRound{Round: 1, Images: len(images),
			Overflows: len(rep.Overflows), Danglings: len(rep.Danglings), NewPatches: newLen})
	}
	if newLen > 0 {
		s.emit(PatchDerived{New: newLen, Total: res.Patches.Len()})
	}

	// Reload patches and re-run (the on-the-fly fix applied to fresh
	// executions; long-running processes would reload in place).
	if res.Patches.Len() > 0 {
		if ctx.Err() != nil {
			return res, true
		}
		again := runAll(res.Patches, cfg.heapSeed+0xABCDEF)
		outs := make([][]byte, len(again))
		clean := true
		for i, ex := range again {
			if ex.Outcome.Crashed || ex.Outcome.Failed || len(ex.Heap.Events()) > 0 {
				clean = false
			}
			outs[i] = ex.Outcome.Output
		}
		res.Corrected = clean && voter.Vote(outs).Unanimous
		s.emit(VerifyOutcome{Clean: res.Corrected, Summary: "post-patch replica round"})
	}
	return res, false
}

// earliestErrorClock returns the smallest allocation clock at which any
// replica showed trouble (crash/failure end clock, or first DieFast
// event), falling back to the minimum completion clock.
func earliestErrorClock(exs []*execution) uint64 {
	best := uint64(math.MaxUint64)
	for _, ex := range exs {
		if ex.Outcome.Crashed || ex.Outcome.Failed {
			if ex.Outcome.Clock < best {
				best = ex.Outcome.Clock
			}
		}
		for _, ev := range ex.Heap.Events() {
			if ev.Clock < best {
				best = ev.Clock
			}
		}
	}
	if best == math.MaxUint64 {
		for _, ex := range exs {
			if ex.Outcome.Clock < best {
				best = ex.Outcome.Clock
			}
		}
	}
	return best
}

func anyCrashOrFail(exs []*execution) bool {
	for _, ex := range exs {
		if ex.Outcome.Crashed || ex.Outcome.Failed {
			return true
		}
	}
	return false
}

func anyEvents(exs []*execution) bool {
	for _, ex := range exs {
		if len(ex.Heap.Events()) > 0 {
			return true
		}
	}
	return false
}
