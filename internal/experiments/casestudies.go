package experiments

import (
	"fmt"

	"exterminator/internal/engine"
	"exterminator/internal/mutator"
	"exterminator/internal/workloads"
)

// ---------------------------------------------------------------------
// §7.2, Squid web cache (iterative mode, real built-in bug)
// ---------------------------------------------------------------------

// SquidResult reproduces the Squid case study: the hostile input's 6-byte
// overflow is isolated to a single allocation site and fixed with a pad
// of exactly 6 bytes.
type SquidResult struct {
	Runs          int // paper: 3 runs
	Detected      bool
	Corrected     bool
	CulpritSites  int
	Pad           uint32
	VerifiedClean bool
}

// Name implements Result.
func (*SquidResult) Name() string { return "squid" }

// Rows implements Result.
func (r *SquidResult) Rows() []string {
	return []string{
		row("runs under exterminator: %d (paper: 3)", r.Runs),
		row("overflow detected:       %v", r.Detected),
		row("culprit sites patched:   %d (paper: a single allocation site)", r.CulpritSites),
		row("pad generated:           %d bytes (paper: exactly 6)", r.Pad),
		row("corrected & verified:    %v / %v", r.Corrected, r.VerifiedClean),
	}
}

// Squid runs the case study with `attempts` independent base seeds (the
// paper ran Squid three times).
func Squid(attempts int, seed uint64) *SquidResult {
	prog := workloads.NewSquid()
	input := workloads.SquidHostileInput(200, 100)
	res := &SquidResult{}
	for a := 0; a < attempts; a++ {
		ir := run(engine.ModeIterative, prog, seed+uint64(a)*7919, engine.WithInput(input)).Iterative
		if ir.CleanAtStart {
			res.Runs++ // one execution that happened not to expose the bug
			continue
		}
		res.Detected = true
		// Executions used: detection run plus breakpoint replays = the
		// image count of each round.
		for _, r := range ir.Rounds {
			res.Runs += r.Images
		}
		if !ir.Corrected {
			continue
		}
		res.Corrected = true
		res.CulpritSites = len(ir.Patches.Pads)
		for _, pad := range ir.Patches.Pads {
			if pad > res.Pad {
				res.Pad = pad
			}
		}
		_, clean := engine.Verify(prog, input, nil, ir.Patches, seed+12345, 0x9106)
		res.VerifiedClean = clean
		break
	}
	return res
}

// ---------------------------------------------------------------------
// §7.2, Mozilla (cumulative mode, nondeterministic, real built-in bug)
// ---------------------------------------------------------------------

// MozillaStudy is one of the paper's two scenarios.
type MozillaStudy struct {
	Scenario   string
	Identified bool
	Runs       int // paper: 23 (immediate) and 34 (browse-first)
	Sites      int // identified overflow sites (false positives beyond 1)
}

// MozillaResult reproduces the Mozilla case study.
type MozillaResult struct {
	Immediate   MozillaStudy
	BrowseFirst MozillaStudy
}

// Name implements Result.
func (*MozillaResult) Name() string { return "mozilla" }

// Rows implements Result.
func (r *MozillaResult) Rows() []string {
	f := func(s MozillaStudy, paperRuns int) string {
		return fmt.Sprintf("%-13s identified=%-5v runs=%-3d sites=%d (paper: %d runs, 1 site, 0 false positives)",
			s.Scenario, s.Identified, s.Runs, s.Sites, paperRuns)
	}
	return []string{f(r.Immediate, 23), f(r.BrowseFirst, 34)}
}

// Mozilla runs both scenarios.
func Mozilla(seed uint64) *MozillaResult {
	moz := workloads.NewMozilla(8)
	run := func(scenario string, inputFor func(run int) []byte, heapSeed uint64) MozillaStudy {
		cr := run(engine.ModeCumulative, moz, heapSeed, engine.WithMaxRuns(100),
			engine.WithVaryProgSeed(true), engine.WithInputFunc(inputFor)).Cumulative
		st := MozillaStudy{Scenario: scenario, Identified: cr.Identified, Runs: cr.Runs}
		if cr.Findings != nil {
			st.Sites = len(cr.Findings.Overflows)
		}
		return st
	}
	res := &MozillaResult{}
	// Study 1: load the proof-of-concept page immediately.
	res.Immediate = run("immediate", func(int) []byte {
		return workloads.MozillaSession(2, true)
	}, seed)
	// Study 2: browse a different selection of pages first, then hit the
	// trigger — "different on each run".
	res.BrowseFirst = run("browse-first", func(runIdx int) []byte {
		return workloads.MozillaSession(8+runIdx%7, true)
	}, seed+0x600D)
	return res
}

var _ mutator.Program = workloads.Squid{}
