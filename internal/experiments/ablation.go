package experiments

import (
	"time"

	"exterminator/internal/diefast"
	"exterminator/internal/inject"
	"exterminator/internal/mutator"
	"exterminator/internal/workloads"
	"exterminator/internal/xrand"
)

// AblationMRow is one heap-multiplier setting.
type AblationMRow struct {
	M             float64
	DetectionRate float64 // fraction of single-run overflows detected
	TheoremBound  float64 // Theorem 2's single-heap miss bound: 1−(M−1)/2M
	HeapBytes     int     // mapped bytes after the probe workload
	RunNs         int64   // workload wall time
}

// AblationMResult sweeps M — the space/safety dial DESIGN.md §4 calls
// out. Theorem 2's miss bound (1−(M−1)/2M)^k says larger heaps catch
// more overflows per run; the sweep shows the memory and time price.
type AblationMResult struct {
	RowsData []AblationMRow
}

// Name implements Result.
func (*AblationMResult) Name() string { return "ablation-m" }

// Rows implements Result.
func (r *AblationMResult) Rows() []string {
	out := []string{row("%-5s %-11s %-13s %-11s %-9s", "M", "detected", "miss-bound", "heap-bytes", "time")}
	for _, a := range r.RowsData {
		out = append(out, row("%-5.1f %-11.2f %-13.2f %-11d %-9s",
			a.M, a.DetectionRate, a.TheoremBound, a.HeapBytes, time.Duration(a.RunNs)))
	}
	return out
}

// AblationM measures detection rate, memory and time for M ∈ {1.5, 2, 4}.
func AblationM(trials int, seed uint64) *AblationMResult {
	res := &AblationMResult{}
	for _, m := range []float64{1.5, 2.0, 4.0} {
		detected := 0
		heapBytes := 0
		var runNs int64
		for t := 0; t < trials; t++ {
			cfg := diefast.DefaultConfig()
			cfg.Diehard.M = m
			h := diefast.New(cfg, xrand.New(seed+uint64(t)*7919))
			h.OnError = func(diefast.Event) {}
			prog, _ := workloads.ByName("espresso", 1)
			e := mutator.NewEnv(h, h.Space(), xrand.New(0x9106), nil)
			// One deterministic overflow per run (same logical bug).
			e.Hook = inject.New(inject.Plan{Kind: inject.Overflow, TriggerAlloc: 700, Size: 20, Seed: seed})
			start := time.Now()
			out := mutator.Run(prog, e)
			runNs += time.Since(start).Nanoseconds()
			if out.Bad() || len(h.Events()) > 0 || len(h.Scan(false)) > 0 {
				detected++
			}
			heapBytes = h.Space().MappedBytes()
		}
		res.RowsData = append(res.RowsData, AblationMRow{
			M:             m,
			DetectionRate: float64(detected) / float64(trials),
			TheoremBound:  1 - (m-1)/(2*m),
			HeapBytes:     heapBytes,
			RunNs:         runNs / int64(trials),
		})
	}
	return res
}
