package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 70}}, 70},
		{"overlapping", []span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"clipped to the parent", []span{{Start: -5, End: 2}, {Start: 90, End: 120}}, 88},
		{"outside the parent", []span{{Start: 100, End: 130}, {Start: -9, End: 0}}, 100},
		{"covering the parent", []span{{Start: -1, End: 101}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metrics in step with the ones the command runs and prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(b.Workloads), len(allWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, allWorkloads[i].name)
		}
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs every workload briefly, traced, and checks that the run
// is correct and that every metric BENCHMARK.json names is printed,
// finite and tagged with its unit, in a result line of exactly the four
// keys.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	cfg := config{seed: 1, seconds: 1, trace: true, setups: 1, warmup: 200 * time.Millisecond}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			res, err := w.run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			problems := res.problems
			if raceEnabled {
				problems = nil
				for _, p := range res.problems {
					if !strings.HasPrefix(p, "generator lag") {
						problems = append(problems, p)
					}
				}
			}
			if len(problems) > 0 || res.failed > 0 || res.attempted == 0 {
				t.Fatalf("%d attempted, %d failed, problems %v", res.attempted, res.failed, problems)
			}
			for _, set := range []struct {
				defs   []metricDef
				listed int
			}{{endToEnd, len(b.EndToEnd)}, {perLayer, len(b.PerLayer)}} {
				line, err := json.Marshal(res.output(set.defs))
				if err != nil {
					t.Fatal(err)
				}
				var out map[string]json.RawMessage
				if err := json.Unmarshal(line, &out); err != nil {
					t.Fatal(err)
				}
				if len(out) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
					t.Fatalf("result line keys: %s", line)
				}
				var metrics map[string]metricOut
				if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				if len(metrics) != set.listed {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(metrics), set.listed)
				}
				for _, d := range set.defs {
					m, ok := metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s not printed", d.name)
					case m.Unit != d.unit:
						t.Errorf("%s unit %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(res.metrics[d.name]) || math.IsInf(res.metrics[d.name], 0):
						t.Errorf("%s is not finite: %v", d.name, res.metrics[d.name])
					}
				}
			}
			for _, d := range endToEnd {
				if res.metrics[d.name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, res.metrics[d.name])
				}
			}
			if len(res.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}
