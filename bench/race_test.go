//go:build race

package main

// The race detector slows the generators several-fold, so open-loop
// workloads cannot keep their schedule; the smoke test then tolerates the
// generator-lag validity failure.
func init() { raceEnabled = true }
