package main

import (
	"context"
	"flag"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"exterminator/internal/cumulative"
	"exterminator/internal/fleet"
	"exterminator/internal/site"
)

// TestSnapshotLoopWritesDrainWithoutNewBatches: a rebalance drain on an
// idle partition moves no batch counter, yet the state file must follow
// it within a few intervals. A file that kept the drained keys would
// restore them next to their copy on the new owner, and the
// coordinator's full resync would count them twice.
func TestSnapshotLoopWritesDrainWithoutNewBatches(t *testing.T) {
	const interval = 20 * time.Millisecond
	keys := []site.ID{0x100, 0x101}
	srv := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1, DisableCorrection: true})
	batch := &cumulative.Snapshot{C: 4, P: 0.5, Runs: 1, Sites: keys}
	for _, k := range keys {
		batch.Overflow = append(batch.Overflow, cumulative.SiteObservations{
			Site: k, Obs: []cumulative.Observation{{X: 0.5, Y: true}},
		})
	}
	srv.Store().AbsorbSnapshot(batch)

	path := filepath.Join(t.TempDir(), "fleet.snap")
	ctx, cancel := context.WithCancel(context.Background())
	finalSnapshot := snapshotLoop(ctx, srv.SaveSnapshot, path, interval)
	defer func() {
		cancel()
		finalSnapshot()
	}()

	// restoredKeys restores the file into a fresh server and returns the
	// evidence keys it holds (none before the first write).
	restoredKeys := func() []site.ID {
		fresh := fleet.NewServer(fleet.ServerOptions{CorrectEvery: -1, DisableCorrection: true})
		if err := fresh.LoadSnapshot(path); err != nil {
			t.Fatal(err)
		}
		return fresh.Store().Combined().EvidenceKeys()
	}
	// waitFor polls the file until cond holds, for at most 50 intervals.
	waitFor := func(what string, cond func([]site.ID) bool) {
		t.Helper()
		for deadline := time.Now().Add(50 * interval); ; time.Sleep(interval / 2) {
			got := restoredKeys()
			if cond(got) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("the state file never %s: it restores keys %v", what, got)
			}
		}
	}

	waitFor("held the absorbed batch", func(got []site.ID) bool { return slices.Equal(got, keys) })
	if _, cached := srv.Evict("drain-1", keys, false); cached {
		t.Fatal("first drain answered from the evict cache")
	}
	waitFor("dropped the drained keys", func(got []site.ID) bool { return len(got) == 0 })
}

// TestIgnoredFlags: a flag set on the command line that its mode does
// not read is reported, whatever its value (-shards 16 is the default),
// and a flag the mode reads is not. A negative -dedup fails only in the
// modes that read it. The table names only real flags, and every flag is
// read by some mode.
func TestIgnoredFlags(t *testing.T) {
	// parse records which flags args set, on string-typed copies of
	// fleetd's flags, so fleetd's own flag values stay untouched.
	parse := func(args ...string) *flag.FlagSet {
		fs := flag.NewFlagSet("fleetd", flag.ContinueOnError)
		flag.VisitAll(func(f *flag.Flag) { fs.String(f.Name, "", f.Usage) })
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	for _, tc := range []struct {
		mode     string
		args     []string
		want     []string
		dedupErr bool
	}{
		{"replica", []string{"-replica", "http://c", "-snapshot", "r.snap"}, []string{"-snapshot"}, false},
		{"coordinator", []string{"-coordinator", "http://p", "-shards", "16"}, []string{"-shards"}, false},
		{"coordinator", []string{"-coordinator", "http://p", "-correct-interval", "1s"}, []string{"-correct-interval"}, false},
		{"single", []string{"-alert-url", "http://hook"}, nil, false},
		{"replica", []string{"-replica", "http://127.0.0.1:9", "-dedup", "-1"}, []string{"-dedup"}, false},
		{"coordinator", []string{"-coordinator", "http://p", "-dedup", "-1"}, []string{"-dedup"}, false},
		{"single", []string{"-dedup", "-1"}, nil, true},
		{"partition", []string{"-partition=true", "-dedup", "-1"}, nil, true},
		{"partition", []string{"-partition=true", "-dedup", "8"}, nil, false},
	} {
		fs := parse(tc.args...)
		if got := ignoredFlags(fs, tc.mode); !slices.Equal(got, tc.want) {
			t.Errorf("%s mode, %v: reported %v, want %v", tc.mode, tc.args, got, tc.want)
		}
		if err := checkDedup(fs, tc.mode); (err != nil) != tc.dedupErr {
			t.Errorf("%s mode, %v: checkDedup = %v, want an error: %v", tc.mode, tc.args, err, tc.dedupErr)
		}
	}

	read := map[string]bool{}
	for mode, names := range modeFlags {
		for _, name := range slices.Concat(everyMode, names) {
			if flag.Lookup(name) == nil {
				t.Errorf("%s mode lists -%s, which is no flag", mode, name)
			}
			read[name] = true
		}
	}
	flag.VisitAll(func(f *flag.Flag) {
		// The test binary's own flags share the command line.
		if !read[f.Name] && !strings.HasPrefix(f.Name, "test.") {
			t.Errorf("no mode reads -%s", f.Name)
		}
	})
}
