package analyzers

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden tests load fixture packages from testdata/ (real module
// import paths, so cross-package fixtures resolve) and compare the
// diagnostics against analysistest-style expectations: a comment
//
//	// want `regex`
//
// on the flagged line. Every diagnostic must match a want on its line,
// and every want must be matched by a diagnostic.

var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

const fixtureBase = "exterminator/internal/analyzers/testdata/"

func fixturePass(t *testing.T, rels ...string) *Pass {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	var pkgs []*Package
	for _, rel := range rels {
		pkg, err := l.Load(fixtureBase + rel)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", rel, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return l.NewPass(pkgs)
}

type wantKey struct {
	file string
	line int
}

// parseWants scans the fixture sources for "// want `regex`" comments
// (several backquoted patterns may follow one want).
func parseWants(t *testing.T, pass *Pass) map[wantKey][]*regexp.Regexp {
	t.Helper()
	out := make(map[wantKey][]*regexp.Regexp)
	seen := make(map[string]bool)
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			name := pass.Fset.Position(f.Pos()).Filename
			if seen[name] {
				continue
			}
			seen[name] = true
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("reading fixture %s: %v", name, err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				rest, ok := cutAfter(line, "// want ")
				if !ok {
					continue
				}
				k := wantKey{file: name, line: i + 1}
				for {
					pat, tail, ok := backquoted(rest)
					if !ok {
						break
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, pat, err)
					}
					out[k] = append(out[k], re)
					rest = tail
				}
				if len(out[k]) == 0 {
					t.Fatalf("%s:%d: want comment without a backquoted pattern", name, i+1)
				}
			}
		}
	}
	return out
}

func cutAfter(s, sep string) (string, bool) {
	if i := strings.Index(s, sep); i >= 0 {
		return s[i+len(sep):], true
	}
	return "", false
}

func backquoted(s string) (pat, rest string, ok bool) {
	start := strings.Index(s, "`")
	if start < 0 {
		return "", "", false
	}
	end := strings.Index(s[start+1:], "`")
	if end < 0 {
		return "", "", false
	}
	return s[start+1 : start+1+end], s[start+end+2:], true
}

// checkFixture runs the analyzers over the pass (through RunAnalyzers,
// so suppression directives apply exactly as in the driver) and
// compares against the want comments.
func checkFixture(t *testing.T, pass *Pass, analyzers []*Analyzer) {
	t.Helper()
	wants := parseWants(t, pass)
	for _, d := range RunAnalyzers(pass, analyzers) {
		p := pass.Fset.Position(d.Pos)
		k := wantKey{file: p.Filename, line: p.Line}
		matched := false
		for i, re := range wants[k] {
			if re != nil && re.MatchString(d.Message) {
				wants[k][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s: %s", p, d.Analyzer, d.Message)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
			}
		}
	}
}

// TestLockorderABBA is the PR 6 regression gate: the two-package
// fixture reproduces the registry↔coordinator deadlock (gauge callbacks
// evaluated under the registry lock, registered under the coordinator
// lock) and the analyzer must flag the cycle on both edges.
func TestLockorderABBA(t *testing.T) {
	pass := fixturePass(t, "lockorder/abbareg", "lockorder/abbacoord")
	checkFixture(t, pass, []*Analyzer{Lockorder(LockorderConfig{})})
}

func TestLockorderDeclaration(t *testing.T) {
	pass := fixturePass(t, "lockorder/ranked")
	cfg := LockorderConfig{
		Order: []LockRank{
			{Class: "ranked.A.mu", Doc: "outer"},
			{Class: "ranked.B.mu", Doc: "inner"},
			{Class: "ranked.Retired.mu", Doc: "stale: its mutex is gone"},
			{Class: "elsewhere.T.mu", Doc: "outside the run"},
		},
		DeclarePkgs: []string{"ranked."},
	}
	checkFixture(t, pass, []*Analyzer{Lockorder(cfg)})
}

func TestLockio(t *testing.T) {
	pass := fixturePass(t, "lockio")
	cfg := LockioConfig{
		FlagDynamicCalls: true,
		CoarseLocks:      []string{"lockio.Pool.opMu"},
	}
	checkFixture(t, pass, []*Analyzer{Lockio(cfg)})
}

func TestAtomicmix(t *testing.T) {
	pass := fixturePass(t, "atomicmix")
	checkFixture(t, pass, []*Analyzer{Atomicmix()})
}

func TestWiretags(t *testing.T) {
	pass := fixturePass(t, "wiretags")
	cfg := WiretagsConfig{
		WirePkgSuffixes: []string{"testdata/wiretags"},
		DocFiles:        []string{filepath.Join("internal", "analyzers", "testdata", "wiretags", "protocol.md")},
	}
	checkFixture(t, pass, []*Analyzer{Wiretags(cfg)})
}

func TestMetricconv(t *testing.T) {
	pass := fixturePass(t, "metricconv")
	cfg := MetricconvConfig{
		RegistryPkgSuffix: "testdata/metricconv/registry",
		ScanPkgPrefixes:   []string{fixtureBase + "metricconv"},
		Prefixes:          DefaultMetricconvConfig().Prefixes,
		HistogramSuffixes: DefaultMetricconvConfig().HistogramSuffixes,
		DocFile:           filepath.Join("internal", "analyzers", "testdata", "metricconv", "observability.md"),
	}
	checkFixture(t, pass, []*Analyzer{Metricconv(cfg)})
}

// TestDirectives asserts the suppression contract with explicit
// checks: same-line and line-above directives suppress, "all"
// suppresses every analyzer, a directive naming another analyzer does
// not, and a directive without a reason is itself diagnosed.
func TestDirectives(t *testing.T) {
	pass := fixturePass(t, "directive")
	diags := RunAnalyzers(pass, []*Analyzer{Lockio(DefaultLockioConfig())})
	var got []string
	for _, d := range diags {
		p := pass.Fset.Position(d.Pos)
		got = append(got, d.Analyzer+" at "+filepath.Base(p.Filename)+": "+d.Message)
	}
	// Expected: the wrongAnalyzer sleep fires (directive names another
	// analyzer), the malformed directive is diagnosed AND does not
	// suppress, so its sleep fires too. sameLine and lineAbove stay
	// silent.
	var lockio, malformed int
	for _, d := range diags {
		switch {
		case d.Analyzer == "lockio" && strings.Contains(d.Message, "time.Sleep while holding"):
			lockio++
		case d.Analyzer == "extlint" && strings.Contains(d.Message, "malformed //extlint:ignore"):
			malformed++
		}
	}
	if len(diags) != 3 || lockio != 2 || malformed != 1 {
		t.Fatalf("want 2 unsuppressed lockio findings + 1 malformed-directive finding, got:\n%s",
			strings.Join(got, "\n"))
	}
}

// TestRepoLockGraph pins the acceptance criterion on the real tree: the
// telemetry/fleet/cluster/engine/triage lock graph is cycle-free and
// every edge respects the canonical LockOrder declaration.
func TestRepoLockGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-program load is slow")
	}
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	var pkgs []*Package
	for _, p := range []string{
		"exterminator/internal/telemetry",
		"exterminator/internal/triage",
		"exterminator/internal/fleet",
		"exterminator/internal/cluster",
		"exterminator/internal/engine",
	} {
		pkg, err := l.Load(p)
		if err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	pass := l.NewPass(pkgs)
	for _, d := range RunAnalyzers(pass, []*Analyzer{Lockorder(DefaultLockorderConfig())}) {
		t.Errorf("%s", Format(pass.Fset, d))
	}
}

// TestLockOrderMatchesArchitectureDoc pins the "Lock hierarchy" table
// in docs/ARCHITECTURE.md to the canonical LockOrder declaration: same
// classes, same order, same guard descriptions.
func TestLockOrderMatchesArchitectureDoc(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(l.ModRoot, "docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatalf("reading ARCHITECTURE.md: %v", err)
	}
	rowRe := regexp.MustCompile("^\\| *([0-9]+) *\\| *`([^`]+)` *\\| *(.*?) *\\|$")
	var classes, docs []string
	inSection := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inSection = strings.HasPrefix(line, "## Lock hierarchy")
			continue
		}
		if !inSection {
			continue
		}
		if m := rowRe.FindStringSubmatch(line); m != nil {
			classes = append(classes, m[2])
			docs = append(docs, m[3])
		}
	}
	if len(classes) == 0 {
		t.Fatal("no lock-hierarchy table rows found in docs/ARCHITECTURE.md")
	}
	if len(classes) != len(LockOrder) {
		t.Fatalf("ARCHITECTURE.md lists %d locks, LockOrder declares %d", len(classes), len(LockOrder))
	}
	for i, r := range LockOrder {
		if classes[i] != r.Class {
			t.Errorf("rank %d: ARCHITECTURE.md says %s, LockOrder says %s", i+1, classes[i], r.Class)
		}
		if docs[i] != r.Doc {
			t.Errorf("rank %d (%s): guard description drifted:\n  doc:      %s\n  lockrank: %s", i+1, r.Class, docs[i], r.Doc)
		}
	}
}
