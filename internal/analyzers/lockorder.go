package analyzers

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// LockorderConfig parameterizes the lockorder analyzer.
type LockorderConfig struct {
	// Order is the canonical lock hierarchy, outermost first: an edge
	// "B acquired while A held" is legal only when A appears before B.
	// Empty disables the declared-order and undeclared-class checks
	// (cycle detection always runs) — test fixtures use that.
	Order []LockRank

	// DeclarePkgs lists package name prefixes (as seen in class keys,
	// e.g. "fleet.") whose lock classes must appear in Order.
	DeclarePkgs []string
}

// DefaultLockorderConfig returns the repository configuration: the
// canonical LockOrder declaration over the telemetry, fleet, cluster
// and engine packages.
func DefaultLockorderConfig() LockorderConfig {
	return LockorderConfig{
		Order:       LockOrder,
		DeclarePkgs: []string{"telemetry.", "fleet.", "cluster.", "engine.", "triage."},
	}
}

// lockEdge is one observed "to acquired while from held" relation.
type lockEdge struct {
	from, to string
	pos      token.Pos // witness: where the acquisition/call happened
	why      string    // human explanation of the edge
}

// Lockorder builds the analyzer: it derives the global mutex-
// acquisition graph (including CHA-resolved dynamic calls, so a
// GaugeFunc closure that locks its owner still contributes an edge from
// the registry lock that may be held when it runs), flags cycles, and
// checks every edge against the canonical declaration.
func Lockorder(cfg LockorderConfig) *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "detect lock-order cycles and canonical lock-hierarchy violations",
		Run: func(pass *Pass) []Diagnostic {
			lp := buildLockProgram(pass)
			edges := deriveEdges(lp)
			var out []Diagnostic
			out = append(out, cycleDiagnostics(edges)...)
			out = append(out, declarationDiagnostics(lp, edges, cfg)...)
			return out
		},
	}
}

// deriveEdges computes the deduplicated class-order edge set.
func deriveEdges(lp *lockProgram) []lockEdge {
	seen := make(map[[2]string]bool)
	var edges []lockEdge
	add := func(e lockEdge) {
		if strings.HasPrefix(e.from, localClassPrefix) || strings.HasPrefix(e.to, localClassPrefix) {
			return
		}
		k := [2]string{e.from, e.to}
		if seen[k] {
			return
		}
		seen[k] = true
		edges = append(edges, e)
	}

	var names []string
	byName := make(map[string]*funcSummary)
	for _, s := range lp.funcs {
		names = append(names, s.name)
		byName[s.name] = s
	}
	sort.Strings(names)

	for _, n := range names {
		s := byName[n]
		for _, a := range s.acquires {
			for _, h := range a.held {
				add(lockEdge{
					from: h.class, to: a.class, pos: a.pos,
					why: fmt.Sprintf("%s %ss %s while holding %s", s.name, strings.ToLower(a.op), a.class, h.class),
				})
			}
		}
		for _, c := range s.calls {
			cs, ok := lp.funcs[c.callee]
			if !ok || len(c.held) == 0 {
				continue
			}
			for class, wit := range cs.transAcq {
				for _, h := range c.held {
					why := fmt.Sprintf("%s calls %s (which acquires %s) while holding %s", s.name, cs.name, class, h.class)
					if wit.via != "" {
						why = fmt.Sprintf("%s calls %s (which acquires %s via %s) while holding %s", s.name, cs.name, class, wit.via, h.class)
					}
					add(lockEdge{from: h.class, to: class, pos: c.pos, why: why})
				}
			}
		}
		for _, d := range s.dynCalls {
			if len(d.held) == 0 {
				continue
			}
			for _, cand := range lp.dynCandidates(d) {
				for class := range cand.transAcq {
					for _, h := range d.held {
						add(lockEdge{
							from: h.class, to: class, pos: d.pos,
							why: fmt.Sprintf("%s calls %s while holding %s; possible target %s acquires %s",
								s.name, d.desc, h.class, cand.name, class),
						})
					}
				}
			}
		}
	}
	return edges
}

// cycleDiagnostics finds strongly connected components in the edge
// graph and reports every edge participating in a cycle.
func cycleDiagnostics(edges []lockEdge) []Diagnostic {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}

	// Tarjan SCC.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	next, ncomp := 0, 0
	var strong func(v string)
	strong = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, wn := range adj[v] {
			if _, ok := index[wn]; !ok {
				strong(wn)
				if low[wn] < low[v] {
					low[v] = low[wn]
				}
			} else if onStack[wn] && index[wn] < low[v] {
				low[v] = index[wn]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	var sorted []string
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		if _, ok := index[n]; !ok {
			strong(n)
		}
	}

	compSize := make(map[int]int)
	for _, c := range comp {
		compSize[c]++
	}

	var out []Diagnostic
	for _, e := range edges {
		inCycle := e.from == e.to || (comp[e.from] == comp[e.to] && compSize[comp[e.from]] > 1)
		if !inCycle {
			continue
		}
		members := []string{e.from}
		if e.from != e.to {
			for n := range comp {
				if comp[n] == comp[e.from] && n != e.from {
					members = append(members, n)
				}
			}
			sort.Strings(members[1:])
		}
		out = append(out, Diagnostic{
			Pos: e.pos,
			Message: fmt.Sprintf("lock-order cycle among {%s}: %s",
				strings.Join(members, ", "), e.why),
		})
	}
	return out
}

// declarationDiagnostics checks edges and observed classes against the
// canonical declaration, and the declaration against the observed
// classes: a row whose package is under analysis but whose class no
// analyzed function locks names a mutex that is gone.
func declarationDiagnostics(lp *lockProgram, edges []lockEdge, cfg LockorderConfig) []Diagnostic {
	if len(cfg.Order) == 0 {
		return nil
	}
	rank := make(map[string]int, len(cfg.Order))
	for i, r := range cfg.Order {
		rank[r.Class] = i
	}

	var out []Diagnostic
	for _, e := range edges {
		ri, iok := rank[e.from]
		rj, jok := rank[e.to]
		if !iok || !jok || e.from == e.to {
			continue // undeclared classes reported below; self-edges are cycles
		}
		if ri > rj {
			out = append(out, Diagnostic{
				Pos: e.pos,
				Message: fmt.Sprintf(
					"%s: violates the canonical lock order (%s is rank %d, outside %s at rank %d; see internal/analyzers/lockrank.go)",
					e.why, e.to, rj, e.from, ri),
			})
		}
	}

	var classes []string
	for c := range lp.classPos {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		if _, ok := rank[c]; ok {
			continue
		}
		declared := false
		for _, p := range cfg.DeclarePkgs {
			if strings.HasPrefix(c, p) {
				declared = true
				break
			}
		}
		if declared {
			out = append(out, Diagnostic{
				Pos: lp.classPos[c],
				Message: fmt.Sprintf(
					"lock class %s is not declared in the canonical lock order (add it to LockOrder in internal/analyzers/lockrank.go and docs/ARCHITECTURE.md)", c),
			})
		}
	}

	analyzed := make(map[string]*Package)
	for _, pkg := range lp.pass.Pkgs {
		analyzed[pkg.Types.Name()] = pkg
	}
	for _, r := range cfg.Order {
		pkgName, _, _ := strings.Cut(r.Class, ".")
		pkg, ok := analyzed[pkgName]
		if _, locked := lp.classPos[r.Class]; ok && !locked {
			out = append(out, Diagnostic{
				Pos: pkg.Files[0].Name.Pos(),
				Message: fmt.Sprintf(
					"LockOrder row %s is stale: no analyzed function locks it (delete it from LockOrder in internal/analyzers/lockrank.go and docs/ARCHITECTURE.md)", r.Class),
			})
		}
	}
	return out
}

// DumpEdges renders the derived acquisition graph (for `extlint
// -dumplocks` and for maintaining the declaration).
func DumpEdges(pass *Pass) string {
	lp := buildLockProgram(pass)
	edges := deriveEdges(lp)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	var b strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&b, "%s -> %s\n    %s (%s)\n", e.from, e.to, e.why, pass.Fset.Position(e.pos))
	}
	var classes []string
	for c := range lp.classPos {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	b.WriteString("classes:\n")
	for _, c := range classes {
		fmt.Fprintf(&b, "    %s (%s)\n", c, pass.Fset.Position(lp.classPos[c]))
	}
	return b.String()
}
