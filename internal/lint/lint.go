// Package lint implements simlint, the static-analysis suite that enforces
// the simulator's determinism contract (DESIGN.md §9). Every result this
// repo produces — the Fig. 5/7 curves, the golden trace/span hashes, the
// byte-deterministic BENCH_skyloft.json gated by cmd/benchdiff — depends on
// the discrete-event machine being bit-reproducible at a fixed seed. The
// golden-hash tests catch a determinism break only after the fact, on the
// configurations they happen to run; simlint rejects the hazard patterns at
// review time, on every path:
//
//   - wallclock: wall-clock time (time.Now, Sleep, timers) in simulation
//     code — virtual time must come from internal/simtime.
//   - globalrand: math/rand global or unseeded randomness — draws must come
//     from a seeded internal/rng stream.
//   - maporder: map iteration whose order can leak into state, output, or
//     hashes — iterate det.SortedKeys instead.
//   - gospawn: bare goroutines anywhere in the module (internal/proc
//     included) — host-scheduler interleaving is nondeterministic; use
//     proc.P coroutines or bench.Sweep.
//   - selectorder: multi-case selects — Go's runtime picks a ready case
//     pseudo-randomly.
//   - durationlit: raw integer nanosecond literals where a simtime value is
//     expected — typed constants only.
//
// A second, type-aware tier (DESIGN.md §14) enforces the sharded engine's
// data-ownership contract over //simlint:owner and //simlint:phase
// annotations, using a per-package call graph with phase reachability:
//
//   - laneowner: owner-annotated state written from the wrong phase —
//     sim-class state is serial-only, lane-class writes must be confined
//     to the worker's own lane.
//   - attachonly: observer-grade packages (internal/obs/...) mutating sim
//     state — observers read, and attach through declared attach points.
//   - barrierphase: merge- or dispatch-phase functions reachable from
//     lane-callback context — a structural race between barriers.
//
// Findings are suppressed with an explicit, reasoned directive:
//
//	//simlint:allow <analyzer> <reason>
//
// on (or immediately above) the offending line, or in a function's doc
// comment to cover the whole function. A directive with an unknown analyzer
// name or no reason is itself a finding, and so is a directive that matched
// nothing while its analyzer patrolled the package (the stale-allow audit).
// cmd/simlint is the driver; the repo-wide meta-test (TestSimlintRepoClean)
// keeps the tree at zero unsuppressed findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, possibly suppressed by a directive or a
// built-in allowlist entry.
type Diagnostic struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed bool
	// Reason records why a suppressed finding was allowed (directive or
	// allowlist reason).
	Reason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Analyzer is one simlint check.
type Analyzer struct {
	Name string
	Doc  string
	// InScope reports whether the analyzer applies to a package path at
	// all; nil means "everywhere".
	InScope func(pkgPath string) bool
	Run     func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string
	Pkg      *types.Package
	Info     *types.Info

	// Lpkg is the loaded package itself, giving type-aware analyzers
	// (ownercheck tier) the loader's whole-program view: dependency ASTs,
	// ownership annotations, and the memoized call-graph analyses.
	Lpkg *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportSuppressedf records a finding at pos that the analyzer itself has
// already sanctioned (a built-in, reasoned exception narrower than the file
// allowlist). The finding stays in the raw diagnostic stream — the driver's
// -show-suppressed view and the suppression-accounting tests see it — but
// never gates the build.
func (p *Pass) ReportSuppressedf(pos token.Pos, reason, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer:   p.Analyzer.Name,
		Pos:        p.Fset.Position(pos),
		Message:    fmt.Sprintf(format, args...),
		Suppressed: true,
		Reason:     reason,
	})
}

// All returns the full simlint suite in reporting order: the six
// determinism analyzers (DESIGN.md §9) followed by the three type-aware
// ownership analyzers (DESIGN.md §14).
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock, GlobalRand, MapOrder, GoSpawn, SelectOrder, DurationLit,
		LaneOwner, AttachOnly, BarrierPhase,
	}
}

// Run applies the analyzers to pkg and returns every diagnostic — including
// suppressed ones, marked as such — plus any directive-hygiene findings,
// sorted by position. Callers that only gate on violations should filter
// with Unsuppressed.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	active := map[string]bool{}
	for _, a := range analyzers {
		if a.InScope != nil && !a.InScope(pkg.Path) {
			continue
		}
		active[a.Name] = true
		a.Run(&Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Path:     pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Lpkg:     pkg,
			diags:    &diags,
		})
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sup := collectDirectives(pkg, known)
	diags = append(diags, sup.issues...)
	for i := range diags {
		d := &diags[i]
		if d.Suppressed {
			continue
		}
		if reason, ok := sup.match(d.Analyzer, d.Pos); ok {
			d.Suppressed, d.Reason = true, reason
			continue
		}
		if reason, ok := allowlisted(d.Analyzer, d.Pos.Filename); ok {
			d.Suppressed, d.Reason = true, reason
		}
	}
	// Stale-suppression audit: a directive that excused nothing this run is
	// dead weight — the hazard it documented is gone, or the directive is
	// mis-placed and silently not protecting anything. Either way it reads
	// as a live, reviewed exception when it is not, so it is a hygiene
	// finding (unsuppressible, like the other directive-hygiene checks).
	// Only analyzers that actually patrolled this package count: a
	// directive for an out-of-scope analyzer is dormant, not stale.
	diags = append(diags, sup.stale(active)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// Unsuppressed filters diags down to the findings that gate the build.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
