package lint

import (
	"path/filepath"
	"strings"

	"skyloft/internal/det"
)

// Scope configuration: which packages each analyzer patrols, and the few
// files whose whole purpose exempts them from a specific check. Everything
// here is deliberately narrow — the default is "in scope", and one-off
// exceptions belong in //simlint:allow directives next to the code they
// excuse, where reviewers can see the reason.

// moduleScope reports pkgPath is inside this module (fixtures are loaded
// under synthetic skyloft/... paths so they land in scope too).
func moduleScope(pkgPath string) bool {
	return pkgPath == "skyloft" || strings.HasPrefix(pkgPath, "skyloft/")
}

// notSimtimeScope is moduleScope minus internal/simtime itself, which
// defines the typed constants durationlit forces everyone else to use.
func notSimtimeScope(pkgPath string) bool {
	return moduleScope(pkgPath) && pkgPath != "skyloft/internal/simtime"
}

// observerGrade reports pkgPath is an observability layer (internal/obs
// subtree): attach-only readers of sim state, patrolled by attachonly.
// Fixtures load under synthetic skyloft/internal/obs/... paths to opt in.
func observerGrade(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "skyloft/internal/obs/") ||
		pkgPath == "skyloft/internal/obs"
}

// fileAllowlist maps analyzer name -> module-relative files (slash paths)
// where findings are suppressed wholesale, with the reason reviewers see.
var fileAllowlist = map[string]map[string]string{
	"gospawn": {
		// The bounded sweep pool is the one sanctioned fan-out: each job is
		// a self-contained simulation, and results are returned in input
		// order, so host interleaving cannot reach any sim state.
		"internal/bench/sweep.go": "bench.Sweep is the sanctioned parallel-trial pool",
		// The engine's barrier-phase lane workers touch strictly disjoint
		// per-lane state and are joined before dispatch resumes, so host
		// interleaving cannot reorder events or reach shared sim state.
		"internal/simtime/engine_par.go": "engine lane workers operate on disjoint lane state between barriers",
	},
}

func allowlisted(analyzer, filename string) (reason string, ok bool) {
	files := fileAllowlist[analyzer]
	if files == nil {
		return "", false
	}
	slash := filepath.ToSlash(filename)
	for _, suffix := range det.SortedKeys(files) {
		if slash == suffix || strings.HasSuffix(slash, "/"+suffix) {
			return files[suffix], true
		}
	}
	return "", false
}
