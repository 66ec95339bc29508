package lint_test

import (
	"strings"
	"testing"

	"skyloft/internal/lint"
	"skyloft/internal/lint/linttest"
)

// Each fixture is loaded under a synthetic in-scope import path so the
// analyzer under test sees it exactly as it would see real simulator code.

func TestWallclock(t *testing.T) {
	linttest.Run(t, "testdata/src/wallclock", "skyloft/internal/core/wallclockfixture", lint.Wallclock)
}

func TestGlobalRand(t *testing.T) {
	linttest.Run(t, "testdata/src/globalrand", "skyloft/internal/hw/globalrandfixture", lint.GlobalRand)
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "testdata/src/maporder", "skyloft/internal/obs/maporderfixture", lint.MapOrder)
}

func TestGoSpawn(t *testing.T) {
	linttest.Run(t, "testdata/src/gospawn", "skyloft/internal/ksched/gospawnfixture", lint.GoSpawn)
}

// TestGoSpawnOutOfScope loads the same goroutine-heavy fixture under a
// path outside the module: nothing may be reported, not even as
// suppressed.
func TestGoSpawnOutOfScope(t *testing.T) {
	linttest.RunNoFindings(t, "testdata/src/gospawn", "example.com/gospawnfixture", lint.GoSpawn)
}

// TestGoSpawnPatrolsProc checks internal/proc has no carve-out: its
// coroutines come from iter.Pull, so a go statement there is a finding
// like anywhere else.
func TestGoSpawnPatrolsProc(t *testing.T) {
	linttest.Run(t, "testdata/src/gospawn", "skyloft/internal/proc", lint.GoSpawn)
}

// TestGoSpawnLaneWorker checks the engine lane-worker allowlist: the
// fixture file whose path ends in internal/simtime/engine_par.go spawns a
// goroutine with no want comment (suppressed by the file allowlist), while
// the sibling file's spawn in the same package is still reported — the
// sanction is per-file, not per-package.
func TestGoSpawnLaneWorker(t *testing.T) {
	linttest.Run(t, "testdata/src/laneworker/internal/simtime",
		"skyloft/internal/simtime/laneworkerfixture", lint.GoSpawn)
}

// TestGoSpawnLaneWorkerAccounting checks the allowlisted finding stays in
// the raw diagnostic stream, marked suppressed with the allowlist reason.
func TestGoSpawnLaneWorkerAccounting(t *testing.T) {
	pkg := linttest.Load(t, "testdata/src/laneworker/internal/simtime",
		"skyloft/internal/simtime/laneworkeraccfixture")
	var suppressed []lint.Diagnostic
	for _, d := range lint.Run(pkg, []*lint.Analyzer{lint.GoSpawn}) {
		if d.Suppressed {
			suppressed = append(suppressed, d)
		}
	}
	if len(suppressed) != 1 {
		t.Fatalf("suppressed findings = %d, want 1: %v", len(suppressed), suppressed)
	}
	d := suppressed[0]
	if d.Reason == "" {
		t.Errorf("allowlisted finding carries no reason: %s", d)
	}
	if want := "engine_par.go"; !strings.HasSuffix(d.Pos.Filename, want) {
		t.Errorf("suppressed finding in %s, want file %s", d.Pos.Filename, want)
	}
}

// TestGoSpawnLiveSanctions loads the live-bus fixture under the sanctioned
// package path: the named callees (writeLoop, serve) are suppressed by the
// per-callee sanction table, while a bare helper spawn and a function
// literal in the same file are still findings.
func TestGoSpawnLiveSanctions(t *testing.T) {
	linttest.Run(t, "testdata/src/gospawnlive", "skyloft/internal/obs/live", lint.GoSpawn)
}

// TestGoSpawnLiveSanctionsAccounting checks the sanctioned spawns stay in
// the raw diagnostic stream, marked suppressed with the table's reason.
func TestGoSpawnLiveSanctionsAccounting(t *testing.T) {
	pkg := linttest.Load(t, "testdata/src/gospawnlive", "skyloft/internal/obs/live")
	var suppressed []lint.Diagnostic
	for _, d := range lint.Run(pkg, []*lint.Analyzer{lint.GoSpawn}) {
		if d.Suppressed {
			suppressed = append(suppressed, d)
		}
	}
	if len(suppressed) != 2 {
		t.Fatalf("suppressed findings = %d, want 2: %v", len(suppressed), suppressed)
	}
	for _, d := range suppressed {
		if d.Reason == "" {
			t.Errorf("sanctioned finding carries no reason: %s", d)
		}
	}
}

// TestGoSpawnLiveSanctionsElsewhere loads the identical fixture under a
// different deterministic package path: the sanction is keyed by package,
// so all four spawns must be plain unsuppressed findings there.
func TestGoSpawnLiveSanctionsElsewhere(t *testing.T) {
	pkg := linttest.Load(t, "testdata/src/gospawnlive", "skyloft/internal/core/gospawnlivefixture")
	diags := lint.Run(pkg, []*lint.Analyzer{lint.GoSpawn})
	if got := len(lint.Unsuppressed(diags)); got != 4 {
		t.Errorf("unsuppressed findings = %d, want 4 (sanctions must not apply outside obs/live): %v", got, diags)
	}
	for _, d := range diags {
		if d.Suppressed {
			t.Errorf("finding suppressed outside the sanctioned package: %s", d)
		}
	}
}

func TestSelectOrder(t *testing.T) {
	linttest.Run(t, "testdata/src/selectorder", "skyloft/internal/uintrsim/selectorderfixture", lint.SelectOrder)
}

func TestSelectOrderOutOfScope(t *testing.T) {
	linttest.RunNoFindings(t, "testdata/src/selectorder", "example.com/selectorderfixture", lint.SelectOrder)
}

func TestSelectOrderPatrolsProc(t *testing.T) {
	linttest.Run(t, "testdata/src/selectorder", "skyloft/internal/proc", lint.SelectOrder)
}

func TestDurationLit(t *testing.T) {
	linttest.Run(t, "testdata/src/durationlit", "skyloft/internal/core/durationlitfixture", lint.DurationLit)
}

// TestLaneOwner drives the lane-ownership analyzer through its fixture:
// confined lane writes and serial-phase writes stay silent; cross-lane,
// sim-class-from-lane and outside-any-phase writes are findings, as are
// malformed ownership annotations.
func TestLaneOwner(t *testing.T) {
	linttest.Run(t, "testdata/src/laneowner", "skyloft/internal/simtime/laneownerfixture", lint.LaneOwner)
}

// TestBarrierPhase checks phase-reachability enforcement: merge- and
// dispatch-declared functions may not be called or referenced from lane
// context, while init-phase and unannotated callees stay legal.
func TestBarrierPhase(t *testing.T) {
	linttest.Run(t, "testdata/src/barrierphase", "skyloft/internal/simtime/barrierphasefixture", lint.BarrierPhase)
}

// TestAttachOnly loads the observer fixture under an obs path: mutating
// methods of the real owned types (trace.Ring, simtime.EventCore) and
// owner-field writes are findings; attach points and read-only queries are
// not.
func TestAttachOnly(t *testing.T) {
	linttest.Run(t, "testdata/src/attachonly", "skyloft/internal/obs/attachonlyfixture", lint.AttachOnly)
}

// TestAttachOnlyOutOfScope loads the identical fixture under a
// non-observer path: attachonly patrols internal/obs only, so nothing may
// be reported at all.
func TestAttachOnlyOutOfScope(t *testing.T) {
	linttest.RunNoFindings(t, "testdata/src/attachonly", "skyloft/internal/core/attachonlyfixture", lint.AttachOnly)
}

// TestAttachPointAccounting checks the declared attach surface stays in
// the raw diagnostic stream: tap registration/removal report as suppressed
// findings carrying the attachpoint reason, so -show-suppressed and the
// suppression summary expose every observer touch point.
func TestAttachPointAccounting(t *testing.T) {
	pkg := linttest.Load(t, "testdata/src/attachonly", "skyloft/internal/obs/attachpointaccfixture")
	var attaches []lint.Diagnostic
	for _, d := range lint.Run(pkg, []*lint.Analyzer{lint.AttachOnly}) {
		if d.Suppressed {
			attaches = append(attaches, d)
		}
	}
	// AddTap in attach, RemoveTap in detach.
	if len(attaches) != 2 {
		t.Fatalf("suppressed attach-point findings = %d, want 2: %v", len(attaches), attaches)
	}
	for _, d := range attaches {
		if !strings.Contains(d.Reason, "sanctioned observer mutation") {
			t.Errorf("attach-point finding carries wrong reason %q: %s", d.Reason, d)
		}
	}
}

// TestDirectiveHygiene checks that malformed //simlint:allow directives are
// themselves findings (pseudo-analyzer "simlint") and suppress nothing,
// while a well-formed directive on the same package still works.
func TestDirectiveHygiene(t *testing.T) {
	linttest.Run(t, "testdata/src/directives", "skyloft/internal/core/directivesfixture", lint.Wallclock)
}

// TestSuppressionAccounting checks that suppressed findings stay in the raw
// diagnostic stream, marked with the directive's reason — the driver's
// -show-suppressed view and the "N suppressed" summary depend on it.
func TestSuppressionAccounting(t *testing.T) {
	pkg := linttest.Load(t, "testdata/src/wallclock", "skyloft/internal/hw/wallclocksupfixture")
	diags := lint.Run(pkg, []*lint.Analyzer{lint.Wallclock})

	var suppressed []lint.Diagnostic
	for _, d := range diags {
		if d.Suppressed {
			suppressed = append(suppressed, d)
		}
	}
	// suppressedLine carries one finding; the doc directive on
	// suppressedFunc covers three.
	if len(suppressed) != 4 {
		t.Fatalf("suppressed findings = %d, want 4: %v", len(suppressed), suppressed)
	}
	for _, d := range suppressed {
		if d.Reason == "" {
			t.Errorf("suppressed finding with no recorded reason: %s", d)
		}
	}
	if got, want := len(diags)-len(suppressed), len(lint.Unsuppressed(diags)); got != want {
		t.Errorf("Unsuppressed returned %d findings, want %d", want, got)
	}
}

// TestSimlintRepoClean is the meta-test: the whole repo, loaded exactly as
// cmd/simlint loads it, must carry zero unsuppressed findings. A new
// determinism hazard anywhere in ./internal/... or ./cmd/... fails this
// test (and `make lint`) until it is fixed or justified with a reasoned
// //simlint:allow directive.
func TestSimlintRepoClean(t *testing.T) {
	modRoot, err := lint.FindModRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		t.Fatalf("building loader: %v", err)
	}
	pkgs, err := loader.Load("./internal/...", "./cmd/...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern expansion looks broken", len(pkgs))
	}
	analyzers := lint.All()
	for _, pkg := range pkgs {
		for _, d := range lint.Unsuppressed(lint.Run(pkg, analyzers)) {
			t.Errorf("%s", d)
		}
	}
}
