package lint

import "go/ast"

// GoSpawn flags bare `go` statements in deterministic packages. The
// simulator's concurrency is cooperative: simulated threads are proc.P
// runtime coroutines that switch directly into one another (exactly one
// runs at a time), so host-scheduler interleaving can never order two sim
// operations. A bare goroutine reintroduces exactly that race —
// deterministic-ULI work (PAPERS.md) shows delivery *ordering* is where
// replay quietly breaks. internal/proc spawns nothing itself (iter.Pull
// does), so it is patrolled like any other package; the sanctioned spawn
// sites are the bench.Sweep worker pool (whole-simulation parallelism
// with input-order results), the engine lane workers and the live bus
// below; real-runtime measurement code carries a //simlint:allow.
var GoSpawn = &Analyzer{
	Name:    "gospawn",
	Doc:     "forbid bare go statements in deterministic packages; spawn through the proc.P pool or bench.Sweep",
	InScope: moduleScope,
	Run:     runGoSpawn,
}

// spawnSanctions maps package path -> spawned callee name -> the reason the
// spawn is sanctioned. Unlike the file allowlist this is per-call-site: only
// the named callees are excused, and any other goroutine in the same package
// (even the same file) is still a finding. The live telemetry bus earns its
// entries because both goroutines are strictly downstream of the simulation:
// the publisher drains a channel of already-serialised NDJSON lines, and the
// HTTP server reads only the mutex-guarded snapshot history ring — neither
// can write sim state or influence event order.
var spawnSanctions = map[string]map[string]string{
	"skyloft/internal/obs/live": {
		"writeLoop": "live-bus publisher drains pre-serialised snapshot lines; never touches sim state",
		"serve":     "live HTTP server reads only the mutex-guarded snapshot history ring",
	},
}

// spawnedCallee resolves the name of the function a go statement spawns:
// `go b.writeLoop()` -> "writeLoop", `go helper()` -> "helper". Function
// literals and computed call targets resolve to "" (never sanctioned).
func spawnedCallee(g *ast.GoStmt) string {
	switch fn := g.Call.Fun.(type) {
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.Ident:
		return fn.Name
	}
	return ""
}

func runGoSpawn(pass *Pass) {
	sanctions := spawnSanctions[pass.Path]
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			msg := "bare goroutine in a deterministic package; host interleaving is nondeterministic — use the proc.P coroutine pool or bench.Sweep"
			if reason, ok := sanctions[spawnedCallee(g)]; ok {
				pass.ReportSuppressedf(g.Pos(), reason, "%s", msg)
				return true
			}
			pass.Reportf(g.Pos(), "%s", msg)
			return true
		})
	}
}
