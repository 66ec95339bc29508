package lint

import "go/ast"

// SelectOrder flags multi-case selects in deterministic packages. When
// more than one case is ready, the Go runtime chooses uniformly at random
// (plus a fastrand-seeded poll order), so a select over simulation
// channels injects nondeterminism even when every communicating goroutine
// is itself deterministic. proc.P hands control over by coroutine switch,
// with no channels at all; anything that needs to wait on two sources
// must impose an explicit priority (sequential non-blocking receives, or a
// merged request stream) rather than racing cases.
var SelectOrder = &Analyzer{
	Name:    "selectorder",
	Doc:     "forbid multi-case selects in deterministic packages; a ready-case race is resolved pseudo-randomly by the runtime",
	InScope: moduleScope,
	Run:     runSelectOrder,
}

func runSelectOrder(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			comms := 0
			for _, clause := range sel.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				pass.Reportf(sel.Pos(),
					"select with %d channel cases is resolved pseudo-randomly when several are ready; impose an explicit ordering instead", comms)
			}
			return true
		})
	}
}
