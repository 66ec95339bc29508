package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// DurationLit flags raw integer nanosecond literals compared against or
// assigned to simtime values. `timeout > 50000` silently means "50 µs" only
// because simtime.Time counts nanoseconds; the unit lives in the reader's
// head, and a misread factor of 1000 is invisible to every test that does
// not hit the threshold. Typed constants (`50 * simtime.Microsecond`) carry
// the unit in the code. 0 and ±1 stay legal: zero values and ±1 ns
// sentinels/epsilons are idiomatic and unit-free. simtime itself — where
// the typed constants are defined in terms of raw nanoseconds — is out of
// scope.
var DurationLit = &Analyzer{
	Name:    "durationlit",
	Doc:     "forbid raw integer nanosecond literals against simtime values; use typed constants like 50*simtime.Microsecond",
	InScope: notSimtimeScope,
	Run:     runDurationLit,
}

func runDurationLit(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.BinaryExpr:
				switch st.Op {
				case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
					checkDurationOperand(pass, st.X, st.Y, "compared against")
					checkDurationOperand(pass, st.Y, st.X, "compared against")
				}
			case *ast.AssignStmt:
				// Only assignments where the literal lands as nanoseconds:
				// `d = 5000`, `d += 100`. Scaling (`d *= 2`, `d /= 4`) is
				// unit-free and stays legal.
				switch st.Tok {
				case token.ASSIGN, token.ADD_ASSIGN, token.SUB_ASSIGN:
				default:
					return true
				}
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, rhs := range st.Rhs {
					checkDurationOperand(pass, rhs, st.Lhs[i], "assigned to")
				}
			case *ast.ValueSpec:
				for i, v := range st.Values {
					if i < len(st.Names) {
						checkDurationOperand(pass, v, st.Names[i], "assigned to")
					}
				}
			case *ast.CallExpr:
				// Explicit conversions simtime.Time(12345) / Duration(...)
				// are the same smell with a cast for camouflage.
				if len(st.Args) != 1 {
					return true
				}
				tv, ok := pass.Info.Types[st.Fun]
				if !ok || !tv.IsType() || !isSimtimeValue(tv.Type) {
					return true
				}
				if lit, val, ok := rawIntLiteral(pass, st.Args[0]); ok {
					pass.Reportf(lit.Pos(),
						"raw nanosecond literal %s converted to %s; use typed constants (e.g. 50*simtime.Microsecond)", val, tv.Type)
				}
			}
			return true
		})
	}
}

// checkDurationOperand reports lit when it is a bare integer literal being
// used against other, a simtime-typed expression.
func checkDurationOperand(pass *Pass, lit, other ast.Expr, how string) {
	t := pass.Info.TypeOf(other)
	if t == nil || !isSimtimeValue(t) {
		return
	}
	if l, val, ok := rawIntLiteral(pass, lit); ok {
		pass.Reportf(l.Pos(),
			"raw nanosecond literal %s %s %s; use typed constants (e.g. 50*simtime.Microsecond)", val, how, t)
	}
}

// rawIntLiteral reports whether e is a bare integer literal (possibly
// negated or parenthesized) whose magnitude exceeds 1. Composite constant
// expressions like 25*simtime.Microsecond never match: their operands are
// BinaryExprs, not bare literals, by the time they reach a comparison or
// assignment slot.
func rawIntLiteral(pass *Pass, e ast.Expr) (*ast.BasicLit, string, bool) {
	expr := unparen(e)
	if u, ok := expr.(*ast.UnaryExpr); ok && (u.Op == token.SUB || u.Op == token.ADD) {
		expr = unparen(u.X)
	}
	lit, ok := expr.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return nil, "", false
	}
	tv, ok := pass.Info.Types[unparen(e)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return nil, "", false
	}
	if v, exact := constant.Int64Val(tv.Value); exact && v >= -1 && v <= 1 {
		return nil, "", false
	}
	return lit, tv.Value.ExactString(), true
}

// isSimtimeValue reports whether t (or its pointer elem) is the named type
// skyloft/internal/simtime.Time — Duration is an alias of Time, so one
// check covers both spellings (type checkers that materialize aliases
// report Duration as a *types.Alias, so it is unwrapped first).
func isSimtimeValue(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "skyloft/internal/simtime" && obj.Name() == "Time"
}
