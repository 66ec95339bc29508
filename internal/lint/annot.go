package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Ownership annotations (DESIGN.md §14). Where //simlint:allow excuses one
// finding, these directives *declare the discipline itself* — which state
// is owned by the simulation and which mutation points observers may touch
// — so attachonly can prove observer purity statically:
//
//	//simlint:owner sim [note]
//	    On a type declaration: every instance of the type is owned sim
//	    state. On a struct field: that field is owned even though its
//	    parent struct is not.
//
//	//simlint:attachpoint <reason>
//	    On a method of an owned type: the declared attach surface for
//	    observers. attachonly lets observer-grade packages call it even
//	    though it mutates (tap registration is the sanctioned mutation);
//	    the call still appears in the diagnostic stream as suppressed.
//
//	//simlint:readonly [note]
//	    On an interface method of an owned interface: asserts the method
//	    does not mutate sim state. Interface method bodies cannot be
//	    analyzed, so owned interfaces default every method to mutating.
//
// Malformed annotations (an owner class other than "sim", a missing
// attachpoint reason, a directive floating unattached to any declaration)
// are directive-hygiene findings, reported by Run under the pseudo-analyzer
// "simlint" like malformed //simlint:allow directives.

const (
	ownerPrefix  = "//simlint:owner"
	attachPrefix = "//simlint:attachpoint"
	roPrefix     = "//simlint:readonly"
)

// hygieneNote is one malformed-annotation finding.
type hygieneNote struct {
	pos token.Pos
	msg string
}

// annots indexes one package's ownership annotations by types.Object, so
// both the package's own analysis and cross-package lookups (a dependent
// package writing an imported owned field) resolve through object identity.
type annots struct {
	ownerType  map[types.Object]bool          // owned TypeNames
	ownerField map[types.Object]bool          // owned field Vars
	attach     map[types.Object]string        // attachpoint reasons by *types.Func
	readonly   map[types.Object]bool          // interface methods asserted read-only
	decls      map[types.Object]*ast.FuncDecl // *types.Func -> its declaration
	hygiene    []hygieneNote
}

// annotsFor collects (memoized) the annotations of pkg.
func (l *Loader) annotsFor(pkg *Package) *annots {
	if a, ok := l.annots[pkg.Path]; ok {
		return a
	}
	a := collectAnnots(pkg)
	l.annots[pkg.Path] = a
	return a
}

// annotsOfObj resolves the annotation set of the package declaring obj
// (nil for stdlib objects or packages the loader never saw).
func (l *Loader) annotsOfObj(obj types.Object) *annots {
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	p := l.Loaded(obj.Pkg().Path())
	if p == nil {
		return nil
	}
	return l.annotsFor(p)
}

// parseAnn decodes one comment into (prefix kind, argument fields). Fixture
// files pair annotations with "// want" expectations on the same comment;
// everything from that marker on belongs to the harness.
func parseAnn(text string) (prefix string, fields []string, ok bool) {
	if i := strings.Index(text, "// want"); i > 0 {
		text = strings.TrimSpace(text[:i])
	}
	for _, p := range []string{ownerPrefix, attachPrefix, roPrefix} {
		rest, found := strings.CutPrefix(text, p)
		if !found {
			continue
		}
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			return "", nil, false // e.g. //simlint:ownership — not ours
		}
		return p, strings.Fields(rest), true
	}
	return "", nil, false
}

// collectAnnots walks pkg's top-level declarations, attaching directives to
// the objects they document. Directives on anything else — a nested type, a
// var block, a floating comment — are hygiene findings: the analyzers can
// only enforce annotations bound to declarations.
func collectAnnots(pkg *Package) *annots {
	a := &annots{
		ownerType:  map[types.Object]bool{},
		ownerField: map[types.Object]bool{},
		attach:     map[types.Object]string{},
		readonly:   map[types.Object]bool{},
		decls:      map[types.Object]*ast.FuncDecl{},
	}
	consumed := map[token.Pos]bool{}

	takeOne := func(group *ast.CommentGroup, want string) ([]string, token.Pos, bool) {
		if group == nil {
			return nil, token.NoPos, false
		}
		for _, c := range group.List {
			prefix, fields, ok := parseAnn(c.Text)
			if !ok || prefix != want {
				continue
			}
			consumed[c.Pos()] = true
			return fields, c.Pos(), true
		}
		return nil, token.NoPos, false
	}

	ownerOf := func(groups ...*ast.CommentGroup) (token.Pos, bool) {
		for _, g := range groups {
			if fields, pos, ok := takeOne(g, ownerPrefix); ok {
				if len(fields) == 0 || fields[0] != "sim" {
					a.hygiene = append(a.hygiene, hygieneNote{pos,
						`simlint:owner needs the owner class "sim"`})
					return pos, false
				}
				return pos, true
			}
		}
		return token.NoPos, false
	}

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := pkg.Info.Defs[d.Name]
				if obj == nil {
					continue
				}
				a.decls[obj] = d
				if fields, pos, ok := takeOne(d.Doc, attachPrefix); ok {
					if len(fields) == 0 {
						a.hygiene = append(a.hygiene, hygieneNote{pos,
							"simlint:attachpoint has no reason; explain why observers may call it"})
					} else {
						a.attach[obj] = strings.Join(fields, " ")
					}
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tobj := pkg.Info.Defs[ts.Name]
					if tobj == nil {
						continue
					}
					docs := []*ast.CommentGroup{ts.Doc, ts.Comment}
					if len(d.Specs) == 1 {
						docs = append(docs, d.Doc)
					}
					if _, ok := ownerOf(docs...); ok {
						a.ownerType[tobj] = true
					}
					switch t := ts.Type.(type) {
					case *ast.StructType:
						collectFieldOwners(pkg, a, t.Fields, ownerOf)
					case *ast.InterfaceType:
						collectIfaceMarks(pkg, a, t.Methods, takeOne)
					}
				}
			}
		}
	}

	// Any ownership directive the declaration walk did not consume is
	// floating — on a nested type, inside a function, or plain orphaned.
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				prefix, _, ok := parseAnn(c.Text)
				if !ok || consumed[c.Pos()] {
					continue
				}
				a.hygiene = append(a.hygiene, hygieneNote{c.Pos(),
					strings.TrimPrefix(prefix, "//") + " directive is not attached to a top-level type, field or function declaration"})
			}
		}
	}
	return a
}

func collectFieldOwners(pkg *Package, a *annots, fields *ast.FieldList,
	ownerOf func(...*ast.CommentGroup) (token.Pos, bool)) {
	for _, field := range fields.List {
		pos, ok := ownerOf(field.Doc, field.Comment)
		if !ok {
			continue
		}
		if len(field.Names) == 0 {
			a.hygiene = append(a.hygiene, hygieneNote{pos,
				"simlint:owner on an embedded field is unsupported; annotate the embedded type instead"})
			continue
		}
		for _, name := range field.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				a.ownerField[obj] = true
			}
		}
	}
}

func collectIfaceMarks(pkg *Package, a *annots, methods *ast.FieldList,
	takeOne func(*ast.CommentGroup, string) ([]string, token.Pos, bool)) {
	for _, m := range methods.List {
		if len(m.Names) == 0 {
			continue // embedded interface
		}
		obj := pkg.Info.Defs[m.Names[0]]
		if obj == nil {
			continue
		}
		for _, g := range []*ast.CommentGroup{m.Doc, m.Comment} {
			if _, _, ok := takeOne(g, roPrefix); ok {
				a.readonly[obj] = true
			}
			if fields, pos, ok := takeOne(g, attachPrefix); ok {
				if len(fields) == 0 {
					a.hygiene = append(a.hygiene, hygieneNote{pos,
						"simlint:attachpoint has no reason; explain why observers may call it"})
				} else {
					a.attach[obj] = strings.Join(fields, " ")
				}
			}
		}
	}
}

// ownedAt reports whether the selection writes or reaches owned state: the
// selected field itself carries an owner annotation, or the receiver's
// named type is owner-annotated as a whole. Lookups cross package
// boundaries through the loader's annotation cache.
func (l *Loader) ownedAt(sel *types.Selection) bool {
	if v, ok := sel.Obj().(*types.Var); ok {
		if ann := l.annotsOfObj(v); ann != nil && ann.ownerField[v] {
			return true
		}
	}
	if tn := namedTypeName(sel.Recv()); tn != nil {
		if ann := l.annotsOfObj(tn); ann != nil && ann.ownerType[tn] {
			return true
		}
	}
	return false
}

// attachReasonOf resolves fn's //simlint:attachpoint reason ("" if none),
// looking across package boundaries through the loader.
func (l *Loader) attachReasonOf(fn *types.Func) string {
	ann := l.annotsOfObj(fn)
	if ann == nil {
		return ""
	}
	return ann.attach[fn]
}

// readonlyIface reports whether fn is an interface method asserted
// //simlint:readonly in its declaring package.
func (l *Loader) readonlyIface(fn *types.Func) bool {
	ann := l.annotsOfObj(fn)
	return ann != nil && ann.readonly[fn]
}

// namedTypeName unwraps pointers and aliases down to the defined type's
// TypeName, or nil for anonymous types.
func namedTypeName(t types.Type) *types.TypeName {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u.Obj()
		default:
			return nil
		}
	}
}

// mutVerdict memoizes whether a method mutates its receiver.
type mutVerdict uint8

const (
	mutUnknown mutVerdict = iota
	mutInProgress
	mutNo
	mutYes
)

// mutates reports whether calling fn can mutate its receiver's state: a
// pointer-receiver method whose body (or a same-receiver method it calls,
// transitively) writes through the receiver. Methods whose source the
// loader has not seen are conservatively mutating. Value receivers are
// non-mutating: writes land on a copy.
func (l *Loader) mutates(fn *types.Func) bool {
	switch l.mutMemo[fn] {
	case mutYes:
		return true
	case mutNo, mutInProgress: // cycle: resolved by a direct write elsewhere
		return false
	}
	l.mutMemo[fn] = mutInProgress
	verdict := l.computeMutates(fn)
	if verdict {
		l.mutMemo[fn] = mutYes
	} else {
		l.mutMemo[fn] = mutNo
	}
	return verdict
}

func (l *Loader) computeMutates(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if _, isPtr := sig.Recv().Type().(*types.Pointer); !isPtr {
		return false
	}
	ann := l.annotsOfObj(fn)
	if ann == nil {
		return true // no source: assume the worst
	}
	decl, ok := ann.decls[fn]
	if !ok || decl.Body == nil || decl.Recv == nil || len(decl.Recv.List) == 0 ||
		len(decl.Recv.List[0].Names) == 0 {
		return true
	}
	pkg := l.Loaded(fn.Pkg().Path())
	if pkg == nil {
		return true
	}
	recvObj := pkg.Info.Defs[decl.Recv.List[0].Names[0]]
	if recvObj == nil {
		return false // unnamed receiver cannot be written
	}
	mutated := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if mutated {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if rootsAt(pkg, lhs, recvObj) {
					mutated = true
				}
			}
		case *ast.IncDecStmt:
			if rootsAt(pkg, st.X, recvObj) {
				mutated = true
			}
		case *ast.CallExpr:
			sel, ok := unparen(st.Fun).(*ast.SelectorExpr)
			if !ok || !rootsAt(pkg, sel.X, recvObj) {
				return true
			}
			if callee, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && l.mutates(callee) {
				mutated = true
			}
		}
		return !mutated
	})
	return mutated
}

// rootsAt reports whether expr's base identifier resolves to obj.
func rootsAt(pkg *Package, expr ast.Expr, obj types.Object) bool {
	base := baseIdent(expr)
	if base == nil {
		return false
	}
	used := pkg.Info.Uses[base]
	if used == nil {
		used = pkg.Info.Defs[base]
	}
	return used == obj
}
