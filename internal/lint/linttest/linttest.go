// Package linttest is the golden-fixture harness for simlint analyzers, in
// the style of golang.org/x/tools' analysistest but self-contained: a
// fixture package under testdata declares its expected findings with
//
//	offendingCode() // want `regexp matching the message`
//
// comments, and Run fails the test on any mismatch in either direction —
// an expectation no analyzer satisfied, or a finding no comment expected.
// Fixtures are loaded under a caller-chosen synthetic import path, so the
// same fixture can be checked in scope ("skyloft/internal/core/...") and
// out of scope (a path outside the module) without duplicating files.
package linttest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"skyloft/internal/lint"
)

// Run loads the fixture package in dir under asPkgPath, applies the
// analyzers, and checks the unsuppressed findings against the fixture's
// "// want" comments.
func Run(t *testing.T, dir, asPkgPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkg := load(t, dir, asPkgPath)
	diags := lint.Unsuppressed(lint.Run(pkg, analyzers))
	wants := collectWants(t, pkg)

	for _, d := range diags {
		if !wants.take(d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("unexpected finding at %s", d)
		}
	}
	for _, miss := range wants.unmatched() {
		t.Errorf("expected finding not reported: %s", miss)
	}
}

// RunNoFindings asserts the analyzers produce nothing at all for the
// fixture under asPkgPath, ignoring its want comments — the out-of-scope
// half of a scope test.
func RunNoFindings(t *testing.T, dir, asPkgPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkg := load(t, dir, asPkgPath)
	for _, d := range lint.Run(pkg, analyzers) {
		t.Errorf("finding out of scope (%s): %s", asPkgPath, d)
	}
}

// Load parses and type-checks a fixture for tests that inspect the raw
// diagnostic stream themselves (suppression accounting, directive
// hygiene).
func Load(t *testing.T, dir, asPkgPath string) *lint.Package {
	t.Helper()
	return load(t, dir, asPkgPath)
}

func load(t *testing.T, dir, asPkgPath string) *lint.Package {
	t.Helper()
	modRoot, err := lint.FindModRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		t.Fatalf("building loader: %v", err)
	}
	pkg, err := loader.LoadDir(dir, asPkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return pkg
}

// expectation is one "// want" regexp, pinned to a file and line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func (e *expectation) String() string {
	return fmt.Sprintf("%s:%d: %s", e.file, e.line, e.re)
}

type wantSet struct {
	expects []*expectation
}

func (w *wantSet) take(file string, line int, message string) bool {
	for _, e := range w.expects {
		if !e.matched && e.file == file && e.line == line && e.re.MatchString(message) {
			e.matched = true
			return true
		}
	}
	return false
}

func (w *wantSet) unmatched() []*expectation {
	var out []*expectation
	for _, e := range w.expects {
		if !e.matched {
			out = append(out, e)
		}
	}
	return out
}

var wantMarker = "// want"

func collectWants(t *testing.T, pkg *lint.Package) *wantSet {
	t.Helper()
	ws := &wantSet{}
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				idx := strings.Index(c.Text, wantMarker)
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range parseWantPatterns(t, pos.String(), c.Text[idx+len(wantMarker):]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					ws.expects = append(ws.expects, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return ws
}

// parseWantPatterns decodes the sequence of Go-quoted strings ("..." or
// `...`) following a want marker.
func parseWantPatterns(t *testing.T, at, rest string) []string {
	t.Helper()
	var pats []string
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		quoted, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Fatalf("%s: malformed want expectation near %q: %v", at, rest, err)
		}
		pat, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: cannot unquote %q: %v", at, quoted, err)
		}
		pats = append(pats, pat)
		rest = rest[len(quoted):]
	}
	if len(pats) == 0 {
		t.Fatalf("%s: want marker with no patterns", at)
	}
	return pats
}
