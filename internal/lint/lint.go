// Package lint is the project's static analyzer: a standard-library-only
// framework (go/parser + go/ast + go/types, the same toolkit as
// cmd/mwvc-docs) that loads the whole module and enforces the repository's
// load-bearing invariants at the source level — invariants the runtime
// tests only sample. The rule suite:
//
//   - maporder: no map iteration in deterministic packages unless the keys
//     are collected and sorted first (map range order would break
//     seed-reproducibility).
//   - ctxloop: in solver/algorithm packages, every for loop without a
//     statically bounded trip count must reach a ctx.Err()/ctx.Done() poll
//     or call something that does (the PR 1 cancellation contract).
//   - floateq: no ==/!=/switch on floating-point operands unless one side
//     is a compile-time constant — weights and ratios are compared through
//     math.Float64bits or an explicit tolerance.
//   - hotalloc: functions annotated //mwvc:hotpath may not contain map
//     literals or makes, capturing closures, fmt calls, or appends to
//     locally-declared slices (the source-level form of the AllocsPerRun
//     pins).
//   - faultpoint: every fault.Hit argument must be a registered Point
//     constant from internal/fault — no drifting injection-point names.
//
// Diagnostics print as `file:line: [rule] message`. A finding is suppressed
// by a `//lint:allow <rule> <reason>` comment on the same line or the line
// above; the reason is mandatory, and an allow without one is itself a
// finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding of one rule.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Rule names the rule that fired.
	Rule string
	// Message states what is wrong and how to fix it.
	Message string
}

// String formats the diagnostic as `file:line: [rule] message`.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Rule is one invariant check. Check runs once per in-scope package and
// reports findings through the Pass.
type Rule struct {
	// Name identifies the rule in diagnostics and //lint:allow comments.
	Name string
	// Doc is the one-line invariant statement shown by mwvc-lint -rules.
	Doc string
	// InScope reports whether the rule applies to the package with the
	// given import path.
	InScope func(pkgPath string) bool
	// Check analyzes one package.
	Check func(p *Pass)
}

// Pass carries everything a Rule's Check needs for one package: the
// type-checked package, the shared FileSet, cross-package facts, and the
// report sink.
type Pass struct {
	// Pkg is the package under analysis.
	Pkg *Package
	// Fset resolves token.Pos values for Pkg and every other loaded
	// package.
	Fset *token.FileSet
	// Facts holds the module-wide analyses shared by the rules.
	Facts *Facts

	rule   string
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// deterministicPkgs are the packages whose solves must be bit-for-bit
// reproducible for a given seed: map iteration order must never influence
// their output (rule maporder). serve is included because its cache
// eviction and metrics rendering sit on paths whose outputs (which tuples
// stay cached, the /metrics text) must not wander between runs.
var deterministicPkgs = map[string]bool{
	"core": true, "mpc": true, "cclique": true,
	"matching": true, "ggk": true, "centralized": true, "exact": true,
	"reduce": true, "improve": true, "solver": true, "graph": true,
	"serve": true, "pdfast": true, "compress": true,
}

// algorithmPkgs are the packages bound by the cancellation contract: every
// unbounded loop must poll the context (rule ctxloop).
var algorithmPkgs = map[string]bool{
	"core": true, "cclique": true, "matching": true,
	"ggk": true, "centralized": true, "exact": true, "reduce": true,
	"improve": true, "solver": true, "pdfast": true, "compress": true,
}

// floatPkgs are the packages where float equality is load-bearing: the
// deterministic set plus the certificate checker.
var floatPkgs = func() map[string]bool {
	m := map[string]bool{"verify": true}
	for k := range deterministicPkgs {
		m[k] = true
	}
	return m
}()

// lastElem returns the final path element of an import path.
func lastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// scopeSet builds an InScope predicate matching packages whose final path
// element is in set.
func scopeSet(set map[string]bool) func(string) bool {
	return func(pkgPath string) bool { return set[lastElem(pkgPath)] }
}

// scopeAll puts every package except internal/fault itself in scope (the
// registry package legitimately manipulates raw point strings).
func scopeAll(pkgPath string) bool {
	return lastElem(pkgPath) != "fault"
}

// Rules returns the full rule suite in reporting order.
func Rules() []*Rule {
	return []*Rule{
		{
			Name:    "maporder",
			Doc:     "deterministic packages must not iterate maps in program-visible order; collect keys and sort first",
			InScope: scopeSet(deterministicPkgs),
			Check:   checkMapOrder,
		},
		{
			Name:    "ctxloop",
			Doc:     "unbounded loops in solver/algorithm packages must poll ctx.Err()/ctx.Done() or call something that does",
			InScope: scopeSet(algorithmPkgs),
			Check:   checkCtxLoop,
		},
		{
			Name:    "floateq",
			Doc:     "no ==/!=/switch on non-constant floating-point operands; compare via math.Float64bits or an explicit tolerance",
			InScope: scopeSet(floatPkgs),
			Check:   checkFloatEq,
		},
		{
			Name:    "hotalloc",
			Doc:     "//mwvc:hotpath functions may not allocate: no map literals/makes, capturing closures, fmt calls, or appends to local slices",
			InScope: func(string) bool { return true },
			Check:   checkHotAlloc,
		},
		{
			Name:    "faultpoint",
			Doc:     "fault.Hit arguments must be registered Point constants from internal/fault",
			InScope: scopeAll,
			Check:   checkFaultPoint,
		},
	}
}

// Run loads the whole module through l, computes the cross-package Facts,
// applies every rule to its in-scope packages, and returns the unsuppressed
// findings sorted by position. Malformed or reason-less //lint:allow
// comments are reported under the pseudo-rule "allow".
func Run(l *Loader, rules []*Rule) ([]Diagnostic, error) {
	pkgs, err := l.Module()
	if err != nil {
		return nil, err
	}
	facts := ComputeFacts(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, runPackage(l, pkg, rules, facts, false)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunPackage applies the rule suite to one already-loaded package. With
// force set, scope predicates are ignored — the golden-file harness uses
// this to exercise rules on testdata packages whose import paths are
// outside every scope.
func RunPackage(l *Loader, pkg *Package, rules []*Rule, facts *Facts, force bool) []Diagnostic {
	diags := runPackage(l, pkg, rules, facts, force)
	sortDiagnostics(diags)
	return diags
}

func runPackage(l *Loader, pkg *Package, rules []*Rule, facts *Facts, force bool) []Diagnostic {
	sup := newSuppressions(l.Fset(), pkg.Files)
	var diags []Diagnostic
	diags = append(diags, sup.malformed...)
	for _, r := range rules {
		if !force && !r.InScope(pkg.Path) {
			continue
		}
		pass := &Pass{Pkg: pkg, Fset: l.Fset(), Facts: facts, rule: r.Name}
		pass.report = func(d Diagnostic) {
			if !sup.allows(r.Name, d.Pos) {
				diags = append(diags, d)
			}
		}
		r.Check(pass)
	}
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// allowPrefix introduces a suppression comment: //lint:allow <rule> <reason>.
const allowPrefix = "//lint:allow "

// suppressions indexes the //lint:allow comments of one package by file and
// line. An allow on line N suppresses matching findings on lines N and N+1,
// so it can sit at the end of the offending line or on its own line above.
type suppressions struct {
	byLine    map[string]map[int][]string // file -> line -> allowed rules
	malformed []Diagnostic
}

func newSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					if strings.HasPrefix(c.Text, "//lint:") && !strings.HasPrefix(c.Text, "//lint:ignore") {
						pos := fset.Position(c.Pos())
						s.malformed = append(s.malformed, Diagnostic{Pos: pos, Rule: "allow",
							Message: fmt.Sprintf("malformed lint directive %q; use //lint:allow <rule> <reason>", c.Text)})
					}
					continue
				}
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{Pos: pos, Rule: "allow",
						Message: "//lint:allow needs a rule name and a reason (//lint:allow <rule> <why this is safe>)"})
					continue
				}
				rule := fields[0]
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					s.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], rule)
			}
		}
	}
	return s
}

// allows reports whether a finding of rule at pos is suppressed.
func (s *suppressions) allows(rule string, pos token.Position) bool {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, r := range lines[l] {
			if r == rule {
				return true
			}
		}
	}
	return false
}

// RelDiagnostics rewrites every diagnostic's file name relative to root,
// for stable output independent of the invocation directory.
func RelDiagnostics(root string, diags []Diagnostic) {
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}
