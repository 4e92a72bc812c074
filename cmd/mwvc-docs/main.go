// Command mwvc-docs is the repository's documentation gate, run by
// `make docs-check` and the CI docs job. It enforces two invariants that
// plain `go vet` does not cover:
//
//  1. Markdown link integrity: every relative link in the repository's
//     *.md files must point at an existing file (anchors and external
//     URLs are not checked).
//  2. Doc-comment coverage: the packages in docPackages (the root facade
//     package mwvc, internal/graph, internal/centralized, internal/mpc,
//     internal/reduce, internal/improve, internal/pdfast, internal/compress,
//     internal/solver, internal/serve, internal/fault, internal/lint) must
//     have a package comment and a doc comment on every exported top-level
//     identifier, so their `go doc` output stays useful.
//
// It prints one line per finding and exits nonzero if there are any.
//
//	mwvc-docs [-root <repo root>]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// docPackages are the packages whose go doc output the docs job guards;
// "." is the public facade.
var docPackages = []string{
	".",
	"internal/graph",
	"internal/centralized",
	"internal/mpc",
	"internal/reduce",
	"internal/improve",
	"internal/pdfast",
	"internal/compress",
	"internal/solver",
	"internal/serve",
	"internal/fault",
	"internal/lint",
}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	var findings []string
	report := func(format string, args ...any) {
		findings = append(findings, fmt.Sprintf(format, args...))
	}

	if err := checkMarkdownLinks(*root, report); err != nil {
		fmt.Fprintln(os.Stderr, "mwvc-docs:", err)
		os.Exit(1)
	}
	for _, pkg := range docPackages {
		if err := checkDocComments(filepath.Join(*root, pkg), pkg, report); err != nil {
			fmt.Fprintln(os.Stderr, "mwvc-docs:", err)
			os.Exit(1)
		}
	}

	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Println(f)
		}
		fmt.Fprintf(os.Stderr, "mwvc-docs: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("mwvc-docs: ok")
}

// mdLink matches inline markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkMarkdownLinks verifies that every relative link target in every
// tracked *.md file exists on disk.
func checkMarkdownLinks(root string, report func(string, ...any)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// Skip hidden trees (.git) and vendored directories.
			if path != root && (strings.HasPrefix(name, ".") || name == "vendor" || name == "node_modules") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for lineNo, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
					continue
				}
				if i := strings.IndexByte(target, '#'); i >= 0 {
					target = target[:i]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					rel, _ := filepath.Rel(root, path)
					report("%s:%d: broken link %q", rel, lineNo+1, m[1])
				}
			}
		}
		return nil
	})
}

// checkDocComments parses one package directory and reports the package
// itself and any exported top-level identifier lacking a doc comment.
func checkDocComments(dir, label string, report func(string, ...any)) error {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", dir, err)
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for fname, file := range pkg.Files {
			if file.Doc != nil {
				hasPkgDoc = true
			}
			pos := func(n ast.Node) string {
				p := fset.Position(n.Pos())
				return fmt.Sprintf("%s:%d", filepath.ToSlash(filepath.Join(label, filepath.Base(fname))), p.Line)
			}
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !receiverExported(d) {
						continue
					}
					if d.Doc == nil {
						report("%s: exported %s %s lacks a doc comment", pos(d), declKind(d), d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
								report("%s: exported type %s lacks a doc comment", pos(s), s.Name.Name)
							}
						case *ast.ValueSpec:
							exported := ""
							for _, n := range s.Names {
								if n.IsExported() {
									exported = n.Name
									break
								}
							}
							// A doc comment on the grouped decl covers its specs.
							if exported != "" && d.Doc == nil && s.Doc == nil {
								report("%s: exported %s %s lacks a doc comment", pos(s), kindOf(d.Tok), exported)
							}
						}
					}
				}
			}
		}
		if !hasPkgDoc {
			report("%s: package %s lacks a package comment", label, pkg.Name)
		}
	}
	return nil
}

// receiverExported reports whether a method's receiver type is exported
// (functions without receivers count as exported contexts).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// declKind names a FuncDecl for findings.
func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// kindOf names a GenDecl token for findings.
func kindOf(tok token.Token) string {
	switch tok {
	case token.CONST:
		return "const"
	case token.VAR:
		return "var"
	}
	return tok.String()
}
