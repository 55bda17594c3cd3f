package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// WireCode pins the wire-protocol failure contract: every Code*
// constant in internal/cluster is explicitly classified as retryable or
// not, the router's retry/breaker logic handles every code, and no
// package re-spells a code as a string literal.
var WireCode = &Analyzer{
	Name: "wirecode",
	Doc: `every wire status code is classified, handled, and spelled once

The shard protocol's Code* constants (internal/cluster/wire.go) drive
the router's retry and breaker decisions, so an unclassified or
hand-spelled code degrades silently into "not retryable" (DESIGN.md
§13). This analyzer requires: every Code* constant to appear in a
case clause of cluster.RetryableCode, so adding a code forces an
explicit retryable-or-not decision; the router's admission and
routing path — cmd/swrouter together with the serving front end it
runs on, internal/serve — to reference every code, so its
retry/breaker handling cannot lag the protocol; and no string literal
equal to a code value anywhere outside wire.go — the constant is the
single spelling.`,
	Run:    runWireCode,
	Finish: finishWireCode,
}

// clusterPkg is the path suffix of the wire-protocol package.
const clusterPkg = "internal/cluster"

func runWireCode(pass *Pass) error {
	if pkgPathIs(pass.Path, clusterPkg) {
		runWireCodeCluster(pass)
		return nil
	}
	// Everywhere else the invariant only binds packages that speak the
	// protocol; anything importing internal/cluster qualifies.
	if !importsCluster(pass.Pkg) {
		return nil
	}
	codes := codeFacts(pass.Facts())
	checkCodeLiterals(pass, codes, "")
	if pkgPathIs(pass.Path, "cmd/swrouter") {
		// Coverage is judged only when the router itself is loaded.
		pass.ExportFact(pass.Files[0].Package, "router", pass.Path)
	}
	if pkgPathIs(pass.Path, "cmd/swrouter") || pkgPathIs(pass.Path, "internal/serve") {
		exportCodeUses(pass)
	}
	return nil
}

// runWireCodeCluster registers the Code* constants and checks each is
// classified in RetryableCode.
func runWireCodeCluster(pass *Pass) {
	type codeConst struct {
		obj  *types.Const
		decl *ast.Ident
	}
	var consts []codeConst
	for _, f := range pass.Files {
		if filepath.Base(pass.Fset.Position(f.Pos()).Filename) != "wire.go" {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !isCodeName(name.Name) {
						continue
					}
					obj, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok || obj.Val().Kind() != constant.String {
						continue
					}
					consts = append(consts, codeConst{obj, name})
				}
			}
		}
	}

	// Which codes appear in a case clause of RetryableCode?
	classified := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "RetryableCode" || fd.Recv != nil || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, e := range cc.List {
					if id, ok := ast.Unparen(e).(*ast.Ident); ok {
						if obj := pass.TypesInfo.Uses[id]; obj != nil {
							classified[obj] = true
						}
					}
				}
				return true
			})
		}
	}

	for _, c := range consts {
		pass.ExportFact(c.decl.Pos(), "code", c.obj.Name()+"="+constant.StringVal(c.obj.Val()))
		if !classified[c.obj] {
			pass.Reportf(c.decl.Pos(), "wire code %s is not classified in RetryableCode: add it to an explicit case so retryability is a decision, not a default", c.obj.Name())
		}
	}
	codes := codeFacts(pass.Facts())
	checkCodeLiterals(pass, codes, "wire.go")
}

// codeFacts decodes the "code" facts into value -> constant name.
func codeFacts(facts []Fact) map[string]string {
	codes := map[string]string{}
	for _, fact := range facts {
		if fact.Key != "code" {
			continue
		}
		if name, val, ok := strings.Cut(fact.Value, "="); ok {
			codes[val] = name
		}
	}
	return codes
}

// checkCodeLiterals flags string literals spelling a wire code, except
// in exemptFile (wire.go declares them) and in generated const decls.
func checkCodeLiterals(pass *Pass, codes map[string]string, exemptFile string) {
	if len(codes) == 0 {
		return
	}
	for _, f := range pass.Files {
		if exemptFile != "" && filepath.Base(pass.Fset.Position(f.Pos()).Filename) == exemptFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			bl, ok := n.(*ast.BasicLit)
			if !ok || bl.Kind != token.STRING {
				return true
			}
			s, ok := stringLit(bl)
			if !ok {
				return true
			}
			if name, isCode := codes[s]; isCode {
				pass.Reportf(bl.Pos(), "string literal %q duplicates wire code constant cluster.%s: use the constant so the protocol has one spelling", s, name)
			}
			return true
		})
	}
}

// exportCodeUses records every wire code the package references.
func exportCodeUses(pass *Pass) {
	for id, obj := range pass.TypesInfo.Uses {
		c, ok := obj.(*types.Const)
		if ok && c.Pkg() != nil && pkgPathIs(c.Pkg().Path(), clusterPkg) && isCodeName(c.Name()) {
			pass.ExportFact(id.Pos(), "use", c.Name())
		}
	}
}

// finishWireCode requires the router's packages, together, to reference
// every wire code: a code its retry/breaker path never mentions is a
// code it mishandles by omission. The finding sits at the constant's
// declaration, since an absence has no position of its own.
func finishWireCode(f *Finisher) error {
	used := map[string]bool{}
	router := false
	for _, fact := range f.Facts {
		switch fact.Key {
		case "use":
			used[fact.Value] = true
		case "router":
			router = true
		}
	}
	if !router {
		return nil
	}
	for _, fact := range f.Facts {
		if name, _, _ := strings.Cut(fact.Value, "="); fact.Key == "code" && !used[name] {
			f.Reportf(fact.Pos, "wire code %s is never referenced by cmd/swrouter or internal/serve: its retry/breaker handling lags the protocol", name)
		}
	}
	return nil
}

// isCodeName matches the Code* constant naming convention.
func isCodeName(name string) bool {
	return strings.HasPrefix(name, "Code") && len(name) > 4 &&
		name[4] >= 'A' && name[4] <= 'Z'
}

// importsCluster reports whether pkg directly imports the wire-protocol
// package.
func importsCluster(pkg *types.Package) bool {
	for _, imp := range pkg.Imports() {
		if pkgPathIs(imp.Path(), clusterPkg) {
			return true
		}
	}
	return false
}
