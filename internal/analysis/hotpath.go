package analysis

import (
	"go/ast"
	"go/types"
)

// Hotpath enforces the //dapper:hot contract: the controller event sink
// and the core probe sit on the per-ACT / per-retire paths whose
// detached cost the bench gate holds under 2%, so an annotated
// function must stay allocation-free and monomorphic. Banned inside a
// hot function: make/new, slice and map composite literals (and &T{}),
// append, closures, defer/go statements, any fmt call, and implicit
// boxing of a concrete value into an interface parameter, result or
// assignment target.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocations, fmt, closures and interface boxing in functions annotated //dapper:hot",
}

func init() {
	Hotpath.Run = runHotpath
}

func runHotpath(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if len(FuncDoc(fd, AnnHot)) == 0 {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine in //dapper:hot %s: spawning allocates and descheduling wrecks the hot path", name)
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in //dapper:hot %s: defer records allocate and run at return", name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in //dapper:hot %s: capturing closures allocate", name)
			return false
		case *ast.CompositeLit:
			t := pass.Info.Types[n].Type
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "%s literal in //dapper:hot %s allocates; preallocate in the constructor and index into it", typeKind(t), name)
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal in //dapper:hot %s allocates; preallocate in the constructor", name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, name, n)
		}
		return true
	})
}

func typeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

func checkHotCall(pass *Pass, fname string, call *ast.CallExpr) {
	// Builtins make/new/append.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				pass.Reportf(call.Pos(), "%s in //dapper:hot %s allocates; preallocate in the constructor", b.Name(), fname)
				return
			}
		}
	}
	// Any fmt call.
	if pkg, fn, ok := pkgFunc(pass.Info, call); ok && pkg == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s in //dapper:hot %s allocates and boxes every operand; hot paths report through preallocated counters", fn, fname)
		return
	}
	// Interface boxing at call arguments: a concrete value passed where
	// the callee takes an interface forces an allocation (unless the
	// value is already an interface or untyped nil).
	sig, ok := pass.Info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return // conversion or builtin
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.Info.Types[arg]
		if at.Type == nil || at.IsNil() {
			continue
		}
		if _, argIface := at.Type.Underlying().(*types.Interface); argIface {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxes concrete %s into interface %s in //dapper:hot %s; use a concrete parameter or preboxed value", at.Type, pt, fname)
	}
}
