package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// HotPathDirective marks a function as allocation-sensitive: the
// hotpathalloc analyzer checks the function and everything it calls within
// the same package for alloc-prone constructs. Put it on its own line in
// the function's doc comment:
//
//	//memca:hotpath
//	func (t *Tracer) Observe(...) { ... }
const HotPathDirective = "//memca:hotpath"

// AnalyzerHotPathAlloc flags allocation-prone constructs inside functions
// marked //memca:hotpath and everything they call within the package, so a
// reviewer sees the allocation before the benchmark does. It is the static
// companion of the AllocsPerRun tests and the benchjson gate: those catch a
// regression only on the paths a benchmark exercises; this flags the
// construct at the source line that introduces it.
//
// Flagged constructs:
//
//   - fmt.* calls — formatting allocates (and reflects) per call;
//   - string concatenation with a non-constant operand — builds a fresh
//     string on every evaluation;
//   - func literals capturing enclosing variables — the closure (and often
//     its captures) may be heap-allocated;
//   - boxing a non-pointer value into an interface (explicit conversion,
//     call argument, assignment, or return) — pointer-shaped values convert
//     free, everything else allocates;
//   - append to a slice declared locally without a capacity — growth
//     reallocates; appends to fields and parameters are trusted to be
//     pre-sized by their constructors (the project's slab convention);
//   - make(map[...]...) without a size hint — rehashing allocates as the
//     map grows.
func AnalyzerHotPathAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotpathalloc",
		Doc:  "no alloc-prone constructs in //memca:hotpath functions or their intra-package callees",
		Run:  runHotPathAlloc,
	}
}

func runHotPathAlloc(pkg *Package, cfg *Config) []Diagnostic {
	decls := packageFuncDecls(pkg)
	roots := markedHotPath(decls)
	if len(roots) == 0 {
		return nil
	}
	hot := reachableFuncs(pkg, decls, roots)

	var diags []Diagnostic
	for fn, decl := range decls {
		if !hot[fn] {
			continue
		}
		c := &hotChecker{pkg: pkg, fn: fn, marked: roots[fn]}
		c.check(decl)
		diags = append(diags, c.diags...)
	}
	return diags
}

// packageFuncDecls maps every package-level function and method object to
// its declaration.
func packageFuncDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pkg.Syntax {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}
	return decls
}

// markedHotPath returns the functions carrying the //memca:hotpath
// directive in their doc comment.
func markedHotPath(decls map[*types.Func]*ast.FuncDecl) map[*types.Func]bool {
	roots := make(map[*types.Func]bool)
	for fn, decl := range decls {
		if decl.Doc == nil {
			continue
		}
		for _, c := range decl.Doc.List {
			text := strings.TrimSpace(c.Text)
			if text == HotPathDirective || strings.HasPrefix(text, HotPathDirective+" ") {
				roots[fn] = true
				break
			}
		}
	}
	return roots
}

// reachableFuncs closes the marked set over intra-package static calls:
// calls to package-level functions and methods declared in this package.
// Calls through interfaces, function values, and other packages are outside
// the closure (unchecked here — the AllocsPerRun test covering each root
// still counts their allocations at run time).
func reachableFuncs(pkg *Package, decls map[*types.Func]*ast.FuncDecl, roots map[*types.Func]bool) map[*types.Func]bool {
	hot := make(map[*types.Func]bool, len(roots))
	var queue []*types.Func
	for fn := range roots {
		hot[fn] = true
		queue = append(queue, fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		decl := decls[fn]
		if decl == nil || decl.Body == nil {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			default:
				return true
			}
			callee, ok := pkg.Info.Uses[id].(*types.Func)
			if !ok || hot[callee] {
				return true
			}
			if _, declared := decls[callee]; declared {
				hot[callee] = true
				queue = append(queue, callee)
			}
			return true
		})
	}
	return hot
}

// hotChecker walks one hot function body and records alloc-prone constructs.
type hotChecker struct {
	pkg    *Package
	fn     *types.Func
	marked bool
	diags  []Diagnostic
	// unsized holds local slice variables declared without a capacity;
	// appending to them is flagged.
	unsized map[*types.Var]bool
}

func (c *hotChecker) report(n ast.Node, format string, args ...any) {
	where := "reachable from a //memca:hotpath function"
	if c.marked {
		where = "marked " + HotPathDirective
	}
	c.diags = append(c.diags, Diagnostic{
		Pos:      c.pkg.Fset.Position(n.Pos()),
		Analyzer: "hotpathalloc",
		Message:  fmt.Sprintf(format, args...) + fmt.Sprintf(" [hot path: %s is %s]", c.fn.Name(), where),
	})
}

func (c *hotChecker) check(decl *ast.FuncDecl) {
	if decl.Body == nil {
		return
	}
	c.unsized = make(map[*types.Var]bool)
	c.collectUnsizedLocals(decl.Body)
	inspectWithStack(decl.Body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.BinaryExpr:
			c.checkConcat(n)
		case *ast.AssignStmt:
			c.checkAssign(n)
		case *ast.FuncLit:
			// Only flag the outermost literal in a nest; its captures
			// subsume the inner ones.
			if enclosingFuncLit(stack) == nil {
				c.checkClosure(n)
			}
		case *ast.ReturnStmt:
			c.checkReturn(n)
		}
	})
}

// collectUnsizedLocals records slice variables declared in this function
// with no capacity: `var s []T`, `s := []T{}`, and `s := make([]T, 0)`.
// A make with a length or capacity, or a literal with elements, counts as
// pre-sized; growth past a deliberate size is the author's call.
func (c *hotChecker) collectUnsizedLocals(body *ast.BlockStmt) {
	record := func(name *ast.Ident, rhs ast.Expr) {
		obj, ok := c.pkg.Info.Defs[name].(*types.Var)
		if !ok {
			return
		}
		if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		if rhs == nil {
			c.unsized[obj] = true // var s []T
			return
		}
		switch e := rhs.(type) {
		case *ast.CompositeLit:
			if len(e.Elts) == 0 {
				c.unsized[obj] = true // []T{}
			}
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && c.pkg.Info.Uses[id] == types.Universe.Lookup("make") {
				// make([]T, 0) with no cap and zero length is unsized.
				if len(e.Args) == 2 && isIntZero(c.pkg, e.Args[1]) {
					c.unsized[obj] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					record(id, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var rhs ast.Expr
				if i < len(n.Values) {
					rhs = n.Values[i]
				}
				record(name, rhs)
			}
		}
		return true
	})
}

func isIntZero(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, exact := constantInt64(tv)
	return exact && v == 0
}

func (c *hotChecker) checkCall(call *ast.CallExpr) {
	// Explicit conversion T(x)?
	if tv, ok := c.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isInterface(tv.Type) && boxes(c.pkg, call.Args[0]) {
			c.report(call, "conversion boxes %s into interface %s (allocates; keep hot-path values pointer-shaped)",
				typeOf(c.pkg, call.Args[0]), tv.Type)
		}
		return
	}

	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if importedPackage(c.pkg.Info, sel.X) == "fmt" {
			c.report(call, "fmt.%s allocates on every call", sel.Sel.Name)
			return
		}
	}

	// Builtins: append to unsized locals, make(map) without a size hint.
	if id, ok := call.Fun.(*ast.Ident); ok && c.pkg.Info.Uses[id] == types.Universe.Lookup(id.Name) {
		switch id.Name {
		case "append":
			if len(call.Args) > 0 {
				if base, ok := call.Args[0].(*ast.Ident); ok {
					if v, ok := c.pkg.Info.Uses[base].(*types.Var); ok && c.unsized[v] {
						c.report(call, "append to un-presized local slice %s reallocates as it grows (declare it with a capacity)", base.Name)
					}
				}
			}
		case "make":
			if len(call.Args) == 1 {
				if tv, ok := c.pkg.Info.Types[call.Args[0]]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						c.report(call, "make(%s) without a size hint rehashes as it grows", tv.Type)
					}
				}
			}
		}
		return
	}

	// Implicit boxing of call arguments into interface parameters.
	sig, ok := typeOf(c.pkg, call.Fun).(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isInterface(pt) && boxes(c.pkg, arg) {
			c.report(arg, "argument boxes %s into interface %s (allocates; keep hot-path values pointer-shaped)",
				typeOf(c.pkg, arg), pt)
		}
	}
}

func (c *hotChecker) checkConcat(bin *ast.BinaryExpr) {
	if bin.Op != token.ADD {
		return
	}
	t := typeOf(c.pkg, bin)
	if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return
	}
	if tv, ok := c.pkg.Info.Types[bin]; ok && tv.Value != nil {
		return // constant-folded at compile time
	}
	c.report(bin, "string concatenation builds a fresh string per evaluation")
}

func (c *hotChecker) checkAssign(a *ast.AssignStmt) {
	if a.Tok == token.ADD_ASSIGN && len(a.Lhs) == 1 {
		t := typeOf(c.pkg, a.Lhs[0])
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			c.report(a, "string concatenation builds a fresh string per evaluation")
			return
		}
	}
	if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
		return
	}
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i := range a.Lhs {
		lt := typeOf(c.pkg, a.Lhs[i])
		if isInterface(lt) && boxes(c.pkg, a.Rhs[i]) {
			c.report(a.Rhs[i], "assignment boxes %s into interface %s (allocates; keep hot-path values pointer-shaped)",
				typeOf(c.pkg, a.Rhs[i]), lt)
		}
	}
}

func (c *hotChecker) checkReturn(r *ast.ReturnStmt) {
	sig, ok := c.fn.Type().(*types.Signature)
	if !ok || sig.Results() == nil || len(r.Results) != sig.Results().Len() {
		return
	}
	for i, res := range r.Results {
		rt := sig.Results().At(i).Type()
		if isInterface(rt) && boxes(c.pkg, res) {
			c.report(res, "return boxes %s into interface %s (allocates; keep hot-path values pointer-shaped)",
				typeOf(c.pkg, res), rt)
		}
	}
}

// checkClosure flags a func literal that captures variables from an
// enclosing function: the closure header (and often the captured variables
// themselves) moves to the heap when the literal escapes. Capture-free
// literals compile to plain functions and stay legal.
func (c *hotChecker) checkClosure(lit *ast.FuncLit) {
	captured := map[string]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captures.
		if v.Parent() == c.pkg.Types.Scope() {
			return true
		}
		// Declared inside the literal (including its params)? Not a capture.
		if lit.Pos() <= v.Pos() && v.Pos() < lit.End() {
			return true
		}
		if !captured[v.Name()] {
			captured[v.Name()] = true
			names = append(names, v.Name())
		}
		return true
	})
	if len(names) == 0 {
		return
	}
	c.report(lit, "func literal captures %s; the closure may be heap-allocated (use the sim.Actor path or pass state explicitly)",
		strings.Join(names, ", "))
}

// enclosingFuncLit returns the innermost func literal on the stack, or nil.
func enclosingFuncLit(stack []ast.Node) *ast.FuncLit {
	for i := len(stack) - 1; i >= 0; i-- {
		if fl, ok := stack[i].(*ast.FuncLit); ok {
			return fl
		}
	}
	return nil
}

// boxes reports whether using e as an interface value heap-allocates:
// true for non-pointer-shaped concrete values, false for values already
// interface-typed, pointer-shaped values (pointers, channels, maps, funcs,
// unsafe pointers), and untyped nil.
func boxes(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if isInterface(t) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if t.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func typeOf(pkg *Package, e ast.Expr) types.Type {
	return pkg.Info.TypeOf(e)
}

// constantInt64 extracts an exact int64 from a constant type-and-value.
func constantInt64(tv types.TypeAndValue) (int64, bool) {
	if tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
