// Package releasecheck enforces pool discipline: every pooled array a
// function takes ownership of — an unpacked tram batch, an arena chunk, a
// borrowed tram buffer — must go back to its pool or be handed on along
// every path before the function returns.
//
// The tram manager and the arena recycle backing arrays through
// freelists. A function that takes one and forgets to give it back leaks
// that capacity: the pool drains, every new buffer allocates from scratch,
// and the steady-state zero-allocation property of the messaging hot path
// silently disappears. The leak is invisible to tests (nothing breaks — it
// is only slower), which is exactly what a static check is for.
//
// Obligations come from two sources, both checked on the shared ownership
// engine:
//
//   - Carrier fields and parameters: unpacked tram batches, below.
//   - Locals bound from arena.Arena.Get or tram.Manager.Borrow, which must
//     also never be touched after their release (see borrow.go).
//
// Batch tracking is type-driven, in three steps per package:
//
//  1. Carrier fields. A struct field assigned from a tram Batch's Items
//     (e.g. batchMsg{items: batch.Items}) marks that field as carrying a
//     pooled array across the runtime. Carrier fields are exported as facts
//     ("carrier:pkgpath.Type.field"), so a dependent package reading the
//     field through the import graph inherits the obligation.
//  2. Batch values. Reading a carrier field produces a batch value; passing
//     one to a same-package function marks the receiving parameter as a
//     batch value too (iterated to a fixed point), which is how the
//     conventional Deliver -> receiveBatch(pe, m.items) hand-off is
//     followed.
//  3. Obligation check. For each function holding a batch value, every
//     control-flow path to a return must discharge the obligation: call
//     Manager.Release with the value, hand the value wholesale to another
//     function (ownership transfer — e.g. re-sending it), store it, or
//     return it. A path that can fall off the end or return without any of
//     those is reported.
//
// Cross-package hand-offs of either kind consult the ownership sink
// summaries, exported once per package: passing a tracked value to an
// imported function whose parameter is known to be dropped on some path
// does NOT discharge the obligation, so the leak is reported at the
// caller.
//
// Per-element reads (ranging, indexing, len/cap) do not discharge: they are
// precisely the "unpack" whose completion must be followed by Release.
// //acic:allow-unreleased suppresses a finding (e.g. a deliberate
// keep-alive or a long-lived hold), with a justification comment.
package releasecheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"acic/internal/analysis"
	"acic/internal/analysis/ownership"
)

// Directive is the escape hatch recognized by this analyzer.
const Directive = "allow-unreleased"

// carrierPrefix keys the exported carrier-field facts.
const carrierPrefix = "carrier:"

// Analyzer is the releasecheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "releasecheck",
	Doc: "require tram batches, arena chunks and borrowed buffers to be released on every path\n\n" +
		"a receiver that unpacks a tram batch, or a local bound from\n" +
		"Arena.Get / Manager.Borrow, must go back to its pool or be handed on,\n" +
		"and a released chunk must not be touched again; leaks silently\n" +
		"disable buffer recycling. follows values across package boundaries\n" +
		"via carrier-field and sink-parameter facts.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Summarize this package's slice parameters for dependents (and for our
	// own cross-package transfer rule) regardless of whether any pooled
	// value is handled locally.
	ownership.ExportSinkFacts(pass)
	dirs := analysis.FileDirectives(pass)
	decls := funcDecls(pass)
	checkBorrows(pass, dirs, decls)

	carriers := findCarrierFields(pass)
	exportCarrierFacts(pass, carriers)
	imported := pass.Facts.WithPrefix(pass.Analyzer.Name, carrierPrefix)
	if len(carriers) == 0 && len(imported) == 0 {
		return nil
	}
	params := markBatchParams(pass, carriers, decls)

	for fn, idxs := range params {
		decl := decls[fn]
		for _, idx := range idxs {
			obj := ownership.ParamObj(pass, decl, idx)
			if obj == nil {
				continue
			}
			c := &checker{pass: pass, dirs: dirs, decls: decls, fn: decl, v: obj}
			c.check()
		}
	}
	// Functions that consume a carrier-field read in place (range/index on
	// m.items directly) rather than passing it on.
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			for _, sel := range inPlaceConsumed(pass, decl, carriers) {
				c := &checker{pass: pass, dirs: dirs, decls: decls, fn: decl, sel: sel}
				c.check()
			}
		}
	}
	return nil
}

// isBatchItems reports whether sel reads the Items field of a tram Batch.
func isBatchItems(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Items" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	n := analysis.NamedOf(tv.Type)
	return n != nil && analysis.ShortKey(n.Obj()) == "tram.Batch"
}

// findCarrierFields returns the struct fields assigned from a Batch.Items
// expression anywhere in the package, mapped to the named type carrying
// them (nil when the literal's type is anonymous).
func findCarrierFields(pass *analysis.Pass) map[*types.Var]*types.Named {
	carriers := make(map[*types.Var]*types.Named)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CompositeLit:
				tv, ok := pass.TypesInfo.Types[node]
				if !ok {
					return true
				}
				st, ok := tv.Type.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				named := analysis.NamedOf(tv.Type)
				for i, elt := range node.Elts {
					var value ast.Expr
					var field *types.Var
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						value = kv.Value
						if id, ok := kv.Key.(*ast.Ident); ok {
							field, _ = pass.TypesInfo.Uses[id].(*types.Var)
						}
					} else {
						value = elt
						if i < st.NumFields() {
							field = st.Field(i)
						}
					}
					if field == nil {
						continue
					}
					if sel, ok := ast.Unparen(value).(*ast.SelectorExpr); ok && isBatchItems(pass, sel) {
						carriers[field] = named
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range node.Lhs {
					if i >= len(node.Rhs) {
						break
					}
					rhs, ok := ast.Unparen(node.Rhs[i]).(*ast.SelectorExpr)
					if !ok || !isBatchItems(pass, rhs) {
						continue
					}
					lsel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if f, ok := pass.TypesInfo.Uses[lsel.Sel].(*types.Var); ok && f.IsField() {
						var named *types.Named
						if tv, ok := pass.TypesInfo.Types[lsel.X]; ok {
							named = analysis.NamedOf(tv.Type)
						}
						carriers[f] = named
					}
				}
			}
			return true
		})
	}
	return carriers
}

// exportCarrierFacts publishes this package's carrier fields so dependent
// packages reading them through the import graph inherit the obligation.
func exportCarrierFacts(pass *analysis.Pass, carriers map[*types.Var]*types.Named) {
	for f, named := range carriers {
		if named == nil {
			continue
		}
		pass.ExportFact(carrierPrefix+analysis.FieldKey(named, f.Name()), "")
	}
}

// funcDecls indexes this package's function declarations by their object.
func funcDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	return decls
}

// isCarrierRead reports whether e reads a carrier field — one found in this
// package or one imported as a fact from a dependency.
func isCarrierRead(pass *analysis.Pass, carriers map[*types.Var]*types.Named, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !f.IsField() {
		return false
	}
	if _, local := carriers[f]; local {
		return true
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	named := analysis.NamedOf(tv.Type)
	if named == nil {
		return false
	}
	return pass.HasFact(carrierPrefix + analysis.FieldKey(named, f.Name()))
}

// markBatchParams finds, to a fixed point, parameters of same-package
// functions that receive a batch value: either a carrier-field read or an
// already-marked parameter passed wholesale.
func markBatchParams(pass *analysis.Pass, carriers map[*types.Var]*types.Named, decls map[*types.Func]*ast.FuncDecl) map[*types.Func][]int {
	marked := make(map[*types.Func]map[int]bool)
	markedVars := make(map[*types.Var]bool)
	for {
		changed := false
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := pass.Callee(call)
				if fn == nil {
					return true
				}
				decl, ok := decls[fn]
				if !ok || decl.Body == nil {
					return true
				}
				for i, arg := range call.Args {
					isBatch := isCarrierRead(pass, carriers, arg)
					if !isBatch {
						if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
							if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && markedVars[v] {
								isBatch = true
							}
						}
					}
					if !isBatch {
						continue
					}
					if marked[fn] == nil {
						marked[fn] = make(map[int]bool)
					}
					if !marked[fn][i] {
						marked[fn][i] = true
						changed = true
						if obj := ownership.ParamObj(pass, decl, i); obj != nil {
							markedVars[obj] = true
						}
					}
				}
				return true
			})
		}
		if !changed {
			break
		}
	}
	out := make(map[*types.Func][]int)
	for fn, idxs := range marked {
		for i := range idxs {
			out[fn] = append(out[fn], i)
		}
	}
	return out
}

// inPlaceConsumed returns the carrier-field reads that decl unpacks
// directly (range or index base) without going through a parameter.
func inPlaceConsumed(pass *analysis.Pass, decl *ast.FuncDecl, carriers map[*types.Var]*types.Named) []*ast.SelectorExpr {
	seen := make(map[string]bool)
	var out []*ast.SelectorExpr
	add := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || !isCarrierRead(pass, carriers, sel) {
			return
		}
		key := types.ExprString(sel)
		if !seen[key] {
			seen[key] = true
			out = append(out, sel)
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.RangeStmt:
			add(node.X)
		case *ast.IndexExpr:
			add(node.X)
		}
		return true
	})
	return out
}

// checker verifies one obligation: batch value v (a parameter) or sel (a
// carrier-field selector) must be discharged on every path through fn. The
// path walking itself is the shared ownership.Checker; this wrapper owns
// the batch-specific match rule, scope narrowing, and reporting.
type checker struct {
	pass  *analysis.Pass
	dirs  *analysis.PkgDirectives
	decls map[*types.Func]*ast.FuncDecl
	fn    *ast.FuncDecl
	v     *types.Var        // parameter form, or
	sel   *ast.SelectorExpr // selector form (canonical spelling)
	root  *types.Var        // selector form: the base variable of sel
}

func (c *checker) name() string {
	if c.v != nil {
		return c.v.Name()
	}
	return types.ExprString(c.sel)
}

func (c *checker) check() {
	list := c.fn.Body.List
	end := c.fn.Body.Rbrace
	if c.sel != nil {
		c.root = rootVar(c.pass, c.sel)
		// A batch read through a function-local variable (e.g. the implicit
		// var of a type-switch case) only exists within that variable's
		// scope: check the obligation there, not across paths that never
		// saw a batch.
		if c.root != nil && c.root.Parent() != nil && c.fn.Body.Pos() <= c.root.Pos() && c.root.Pos() < c.fn.Body.End() {
			if l, e := scopeStmts(c.fn.Body, c.root.Parent()); l != nil {
				list, end = l, e
			}
		}
	}
	oc := &ownership.Checker{
		Pass:               c.pass,
		Matches:            c.matches,
		TransferDischarges: c.transferDischarges,
		OnLeak:             c.report,
	}
	oc.Check(list, end)
}

// transferDischarges decides whether handing the batch to a call moves the
// obligation on. Same-package callees always accept it — their parameter is
// marked by markBatchParams and checked in its own right, so the leak (if
// any) is reported at the precise spot inside the callee. Cross-package
// callees are judged by their exported sink summaries: a known non-sink
// parameter bounces the obligation back to this caller.
func (c *checker) transferDischarges(call *ast.CallExpr, i int) bool {
	if fn := c.pass.Callee(call); fn != nil {
		if decl, ok := c.decls[fn]; ok && decl.Body != nil {
			return true
		}
	}
	return ownership.TransferDischarges(c.pass, call, i)
}

// rootVar unwraps a selector chain to its base identifier's variable.
func rootVar(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	e := ast.Unparen(sel.X)
	for {
		if s, ok := e.(*ast.SelectorExpr); ok {
			e = ast.Unparen(s.X)
			continue
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// scopeStmts finds the smallest statement list in body that spans scope,
// returning it and the position of its end.
func scopeStmts(body *ast.BlockStmt, scope *types.Scope) ([]ast.Stmt, token.Pos) {
	var list []ast.Stmt
	var end token.Pos
	bestSpan := token.Pos(-1)
	consider := func(n ast.Node, stmts []ast.Stmt, e token.Pos) {
		if n.Pos() <= scope.Pos() && scope.End() <= n.End() {
			span := n.End() - n.Pos()
			if bestSpan < 0 || span < bestSpan {
				bestSpan, list, end = span, stmts, e
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.BlockStmt:
			consider(node, node.List, node.Rbrace)
		case *ast.CaseClause:
			consider(node, node.Body, node.End())
		case *ast.CommClause:
			consider(node, node.Body, node.End())
		}
		return true
	})
	return list, end
}

func (c *checker) report(pos token.Pos) {
	report(c.pass, c.dirs, c.fn, pos,
		"tram batch %q may not be released on this path: call Manager.Release after unpacking (or hand the batch on), or annotate //acic:allow-unreleased",
		c.name())
}

// report publishes a finding at pos in fn unless the directive covers pos
// or fn's declaration.
func report(pass *analysis.Pass, dirs *analysis.PkgDirectives, fn *ast.FuncDecl, pos token.Pos, format string, args ...any) {
	if !dirs.Allowed(Directive, pos) && !dirs.Allowed(Directive, fn.Pos()) {
		pass.Reportf(pos, format, args...)
	}
}

// matches reports whether e denotes the tracked batch value.
func (c *checker) matches(e ast.Expr) bool {
	e = ast.Unparen(e)
	if c.v != nil {
		id, ok := e.(*ast.Ident)
		return ok && c.pass.TypesInfo.Uses[id] == c.v
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if types.ExprString(sel) != types.ExprString(c.sel) ||
		c.pass.TypesInfo.Uses[sel.Sel] != c.pass.TypesInfo.Uses[c.sel.Sel] {
		return false
	}
	// Same spelling in a different scope (e.g. the case var of another
	// type-switch clause) is a different value.
	if c.root != nil {
		return rootVar(c.pass, sel) == c.root
	}
	return true
}
