// Package ownership is the obligation-tracking engine behind releasecheck's
// pool discipline: a path-sensitive walker that verifies a tracked value —
// a tram batch slice, an arena chunk — is discharged on every control-flow
// path through a function, plus the cross-package "sink" summaries that
// make the discipline interprocedural.
//
// A value is discharged when ownership demonstrably moves on: it is passed
// wholesale to a releasing or transferring call, stored into a composite or
// a field, sent on a channel, re-bound, or returned. Per-element reads
// (ranging, indexing, len/cap) do not discharge — they are precisely the
// "unpack" whose completion must be followed by a release.
//
// Sink summaries close the function-boundary hole: for every function
// declaration, every slice-typed parameter is classified as a sink
// (discharged on all paths inside the callee) or a non-sink (some path
// drops it), and each non-sink is exported as a fact. Because the driver
// analyzes packages in dependency order, a caller in a dependent package
// sees its callee's summary: handing a tracked value to a known non-sink no
// longer counts as a discharge, which is what lets releasecheck follow
// pooled values across package boundaries instead of trusting every call
// blindly.
package ownership

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"acic/internal/analysis"
)

// FactNamespace is the analysis.Facts namespace the sink summaries live
// under.
const FactNamespace = "ownership"

// Checker verifies one obligation: the tracked value must be discharged on
// every path through the statement list it is checked against.
type Checker struct {
	Pass *analysis.Pass
	// Matches reports whether e denotes the tracked value.
	Matches func(e ast.Expr) bool
	// TransferDischarges, when non-nil, decides whether passing the tracked
	// value as argument argIndex of call discharges the obligation. When
	// nil, any non-builtin call taking the value wholesale discharges —
	// the optimistic pre-facts behavior.
	TransferDischarges func(call *ast.CallExpr, argIndex int) bool
	// OnLeak is invoked at each position where a path ends with the
	// obligation undischarged.
	OnLeak func(pos token.Pos)
}

// Check walks list (ending at end, the position reported when control falls
// off the end undischarged).
func (c *Checker) Check(list []ast.Stmt, end token.Pos) {
	done, terminated := c.walk(list, false)
	if !done && !terminated {
		c.OnLeak(end)
	}
}

// Walk exposes the raw walker for drivers that stitch several statement
// lists together (releasecheck's outward propagation of a borrow): it
// returns the discharge state at the end of the list and whether every path
// through it terminates, reporting leaks only at return statements.
func (c *Checker) Walk(list []ast.Stmt, done bool) (bool, bool) {
	return c.walk(list, done)
}

// dischargesExpr reports whether expression e contains a discharge of the
// obligation: a discharging call, a store into a composite literal, or a
// send.
func (c *Checker) dischargesExpr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch node := n.(type) {
		case *ast.FuncLit:
			return false // closures run later; not a discharge here
		case *ast.CallExpr:
			if c.callDischarges(node) {
				found = true
				return false
			}
		case *ast.CompositeLit:
			for _, elt := range node.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if c.Matches(v) {
					found = true // stored: ownership moved into the literal
					return false
				}
			}
		}
		return true
	})
	return found
}

// callDischarges reports whether one call discharges the obligation.
func (c *Checker) callDischarges(call *ast.CallExpr) bool {
	// Builtins (len, cap, append, ...) only observe the value or copy its
	// elements; they do not take ownership.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := c.Pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			return false
		}
	}
	for i, arg := range call.Args {
		if !c.Matches(arg) {
			continue
		}
		if c.TransferDischarges == nil || c.TransferDischarges(call, i) {
			return true
		}
	}
	return false
}

// walk processes a statement list. done is whether the obligation is
// already discharged on entry. It returns the discharge state at the end of
// the list and whether every path through the list terminates (returns).
func (c *Checker) walk(list []ast.Stmt, done bool) (bool, bool) {
	for _, s := range list {
		var term bool
		done, term = c.stmt(s, done)
		if term {
			return done, true
		}
	}
	return done, false
}

func (c *Checker) stmt(s ast.Stmt, done bool) (bool, bool) {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			if c.Matches(r) || c.dischargesExpr(r) {
				done = true
			}
		}
		if !done {
			c.OnLeak(st.Pos())
		}
		return true, true
	case *ast.DeferStmt:
		// defer tm.Release(v) (or a closure doing so) covers every return
		// after this point.
		if c.callDischarges(st.Call) {
			return true, false
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			litDone, _ := c.walk(lit.Body.List, false)
			if litDone {
				return true, false
			}
		}
		return done, false
	case *ast.BlockStmt:
		return c.walk(st.List, done)
	case *ast.IfStmt:
		if st.Init != nil {
			done, _ = c.stmt(st.Init, done)
		}
		if c.dischargesExpr(st.Cond) {
			done = true
		}
		tDone, tTerm := c.walk(st.Body.List, done)
		eDone, eTerm := done, false
		if st.Else != nil {
			eDone, eTerm = c.stmt(st.Else, done)
		}
		switch {
		case tTerm && eTerm:
			return done, true
		case tTerm:
			return eDone, false
		case eTerm:
			return tDone, false
		default:
			return tDone && eDone, false
		}
	case *ast.ForStmt, *ast.RangeStmt:
		var body *ast.BlockStmt
		if f, ok := st.(*ast.ForStmt); ok {
			body = f.Body
		} else {
			body = st.(*ast.RangeStmt).Body
		}
		// The body may execute zero times: discharges inside do not
		// propagate past the loop, but missing discharges at returns inside
		// are still checked.
		c.walk(body.List, done)
		return done, false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var body *ast.BlockStmt
		if sw, ok := st.(*ast.SwitchStmt); ok {
			body = sw.Body
		} else {
			body = st.(*ast.TypeSwitchStmt).Body
		}
		allDone, allTerm, hasDefault := true, true, false
		for _, cl := range body.List {
			cc := cl.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			d, t := c.walk(cc.Body, done)
			if !t {
				allTerm = false
				allDone = allDone && d
			}
		}
		if !hasDefault {
			allTerm = false
			allDone = allDone && done
		}
		if allTerm && hasDefault {
			return done, true
		}
		return allDone, false
	case *ast.SelectStmt:
		allDone, allTerm := true, true
		for _, cl := range st.Body.List {
			cc := cl.(*ast.CommClause)
			d, t := c.walk(cc.Body, done)
			if !t {
				allTerm = false
				allDone = allDone && d
			}
		}
		if allTerm {
			return done, true
		}
		return allDone, false
	case *ast.LabeledStmt:
		return c.stmt(st.Stmt, done)
	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; treat the path as
		// ended here (any later return is checked at its own level).
		return done, true
	case *ast.ExprStmt:
		if c.dischargesExpr(st.X) {
			return true, false
		}
		return done, false
	case *ast.AssignStmt:
		for i, r := range st.Rhs {
			if c.dischargesExpr(r) {
				return true, false
			}
			if c.Matches(r) && !(i < len(st.Lhs) && isBlank(st.Lhs[i])) {
				return true, false // stored or re-bound: ownership moved
			}
		}
		return done, false
	case *ast.SendStmt:
		if c.Matches(st.Value) || c.dischargesExpr(st.Value) {
			return true, false
		}
		return done, false
	case *ast.GoStmt:
		if c.callDischarges(st.Call) {
			return true, false
		}
		return done, false
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.EmptyStmt:
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && c.dischargesExpr(e) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true, false
		}
		return done, false
	}
	return done, false
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// --- sink summaries ---

// nonSinkKey names the per-parameter summary fact. Its absence means a
// sink or "unknown" (a function outside the analyzed universe), both of
// which callers treat optimistically.
func nonSinkKey(fnKey string, i int) string { return fmt.Sprintf("nonsink:%s:%d", fnKey, i) }

// ExportSinkFacts classifies every slice-typed parameter of every function
// declaration in the pass as sink or non-sink and exports the non-sinks.
func ExportSinkFacts(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			key := analysis.ObjKey(fn)
			known := KnownSink(fn)
			i := -1
			for _, field := range decl.Type.Params.List {
				for _, name := range field.Names {
					i++
					v, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok || v.Name() == "_" {
						continue
					}
					if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
						continue
					}
					if !known && !paramIsSink(pass, decl, v) {
						pass.Facts.Export(FactNamespace, nonSinkKey(key, i), "")
					}
				}
				if len(field.Names) == 0 {
					i++ // unnamed parameter occupies a slot
				}
			}
		}
	}
}

// KnownSink reports whether fn is one of the repo's terminal release
// primitives — axiomatically a sink for its slice parameters regardless of
// body shape. The real implementations recycle backing arrays through
// sync.Pool internals the path checker cannot see (and the test fixtures
// stub them with empty bodies), so classifying them from their bodies would
// wrongly bounce the obligation back to every correct caller.
func KnownSink(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	switch analysis.ShortKey(fn) {
	case "tram.Manager.Release", "tram.Manager.ReleaseTo", "arena.Arena.Put", "arena.Arena.PutShared":
		return true
	}
	return false
}

// paramIsSink reports whether v is discharged on every path through decl.
func paramIsSink(pass *analysis.Pass, decl *ast.FuncDecl, v *types.Var) bool {
	leaked := false
	c := &Checker{
		Pass: pass,
		Matches: func(e ast.Expr) bool {
			id, ok := ast.Unparen(e).(*ast.Ident)
			return ok && pass.TypesInfo.Uses[id] == v
		},
		// Consult callee summaries so a chain f -> g -> Release classifies
		// f's param correctly once g's package (or g itself, in file
		// order) has been summarized; unknowns stay optimistic.
		TransferDischarges: func(call *ast.CallExpr, argIndex int) bool {
			return TransferDischarges(pass, call, argIndex)
		},
		OnLeak: func(token.Pos) { leaked = true },
	}
	c.Check(decl.Body.List, decl.Body.Rbrace)
	return !leaked
}

// TransferDischarges is the facts-aware transfer rule: handing the tracked
// value to a callee known to be a non-sink for that parameter does NOT
// discharge the obligation; known sinks and unknown callees do.
func TransferDischarges(pass *analysis.Pass, call *ast.CallExpr, argIndex int) bool {
	fn := pass.Callee(call)
	if fn == nil || KnownSink(fn) {
		return true // dynamic call or terminal release primitive
	}
	if _, nonsink := pass.Facts.Import(FactNamespace, nonSinkKey(analysis.ObjKey(fn), argIndex)); nonsink {
		return false
	}
	return true
}

// ParamObj resolves parameter index i of decl to its variable, skipping
// variadic and out-of-range indices.
func ParamObj(pass *analysis.Pass, decl *ast.FuncDecl, i int) *types.Var {
	n := 0
	for _, field := range decl.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			n++ // unnamed parameter occupies a slot
			continue
		}
		for _, name := range names {
			if n == i {
				v, _ := pass.TypesInfo.Defs[name].(*types.Var)
				return v
			}
			n++
		}
	}
	return nil
}
