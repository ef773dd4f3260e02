package releasecheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"acic/internal/analysis"
	"acic/internal/analysis/ownership"
)

// The second obligation source: locals bound from arena.Arena.Get or
// tram.Manager.Borrow must be released (Put/PutShared/Release/ReleaseTo)
// or handed on along every path, and must not be used after the release.
//
// The arena hands out fixed-capacity chunks from per-owner freelists; a
// borrowed chunk dropped on some path drains the freelist exactly like a
// leaked tram batch. Worse, a chunk used after being put back aliases
// whatever the freelist hands out next — the DESIGN.md "Arena ownership"
// rule that no arena-backed slice outlives a Scratch reset or reduction
// boundary is a use-after-release of this shape — so any read of a chunk
// variable after the statement that released it is reported (until the
// variable is re-bound).
//
// The leak check starts at the statement after the binding and propagates
// outward through the enclosing statement lists: a chunk borrowed inside
// an if-arm may be discharged later in the enclosing block. An obligation
// created inside a loop body must be discharged by the end of that
// iteration (stores count — including storing append(chunk, ...), which is
// how the demux pattern fwdBufs[owner] = append(buf, u) hands ownership to
// the held-buffer table).

// binding is one obligation-creating statement: a local assigned from
// Arena.Get or Manager.Borrow.
type binding struct {
	stmt ast.Stmt   // the assignment statement
	v    *types.Var // the local holding the chunk
	what string     // "arena chunk" or "tram buffer"
}

// checkBorrows runs both borrowed-local checks over every function.
func checkBorrows(pass *analysis.Pass, dirs *analysis.PkgDirectives, decls map[*types.Func]*ast.FuncDecl) {
	for _, decl := range decls {
		if decl.Body == nil || pass.InTestFile(decl.Pos()) {
			continue
		}
		for _, b := range findBindings(pass, decl) {
			c := &borrowChecker{pass: pass, dirs: dirs, fn: decl, bind: b}
			c.checkLeak()
			c.checkUseAfterRelease()
		}
	}
}

// findBindings collects the chunk/buffer bindings in decl.
func findBindings(pass *analysis.Pass, decl *ast.FuncDecl) []binding {
	var out []binding
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			var what string
			if fn := pass.Callee(call); fn != nil {
				switch analysis.ShortKey(fn) {
				case "arena.Arena.Get":
					what = "arena chunk"
				case "tram.Manager.Borrow":
					what = "tram buffer"
				}
			}
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if what == "" || !ok || id.Name == "_" {
				continue
			}
			if v := objOf(pass, id); v != nil {
				out = append(out, binding{stmt: as, v: v, what: what})
			}
		}
		return true
	})
	return out
}

func objOf(pass *analysis.Pass, id *ast.Ident) *types.Var {
	if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// borrowChecker verifies one binding's obligations.
type borrowChecker struct {
	pass *analysis.Pass
	dirs *analysis.PkgDirectives
	fn   *ast.FuncDecl
	bind binding
}

// matches reports whether e denotes the tracked chunk — the variable
// itself, or an append(chunk, ...) expression (storing or returning the
// grown slice moves ownership with it).
func (c *borrowChecker) matches(e ast.Expr) bool {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		return c.pass.TypesInfo.Uses[id] == c.bind.v
	}
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) > 0 {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" {
				return c.matches(call.Args[0])
			}
		}
	}
	return false
}

// checkLeak runs the all-paths discharge check: from the statement after
// the binding, through enclosing statement lists, stopping at a loop body
// or function-literal boundary.
func (c *borrowChecker) checkLeak() {
	lists := enclosingLists(c.fn.Body, c.bind.stmt)
	oc := &ownership.Checker{
		Pass:    c.pass,
		Matches: c.matches,
		TransferDischarges: func(call *ast.CallExpr, i int) bool {
			return ownership.TransferDischarges(c.pass, call, i)
		},
		OnLeak: func(pos token.Pos) {
			report(c.pass, c.dirs, c.fn, pos,
				"%s %q may not be released on this path: Put/Release it or hand it on, or annotate //acic:allow-unreleased",
				c.bind.what, c.bind.v.Name())
		},
	}
	// Walk each level's continuation; a level that discharges or returns on
	// all paths resolves the obligation, otherwise it falls through to the
	// enclosing level's continuation.
	for i, lv := range lists {
		if done, terminated := oc.Walk(lv.stmts[lv.after:], false); done || terminated {
			return
		}
		if i == len(lists)-1 {
			oc.OnLeak(lv.end)
		}
	}
}

// level is one enclosing statement list: the statements, the index after
// the statement containing the binding, and the position reported when the
// obligation falls off this list's end.
type level struct {
	stmts []ast.Stmt
	after int
	end   token.Pos
}

// enclosingLists returns the chain of statement lists from the one directly
// containing bind outward, stopping after a loop body or at the function
// body. Returns nil when bind sits inside a function literal (the closure
// runs later).
func enclosingLists(body *ast.BlockStmt, bind ast.Stmt) []level {
	type frame struct {
		stmts []ast.Stmt
		end   token.Pos
		loop  bool // this list is a loop body: do not propagate past it
	}
	var chain []frame
	var out []level

	var visitList func(stmts []ast.Stmt, end token.Pos, loop bool) bool
	var visitStmt func(s ast.Stmt) bool

	visitList = func(stmts []ast.Stmt, end token.Pos, loop bool) bool {
		chain = append(chain, frame{stmts, end, loop})
		defer func() { chain = chain[:len(chain)-1] }()
		for i, s := range stmts {
			if s == bind {
				// Materialize the chain innermost-first with continuation
				// indices.
				idx := i
				for j := len(chain) - 1; j >= 0; j-- {
					f := chain[j]
					out = append(out, level{stmts: f.stmts, after: idx + 1, end: f.end})
					if f.loop || j == 0 {
						break
					}
					// Find the enclosing statement's index in the parent.
					if idx = indexSpanning(chain[j-1].stmts, f.stmts); idx < 0 {
						break
					}
				}
				return true
			}
			if visitStmt(s) {
				return true
			}
		}
		return false
	}
	visitStmt = func(s ast.Stmt) bool {
		switch st := s.(type) {
		case *ast.BlockStmt:
			return visitList(st.List, st.Rbrace, false)
		case *ast.IfStmt:
			if visitList(st.Body.List, st.Body.Rbrace, false) {
				return true
			}
			if st.Else != nil {
				return visitStmt(st.Else)
			}
		case *ast.ForStmt:
			return visitList(st.Body.List, st.Body.Rbrace, true)
		case *ast.RangeStmt:
			return visitList(st.Body.List, st.Body.Rbrace, true)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			for _, cl := range clauses(st) {
				if visitList(cl.body, cl.end, false) {
					return true
				}
			}
		case *ast.LabeledStmt:
			return visitStmt(st.Stmt)
		}
		return false
	}
	visitList(body.List, body.Rbrace, false)
	return out
}

type clause struct {
	body []ast.Stmt
	end  token.Pos
}

// clauses returns the case bodies of a switch, type switch or select.
func clauses(s ast.Stmt) []clause {
	var list []ast.Stmt
	switch st := s.(type) {
	case *ast.SwitchStmt:
		list = st.Body.List
	case *ast.TypeSwitchStmt:
		list = st.Body.List
	case *ast.SelectStmt:
		list = st.Body.List
	}
	out := make([]clause, 0, len(list))
	for _, cl := range list {
		switch cc := cl.(type) {
		case *ast.CaseClause:
			out = append(out, clause{cc.Body, cc.End()})
		case *ast.CommClause:
			out = append(out, clause{cc.Body, cc.End()})
		}
	}
	return out
}

// indexSpanning returns the index of the statement in stmts whose span
// contains inner, or -1.
func indexSpanning(stmts []ast.Stmt, inner []ast.Stmt) int {
	if len(inner) == 0 {
		return -1
	}
	for i, s := range stmts {
		if s.Pos() <= inner[0].Pos() && inner[len(inner)-1].End() <= s.End() {
			return i
		}
	}
	return -1
}

// checkUseAfterRelease flags reads of the chunk variable after the
// statement that released it, scanning each statement list linearly until
// the variable is re-bound.
func (c *borrowChecker) checkUseAfterRelease() {
	var scan func(list []ast.Stmt)
	scan = func(list []ast.Stmt) {
		released := false
		for _, s := range list {
			if released {
				if rebindsVar(c.pass, s, c.bind.v) {
					released = false
				} else if pos, ok := c.firstUse(s); ok {
					report(c.pass, c.dirs, c.fn, pos,
						"%s %q used after it was released: the freelist may already have handed it out again",
						c.bind.what, c.bind.v.Name())
					released = false // one report per release point
				}
			}
			if !released && c.releasesStmt(s) {
				released = true
			}
			// Descend into nested lists independently.
			switch st := s.(type) {
			case *ast.BlockStmt:
				scan(st.List)
			case *ast.IfStmt:
				scan(st.Body.List)
				if st.Else != nil {
					scan([]ast.Stmt{st.Else})
				}
			case *ast.ForStmt:
				scan(st.Body.List)
			case *ast.RangeStmt:
				scan(st.Body.List)
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				for _, cl := range clauses(st) {
					scan(cl.body)
				}
			case *ast.LabeledStmt:
				scan([]ast.Stmt{st.Stmt})
			}
		}
	}
	scan(c.fn.Body.List)
}

// releasesStmt reports whether s (without descending into nested blocks)
// is a terminal release call taking the chunk.
func (c *borrowChecker) releasesStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok || !ownership.KnownSink(c.pass.Callee(call)) {
		return false
	}
	for _, arg := range call.Args {
		if c.matches(arg) {
			return true
		}
	}
	return false
}

// firstUse returns the position of the first read of the chunk variable in
// s, not descending into nested statement bodies (those are scanned in
// their own right).
func (c *borrowChecker) firstUse(s ast.Stmt) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n.(type) {
		case *ast.BlockStmt, *ast.FuncLit:
			return false
		}
		if id, ok := n.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == c.bind.v {
			pos, found = id.Pos(), true
			return false
		}
		return true
	})
	return pos, found
}

// rebindsVar reports whether s assigns a fresh value to v.
func rebindsVar(pass *analysis.Pass, s ast.Stmt, v *types.Var) bool {
	as, ok := s.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if pass.TypesInfo.Defs[id] == v || pass.TypesInfo.Uses[id] == v {
				return true
			}
		}
	}
	return false
}
