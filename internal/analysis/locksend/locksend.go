// Package locksend flags calls into the netsim/tram send path made while a
// sync.Mutex or sync.RWMutex acquired in the same function is still held.
//
// Sending routes through user-extensible code (DropFilter) and through the
// fabric's own lane locks; doing that while holding an application lock is
// the deadlock class PR 1 eliminated by moving DropFilter evaluation outside
// every fabric lock. The invariant since then: acquire, mutate, release —
// then send. This analyzer enforces it intraprocedurally: within one
// function, any call to a send/flush API between a Lock/RLock and its
// Unlock (including locks held to function end via defer) is reported.
//
// The send path is identified by (package, receiver, method):
//
//	netsim.Network:  Send
//	runtime.PE:      Send, Broadcast, Contribute
//	runtime.Runtime: Inject, send
//	tram.Manager:    Insert, FlushSet
//
// The walk is source-order and branch-insensitive: a lock released on only
// one branch is treated as held afterwards, which over-approximates but
// keeps findings predictable. //acic:allow-locked-send suppresses a finding
// that is provably safe.
package locksend

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"acic/internal/analysis"
)

// Directive is the escape hatch recognized by this analyzer.
const Directive = "allow-locked-send"

// Analyzer is the locksend pass.
var Analyzer = &analysis.Analyzer{
	Name: "locksend",
	Doc: "flag netsim/tram send-path calls made while holding a mutex\n\n" +
		"sends traverse fabric locks and user code (DropFilter); holding an\n" +
		"application lock across them risks the PR 1 deadlock class.",
	Run: run,
}

// sendMethods maps package-path last element -> receiver type name ->
// forbidden-under-lock method names.
var sendMethods = map[string]map[string]map[string]bool{
	"netsim": {
		"Network": {"Send": true},
	},
	"runtime": {
		"PE":      {"Send": true, "Broadcast": true, "Contribute": true},
		"Runtime": {"Inject": true, "send": true},
	},
	"tram": {
		"Manager": {"Insert": true, "FlushSet": true},
	},
}

func run(pass *analysis.Pass) error {
	dirs := analysis.FileDirectives(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			w := &walker{pass: pass, dirs: dirs, held: map[string]token.Pos{}}
			w.stmts(fn.Body.List)
			// Function literals get their own empty lock context: a closure
			// runs at an unknown time, so locks of the enclosing function
			// are not assumed held inside it (nor its locks outside).
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					inner := &walker{pass: pass, dirs: dirs, held: map[string]token.Pos{}}
					inner.stmts(lit.Body.List)
				}
				return true
			})
		}
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
	dirs *analysis.PkgDirectives
	// held maps the canonical receiver expression of an acquired mutex to
	// its acquisition position.
	held map[string]token.Pos
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end; it is not
		// a release point for the source-order walk. Still scan the call's
		// arguments for send calls evaluated now.
		if op, _ := w.classifyLock(st.Call); op == opNone {
			w.exprCalls(st.Call)
		}
		return
	case *ast.BlockStmt:
		w.stmts(st.List)
		return
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		w.exprCalls(st.Cond)
		w.stmts(st.Body.List)
		if st.Else != nil {
			w.stmt(st.Else)
		}
		return
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		if st.Cond != nil {
			w.exprCalls(st.Cond)
		}
		w.stmts(st.Body.List)
		if st.Post != nil {
			w.stmt(st.Post)
		}
		return
	case *ast.RangeStmt:
		w.exprCalls(st.X)
		w.stmts(st.Body.List)
		return
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		if st.Tag != nil {
			w.exprCalls(st.Tag)
		}
		w.stmts(st.Body.List)
		return
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		w.stmts(st.Body.List)
		return
	case *ast.CaseClause:
		w.stmts(st.Body)
		return
	case *ast.SelectStmt:
		w.stmts(st.Body.List)
		return
	case *ast.CommClause:
		if st.Comm != nil {
			w.stmt(st.Comm)
		}
		w.stmts(st.Body)
		return
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
		return
	}
	// Leaf statements (expressions, assignments, returns, sends, go):
	// process their embedded calls in source order.
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate lock context, walked by run
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		w.call(call)
		return true
	})
}

// exprCalls processes the calls inside a bare expression.
func (w *walker) exprCalls(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.call(call)
		}
		return true
	})
}

type lockOp int

const (
	opNone lockOp = iota
	opLock
	opUnlock
)

func (w *walker) call(call *ast.CallExpr) {
	switch w.lockOp(call) {
	case opLock, opUnlock:
		return // handled in lockOp
	}
	fn := calleeFunc(w.pass, call)
	if fn == nil || !isSendAPI(fn) {
		return
	}
	if len(w.held) == 0 || w.dirs.Allowed(Directive, call.Pos()) {
		return
	}
	for expr, at := range w.held {
		w.pass.Reportf(call.Pos(),
			"call to %s while holding %s (acquired at %s): release the lock before entering the send path",
			fn.Name(), expr, w.pass.Fset.Position(at))
	}
}

// lockOp recognizes mu.Lock/RLock/Unlock/RUnlock on sync mutexes, updating
// the held set, and reports which kind of operation the call was.
func (w *walker) lockOp(call *ast.CallExpr) lockOp {
	op, key := w.classifyLock(call)
	switch op {
	case opLock:
		w.held[key] = call.Pos()
	case opUnlock:
		delete(w.held, key)
	}
	return op
}

// classifyLock identifies a mutex operation without changing the held set.
func (w *walker) classifyLock(call *ast.CallExpr) (lockOp, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone, ""
	}
	fn, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, ""
	}
	recv := receiverName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return opNone, ""
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return opLock, key
	case "Unlock", "RUnlock":
		return opUnlock, key
	}
	return opNone, ""
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

func isSendAPI(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	last := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		last = path[i+1:]
	}
	byRecv, ok := sendMethods[last]
	if !ok {
		return false
	}
	methods, ok := byRecv[receiverName(fn)]
	return ok && methods[fn.Name()]
}

// receiverName returns the named-type name of fn's receiver ("" for plain
// functions), unwrapping pointers and generic instances.
func receiverName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
