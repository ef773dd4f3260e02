// Package lockorder builds the mutex-acquisition-order graph across the
// analyzed packages and fails on cycles, on the one pairing that is
// forbidden outright — acquiring a netsim lane lock while holding a runtime
// mailbox lock — and on any call into the send path made while a lock is
// held.
//
// Locks are tracked as classes, not instances: every sync.Mutex/RWMutex
// reached through a field of a named type is the class
// "pkgpath.Type.field" (package-level mutex vars are "pkgpath.var";
// function-local mutexes get no class — they cannot participate in a
// cross-goroutine cycle). Within each function a source-order,
// branch-insensitive walk tracks the held set (a lock released on only one
// branch counts as held afterwards, and defer mu.Unlock() holds it to the
// end); acquiring class B while holding class A records the edge A -> B.
//
// Sending routes through user-extensible code (DropFilter) and through the
// fabric's own lane locks, so a send made while holding any lock —
// function-local ones included — risks the deadlock class the fabric was
// restructured to remove: acquire, mutate, release, then send. The send
// path is the sendAPI table below.
//
// The analysis is interprocedural through facts: every function exports
// the set of lock classes it may acquire, directly or transitively
// ("locks:pkgpath.Func", fixpointed within the package and seeded from
// dependency facts), and a call made while holding A adds edges from A to
// everything the callee may acquire. Edges accumulate across packages as
// "edge:A|B" facts, so a cycle whose halves live in different packages is
// caught when the second half is analyzed. A self-edge (two instances of
// one class acquired together) is reported as a cycle too: without a
// proven index order, opposite interleavings deadlock.
//
// //acic:allow-lock-order suppresses either finding (e.g. an acquisition
// ordered by a global index discipline), with a justification comment.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"acic/internal/analysis"
)

// Directive is the escape hatch recognized by this analyzer.
const Directive = "allow-lock-order"

const (
	locksPrefix = "locks:"
	edgePrefix  = "edge:"
)

// sendAPI is the send path, as analysis.ShortKey names its methods.
var sendAPI = map[string]bool{
	"netsim.Network.Send":    true,
	"runtime.PE.Send":        true,
	"runtime.PE.Broadcast":   true,
	"runtime.PE.Contribute":  true,
	"runtime.Runtime.Inject": true,
	"runtime.Runtime.send":   true,
	"tram.Manager.Insert":    true,
	"tram.Manager.FlushSet":  true,
}

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "forbid mutex-acquisition cycles, lane-lock-under-mailbox-lock, and sends under a lock\n\n" +
		"builds the cross-package lock-order graph (via exported facts) and\n" +
		"reports any edge that closes a cycle, any netsim lane lock taken\n" +
		"while a runtime mailbox lock is held, and any netsim/runtime/tram\n" +
		"send-path call made while a mutex is held.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	dirs := analysis.FileDirectives(pass)

	// Collect per-function acquisition and call events.
	infos := collect(pass)

	for _, info := range infos {
		for _, ev := range info.calls {
			if len(ev.held) == 0 || !sendAPI[analysis.ShortKey(ev.callee)] || dirs.Allowed(Directive, ev.pos) {
				continue
			}
			h := ev.held[len(ev.held)-1]
			pass.Reportf(ev.pos,
				"call to %s while holding %s (acquired at %s): release the lock before entering the send path",
				ev.callee.Name(), h.expr, pass.Fset.Position(h.pos))
		}
	}

	// Fixpoint the may-acquire sets over this package's call graph, seeded
	// with imported facts for external callees.
	locks := make(map[*types.Func]map[string]bool)
	for fn, info := range infos {
		s := make(map[string]bool)
		for c := range info.direct {
			s[c] = true
		}
		locks[fn] = s
	}
	for changed := true; changed; {
		changed = false
		for fn, info := range infos {
			for _, ev := range info.calls {
				for _, c := range calleeLocks(pass, infos, locks, ev.callee) {
					if !locks[fn][c] {
						locks[fn][c] = true
						changed = true
					}
				}
			}
		}
	}
	for fn, s := range locks {
		if len(s) == 0 {
			continue
		}
		pass.ExportFact(locksPrefix+analysis.ObjKey(fn), joinSorted(s))
	}

	// Materialize this package's edges.
	type edge struct {
		from, to string
		pos      token.Pos
	}
	var edges []edge
	seen := make(map[string]bool)
	add := func(from, to string, pos token.Pos) {
		k := from + "|" + to
		if from == "" || seen[k] {
			return // a function-local lock has no class to order
		}
		seen[k] = true
		edges = append(edges, edge{from, to, pos})
	}
	for _, info := range infos {
		for _, ev := range info.acqs {
			for _, h := range ev.held {
				add(h.class, ev.class, ev.pos)
			}
		}
		for _, ev := range info.calls {
			if len(ev.held) == 0 {
				continue
			}
			for _, c := range calleeLocks(pass, infos, locks, ev.callee) {
				for _, h := range ev.held {
					add(h.class, c, ev.pos)
				}
			}
		}
	}

	// Combined adjacency: previously exported edges plus this package's.
	adj := make(map[string]map[string]bool)
	for k := range pass.Facts.WithPrefix(pass.Analyzer.Name, edgePrefix) {
		if from, to, ok := strings.Cut(k, "|"); ok {
			addAdj(adj, from, to)
		}
	}
	for _, e := range edges {
		addAdj(adj, e.from, e.to)
	}

	for _, e := range edges {
		pass.ExportFact(edgePrefix+e.from+"|"+e.to, pass.Fset.Position(e.pos).String())
		if dirs.Allowed(Directive, e.pos) {
			continue
		}
		if classMatches(e.from, "runtime", "mailbox") && classMatches(e.to, "netsim", "lane") {
			pass.Reportf(e.pos,
				"netsim lane lock %s acquired while holding runtime mailbox lock %s: the fabric may re-enter the mailbox on delivery, deadlocking the PE",
				e.to, e.from)
			continue
		}
		if path := findPath(adj, e.to, e.from); path != nil {
			pass.Reportf(e.pos,
				"lock-order cycle: acquiring %s while holding %s, but %s is already acquired while holding %s (%s)",
				e.to, e.from, e.from, e.to, strings.Join(append(path, e.to), " -> "))
		}
	}
	return nil
}

func addAdj(adj map[string]map[string]bool, from, to string) {
	if adj[from] == nil {
		adj[from] = make(map[string]bool)
	}
	adj[from][to] = true
}

// findPath returns a node path from -> ... -> to in adj, or nil. A
// zero-length search (from == to) returns the one-node path, which is how
// self-edges close cycles.
func findPath(adj map[string]map[string]bool, from, to string) []string {
	parent := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == to {
			var path []string
			for ; n != ""; n = parent[n] {
				path = append([]string{n}, path...)
			}
			return path
		}
		next := make([]string, 0, len(adj[n]))
		for m := range adj[n] {
			next = append(next, m)
		}
		slices.Sort(next)
		for _, m := range next {
			if _, ok := parent[m]; !ok {
				parent[m] = n
				queue = append(queue, m)
			}
		}
	}
	return nil
}

// classMatches reports whether class is "…pkgSuffix.typeName.<field>" — the
// package path's last element ends in pkgSuffix (so fixture packages like
// lockorder_runtime match) and the named type matches.
func classMatches(class, pkgSuffix, typeName string) bool {
	i := strings.LastIndexByte(class, '.') // strip field
	if i < 0 {
		return false
	}
	rest := class[:i]
	j := strings.LastIndexByte(rest, '.')
	if j < 0 {
		return false
	}
	if !strings.EqualFold(rest[j+1:], typeName) {
		return false
	}
	pkg := rest[:j]
	if k := strings.LastIndexByte(pkg, '/'); k >= 0 {
		pkg = pkg[k+1:]
	}
	return strings.HasSuffix(pkg, pkgSuffix)
}

func joinSorted(s map[string]bool) string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	slices.Sort(out)
	return strings.Join(out, ",")
}

// calleeLocks returns the lock classes callee may acquire: the local
// fixpoint state for same-package functions, the imported fact otherwise.
func calleeLocks(pass *analysis.Pass, infos map[*types.Func]*fnInfo, locks map[*types.Func]map[string]bool, callee *types.Func) []string {
	if callee == nil {
		return nil
	}
	if _, ok := infos[callee]; ok {
		return keys(locks[callee])
	}
	v, ok := pass.Facts.Import(pass.Analyzer.Name, locksPrefix+analysis.ObjKey(callee))
	if !ok || v == "" {
		return nil
	}
	return strings.Split(v, ",")
}

func keys(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	return out
}

// --- event collection ---

// heldLock is one entry of the walker's held set.
type heldLock struct {
	class string // "" for a function-local mutex
	expr  string // source spelling of the mutex, for diagnostics
	pos   token.Pos
}

type acqEvent struct {
	class string
	held  []heldLock
	pos   token.Pos
}

type callEvent struct {
	callee *types.Func
	held   []heldLock
	pos    token.Pos
}

type fnInfo struct {
	direct map[string]bool
	acqs   []acqEvent
	calls  []callEvent
}

// collect walks every function (and every function literal, in its own
// empty lock context) recording acquisitions and calls with the held set
// at that point.
func collect(pass *analysis.Pass) map[*types.Func]*fnInfo {
	infos := make(map[*types.Func]*fnInfo)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &fnInfo{direct: make(map[string]bool)}
			infos[fn] = info
			w := &walker{pass: pass, info: info}
			w.stmts(fd.Body.List)
			// Function literals (nested ones included) run at an unknown
			// time: each gets its own empty held context, but their
			// acquisitions still belong to the enclosing function's
			// may-acquire set (calling the function may run the closure).
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					inner := &walker{pass: pass, info: info}
					inner.stmts(lit.Body.List)
				}
				return true
			})
		}
	}
	return infos
}

type walker struct {
	pass *analysis.Pass
	info *fnInfo
	held []heldLock
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end; not a
		// release point for the source-order walk.
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
	case *ast.GoStmt:
		// The spawned goroutine does not inherit this goroutine's held
		// locks; its own acquisitions are collected when its function (or
		// literal, above) is walked.
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate lock context, walked by collect
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.call(call)
		}
		return true
	})
}

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
	op, l := w.classifyLock(call)
	switch op {
	case opLock:
		if l.class != "" {
			w.info.direct[l.class] = true
			w.info.acqs = append(w.info.acqs, acqEvent{class: l.class, held: slices.Clone(w.held), pos: l.pos})
		}
		w.held = append(w.held, l)
		return
	case opUnlock:
		for i := len(w.held) - 1; i >= 0; i-- {
			if w.held[i].expr == l.expr {
				w.held = slices.Delete(w.held, i, i+1)
				break
			}
		}
		return
	}
	if fn := w.pass.Callee(call); fn != nil {
		w.info.calls = append(w.info.calls, callEvent{callee: fn, held: slices.Clone(w.held), pos: call.Pos()})
	}
}

// classifyLock recognizes mu.Lock/RLock/Unlock/RUnlock on sync mutexes and
// resolves the mutex expression to its lock class.
func (w *walker) classifyLock(call *ast.CallExpr) (lockOp, heldLock) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone, heldLock{}
	}
	fn, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, heldLock{}
	}
	recv := analysis.NamedRecvName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return opNone, heldLock{}
	}
	var op lockOp
	switch fn.Name() {
	case "Lock", "RLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return opNone, heldLock{}
	}
	return op, heldLock{class: lockClass(w.pass, sel.X), expr: types.ExprString(sel.X), pos: call.Pos()}
}

// lockClass resolves the expression denoting a mutex to its class:
// "pkgpath.Type.field" for struct-field mutexes (however deep the access
// path), "pkgpath.var" for package-level mutex vars, "" (untracked) for
// locals.
func lockClass(pass *analysis.Pass, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		f, ok := pass.TypesInfo.Uses[x.Sel].(*types.Var)
		if !ok || !f.IsField() {
			return ""
		}
		tv, ok := pass.TypesInfo.Types[x.X]
		if !ok {
			return ""
		}
		named := analysis.NamedOf(tv.Type)
		if named == nil {
			return ""
		}
		return analysis.FieldKey(named, f.Name())
	case *ast.Ident:
		v, ok := pass.TypesInfo.Uses[x].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return "" // function-local mutex: no cross-goroutine class
		}
		return v.Pkg().Path() + "." + v.Name()
	}
	return ""
}
