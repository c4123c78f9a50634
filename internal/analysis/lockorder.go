package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorder abstract states (bit indices into the dataflow bitset): whether
// the lock may be held, and whether a deferred Unlock is armed.
const (
	lkHeld     = 1 << 0
	lkDeferred = 1 << 1
)

// LockOrderAnalyzer enforces the lock discipline of the code that holds
// real mutexes. Per function body it runs a held-lock dataflow for
// every lock the body touches: every Lock pairs with an Unlock or
// defer-Unlock on all CFG paths, no Lock re-acquires a lock that may
// already be held, and no call re-enters a layered simulation package while
// a policy-declared leaf lock may be held. Across the module it builds the
// global lock-acquisition-order graph — an edge A→B whenever some path
// acquires B while A may be held, directly or through any chain of calls —
// and reports every cycle as a potential deadlock, including the
// interprocedural self-deadlock: F holds A and calls G, and G (or anything
// G reaches) locks A again.
func LockOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "every Lock pairs with an Unlock, leaf locks never span layered calls, and the global acquisition order is acyclic",
		Explain: `docs/ARCHITECTURE.md, "Enforced invariants": the simulated world is
single-threaded, so every mutex in the tree lives in genuinely concurrent
code at the simulation boundary — the real-socket twin (internal/tcpvia:
Node.mu, Manager.mu, Channel.mu, VI.writeMu, PeerRequest.doneMu, and the
metrics and event-log leaves), the batch runner, and the tcpring driver.
Per function body, the rule runs a held-lock dataflow for every lock the
body touches and checks each CFG path: a Lock is always discharged by an
Unlock or defer-Unlock before return (a leaked lock hangs the next reader
the way a missed wake hangs a waiter); a Lock never re-acquires a lock
that may already be held (self-deadlock); an Unlock always has a Lock to
match; and while a Policy.LeafLocks mutex may be held, no call resolves
into a package with a layer assignment in the DAG — a leaf is acquired
last and released before re-entering the stack, which is what keeps the
hierarchy trivially deadlock-free. Deadlock is also a *global* property:
thread 1 holding A while acquiring B deadlocks against thread 2 holding B
while acquiring A even though both functions are locally impeccable. So
the rule derives, from the shared call graph, the set of locks each
function may transitively acquire; adds an order edge A→B at every
acquisition (or call that can acquire) of B while A may be held; and
reports any cycle in the resulting graph with one witness site per edge.
Lock identity is the declared struct field ("internal/tcpvia.(Node).mu"),
so all instances of a field share one node — coarse, but exactly the
granularity a lock-hierarchy contract is written at; a mutex that is not a
field is tracked per body under its receiver text and stays out of the
order graph. Reviewed exceptions go in Policy.LockOrderAllow, keyed
"A -> B", with the argument for why the two acquisition orders can never
be live concurrently.`,
		Run: runLockOrder,
	}
}

// loEdge is one order edge with its first witness site.
type loEdge struct {
	from, to string
	pos      ast.Node // the acquisition (or call) establishing the edge
	via      string   // function containing the witness
	callee   string   // non-empty when the edge goes through a call chain
}

func runLockOrder(m *Module, p *Policy) []Diagnostic {
	ip := m.Interproc()

	// Summary: the set of lock fields each function may transitively acquire
	// *synchronously*, via a union fixpoint over the call graph. Literal
	// bodies are excluded on both sides — a literal runs in its own
	// activation (a goroutine, a timer callback, a scheduled event), so its
	// acquisitions are not held on the calling path. The time.AfterFunc
	// wake-up in tcpvia's waitLocked is the live example: folding it in
	// would report a Node.mu self-deadlock on a path that cannot exist.
	acquires := map[string]map[string]bool{}
	declCallees := map[string][]string{}
	for _, key := range ip.Keys {
		f := ip.Funcs[key]
		acquires[key] = map[string]bool{}
		callees := map[string]bool{}
		for _, u := range f.Units {
			if u.lit != nil {
				continue
			}
			inspectSkipLits(u.body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if op := classifyLockOp(m, f.Pkg, call); op != nil && op.lock && op.field != "" {
					acquires[key][op.field] = true
				}
				for _, callee := range resolveSiteCallees(ip, key, call) {
					callees[callee] = true
				}
				return true
			})
		}
		declCallees[key] = sortedKeys(callees)
	}
	ip.fixpoint(func(key string) bool {
		set := acquires[key]
		before := len(set)
		for _, callee := range declCallees[key] {
			for field := range acquires[callee] {
				set[field] = true
			}
		}
		return len(set) != before
	})

	// Run the held-lock dataflow per unit, per lock that unit touches:
	// report the per-path pairing and leaf violations, and record what is
	// acquired while each field may be held.
	var ds []Diagnostic
	edges := map[string]*loEdge{}
	addEdge := func(from, to string, witness ast.Node, via, callee string) {
		id := from + " -> " + to
		if _, ok := edges[id]; !ok {
			edges[id] = &loEdge{from: from, to: to, pos: witness, via: via, callee: callee}
		}
	}
	for _, key := range ip.Keys {
		f := ip.Funcs[key]
		for _, u := range f.Units {
			locks := unitLocks(m, f.Pkg, u)
			for _, id := range sortedKeys(locks) {
				isField := locks[id]
				states, exit := nodeMayStates(u.body, 1<<0, func(node ast.Node, in uint64) uint64 {
					return loTransfer(m, f.Pkg, id, node, in)
				})
				report := func(pos ast.Node, format string, args ...any) {
					ds = append(ds, Diagnostic{Pos: m.Position(pos.Pos()), Rule: "lockorder", Message: fmt.Sprintf(format, args...)})
				}
				// Deterministic witness order: walk the body in source order.
				var firstLock *lockOp
				inspectSkipLits(u.body, func(n ast.Node) bool {
					if def, ok := n.(*ast.DeferStmt); ok {
						// A deferred Unlock runs at return; loTransfer arms it.
						op := classifyLockOp(m, f.Pkg, def.Call)
						return op == nil || op.id() != id || op.lock
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					in, reached := loStateAt(states, u.body, n)
					if !reached {
						return true
					}
					held := lkAnyHeld(in)
					op := classifyLockOp(m, f.Pkg, call)
					switch {
					case op != nil && op.id() == id && op.lock:
						if firstLock == nil {
							firstLock = op
						}
						if held && !op.read {
							report(call, "%s: %s.Lock while %s may already be held (self-deadlock) — unlock first, or restructure so one acquisition covers both", u.name, op.key, op.key)
						}
					case op != nil && op.id() == id:
						if !held {
							report(call, "%s: %s.Unlock while %s cannot be held on any path here — pair it with a Lock in this body", u.name, op.key, op.key)
						}
					case !held:
					case op != nil:
						if op.lock && op.field != "" && isField {
							addEdge(id, op.field, call, key, "")
						}
					default:
						if why, leaf := p.LeafLocks[id]; leaf {
							if rel, layered := lkLayeredCallee(m, p, f.Pkg, call); layered {
								report(call, "%s: call into layered package %s while leaf lock %s may be held; the leaf contract (%s) is acquire-last/release-first — release before re-entering the stack", u.name, rel, id, why)
							}
						}
						if isField {
							for _, callee := range resolveSiteCallees(ip, key, call) {
								for _, field := range sortedKeys(acquires[callee]) {
									addEdge(id, field, call, key, callee)
								}
							}
						}
					}
					return true
				})
				if exit&(1<<lkHeld) != 0 && firstLock != nil {
					report(firstLock.call, "%s: %s.Lock has no Unlock on some path to return; a leaked lock hangs the next acquirer — add defer %s.Unlock() or unlock on every path", u.name, firstLock.key, firstLock.key)
				}
			}
		}
	}

	// Cycle detection over the order graph.
	return append(ds, reportLockCycles(m, p, edges)...)
}

// unitLocks returns the locks this unit itself locks or unlocks, by
// identity (see lockOp.id), each mapped to whether it is a declared field.
func unitLocks(m *Module, pkg *Package, u funcUnit) map[string]bool {
	set := map[string]bool{}
	inspectSkipLits(u.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op := classifyLockOp(m, pkg, call); op != nil {
				set[op.id()] = op.field != ""
			}
		}
		return true
	})
	return set
}

// loTransfer folds one CFG node into the held-state bitset for one lock.
func loTransfer(m *Module, pkg *Package, id string, node ast.Node, in uint64) uint64 {
	if def, ok := node.(*ast.DeferStmt); ok {
		if op := classifyLockOp(m, pkg, def.Call); op != nil && op.id() == id && !op.lock {
			return applyStates(in, func(s int) int { return s | lkDeferred })
		}
		return in
	}
	out := in
	inspectSkipLits(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op := classifyLockOp(m, pkg, call); op != nil && op.id() == id {
			if op.lock {
				out = applyStates(out, func(s int) int { return s | lkHeld })
			} else {
				out = applyStates(out, func(s int) int { return s &^ lkHeld })
			}
		}
		return true
	})
	return out
}

// lkAnyHeld reports whether any reachable state holds the lock.
func lkAnyHeld(set uint64) bool {
	return set&(1<<lkHeld) != 0 || set&(1<<(lkHeld|lkDeferred)) != 0
}

// loStateAt finds the recorded may-state for the CFG node containing the
// target call. CFG nodes are statements (or bare condition expressions), so
// the lookup walks up from the call through its ancestors to the nearest
// node the dataflow recorded. An unrecorded target sits in an unreached
// block (dead code) and reports false.
func loStateAt(states map[ast.Node]uint64, body *ast.BlockStmt, target ast.Node) (uint64, bool) {
	var found uint64
	ok := false
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if ok {
			return false // drain without pushing; n's children are skipped
		}
		if n == target {
			if s, rec := states[n]; rec {
				found, ok = s, true
			} else {
				for i := len(stack) - 1; i >= 0; i-- {
					if s, rec := states[stack[i]]; rec {
						found, ok = s, true
						break
					}
				}
			}
			return false
		}
		stack = append(stack, n)
		return true
	})
	return found, ok
}

// resolveSiteCallees returns the resolved callees of one call expression,
// looked up in the shared per-function site list.
func resolveSiteCallees(ip *Interproc, key string, call *ast.CallExpr) []string {
	for _, site := range ip.Calls(key) {
		if site.Call == call {
			return site.Callees
		}
	}
	return nil
}

// reportLockCycles finds cycles in the order graph and renders one
// diagnostic per cycle, anchored at the lexicographically-first edge's
// witness.
func reportLockCycles(m *Module, p *Policy, edges map[string]*loEdge) []Diagnostic {
	succ := map[string][]string{}
	for _, id := range sortedKeys(edges) {
		e := edges[id]
		if _, allowed := p.LockOrderAllow[id]; allowed {
			continue
		}
		succ[e.from] = append(succ[e.from], e.to)
	}
	var ds []Diagnostic
	reported := map[string]bool{}
	var nodes []string
	for n := range succ {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, start := range nodes {
		cycle := findCycleFrom(succ, start)
		if cycle == nil {
			continue
		}
		sig := cycleSignature(cycle)
		if reported[sig] {
			continue
		}
		reported[sig] = true
		var parts []string
		for i := 0; i < len(cycle); i++ {
			e := edges[cycle[i]+" -> "+cycle[(i+1)%len(cycle)]]
			via := e.via
			if e.callee != "" {
				via += " -> " + e.callee
			}
			parts = append(parts, fmt.Sprintf("%s acquired while %s held (%s, %s:%d)",
				e.to, e.from, via, shortFile(m, e.pos), m.Position(e.pos.Pos()).Line))
		}
		first := edges[cycle[0]+" -> "+cycle[1%len(cycle)]]
		ds = append(ds, Diagnostic{
			Pos:  m.Position(first.pos.Pos()),
			Rule: "lockorder",
			Message: fmt.Sprintf("lock-order cycle (potential deadlock): %s; every thread must acquire these locks in one global order — restructure, or justify in Policy.LockOrderAllow",
				strings.Join(parts, "; ")),
		})
	}
	return ds
}

// findCycleFrom returns the node sequence of a cycle reachable from start
// that passes through start, or nil. DFS over sorted successors keeps the
// result deterministic.
func findCycleFrom(succ map[string][]string, start string) []string {
	var stack []string
	onStack := map[string]bool{}
	var dfs func(n string) []string
	dfs = func(n string) []string {
		stack = append(stack, n)
		onStack[n] = true
		next := append([]string(nil), succ[n]...)
		sort.Strings(next)
		for _, t := range next {
			if t == start {
				return append([]string(nil), stack...)
			}
			if !onStack[t] {
				if c := dfs(t); c != nil {
					return c
				}
			}
		}
		stack = stack[:len(stack)-1]
		onStack[n] = false
		return nil
	}
	return dfs(start)
}

// cycleSignature canonicalizes a cycle (rotation-invariant) so each is
// reported once.
func cycleSignature(cycle []string) string {
	best := 0
	for i := range cycle {
		if cycle[i] < cycle[best] {
			best = i
		}
	}
	var parts []string
	for i := range cycle {
		parts = append(parts, cycle[(best+i)%len(cycle)])
	}
	return strings.Join(parts, "->")
}

// shortFile renders a node's filename relative to the module root for
// compact messages.
func shortFile(m *Module, n ast.Node) string {
	name := m.Position(n.Pos()).Filename
	if rest, ok := strings.CutPrefix(name, m.Root+"/"); ok {
		return rest
	}
	return name
}

// lockOp classifies one mutex call site.
type lockOp struct {
	call  *ast.CallExpr
	key   string // textual receiver ("n.mu")
	field string // qualified field ("internal/tcpvia.(Manager).metricsMu") or ""
	lock  bool   // Lock/RLock vs Unlock/RUnlock
	read  bool   // RLock/RUnlock (shared: re-acquiring is not self-deadlock)
}

// id is the identity the held-lock dataflow tracks: the declared field,
// which all instances share, or — for a mutex that is not a field — the
// receiver text, which names one mutex within one body.
func (op *lockOp) id() string {
	if op.field != "" {
		return op.field
	}
	return op.key
}

// classifyLockOp recognizes mutex method calls: <expr>.Lock/Unlock/RLock/
// RUnlock where <expr> has type sync.Mutex or sync.RWMutex (possibly
// through a pointer).
func classifyLockOp(m *Module, pkg *Package, call *ast.CallExpr) *lockOp {
	se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var lock, read bool
	switch se.Sel.Name {
	case "Lock":
		lock = true
	case "RLock":
		lock, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return nil
	}
	t := pkg.Info.TypeOf(se.X)
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return nil
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return nil
	}
	op := &lockOp{call: call, key: exprText(se.X), lock: lock, read: read}
	if rse, ok := ast.Unparen(se.X).(*ast.SelectorExpr); ok {
		op.field = fieldQualified(m, pkg, rse)
	}
	return op
}

// exprText renders the receiver expression as the per-body lock key. Same
// spelling ⇒ same mutex within one function body, which holds for the
// receiver chains this codebase uses (n.mu, m.metricsMu, flightMu).
func exprText(e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}

// lkLayeredCallee reports whether call resolves into a package with a layer
// assignment (the simulated stack); shared leaves (obs, trace) and the
// standard library are fine under a leaf lock.
func lkLayeredCallee(m *Module, p *Policy, pkg *Package, call *ast.CallExpr) (string, bool) {
	obj := calleeObject(pkg.Info, call)
	if obj == nil || !inModule(m, obj.Pkg()) {
		return "", false
	}
	rel := relQualified(m.Path, obj.Pkg().Path())
	_, layered := p.Layers[rel]
	return rel, layered
}
