package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// wakereach abstract states (bit indices into the dataflow bitset): whether
// an un-woken transition is pending, and whether a deferred waker is armed
// (a deferred waker runs at return, after every later transition, so it
// clears pending at the exit no matter what follows it textually).
const (
	wwPending  = 1 << 0
	wwDeferred = 1 << 1
)

// WakeReachAnalyzer enforces the wait/wake pairing on the VIA state machine:
// a waiter-visible state transition made anywhere in a call chain must be
// reachable by a wake through the call graph before the obligation escapes
// the provider. A helper that leaves the wake to its callers is not trusted
// on its word: the obligation propagates into those callers, and the rule
// checks that they actually wake.
func WakeReachAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "wakereach",
		Doc:  "a park-visible transition must be reached by a wake through the call graph",
		Explain: `docs/ARCHITECTURE.md, "Enforced invariants": the paper's on-demand design
blocks inside VipRecvWait/WaitActivity until "something observable happened
on the port" — the waiting process is parked in virtual time and runs again
only when a completion or state change wakes it. That makes every transition
into a waiter-visible state (StatusSuccess, StatusDisconnected, ViError,
ViClosed, ...) half of a contract: the other half is a notifyActivity call
before control leaves the provider, or the waiter sleeps forever and the
simulation deadlocks with virtual time unable to advance. The PR 3 VI.Close
hang is the motivating case: Close failed pending descriptors (a transition
helpers made on its behalf) and returned without the wake, leaving a parked
RecvWait asleep forever. Assigning a value other than a listed
non-observable constant to a Policy.WaitWakeStates location raises the
obligation; a Policy.WaitWakeWakers call (inline, or deferred) discharges
it. Over the shared call graph the rule computes alwaysWakes(F) — every
path through F wakes — and owesWake(F) — some path transitions (directly,
or by calling an owing helper) and returns without a wake (direct,
deferred, or via an alwaysWakes callee). The obligation may flow upward
between in-scope functions, because a caller can legitimately own the
wake; the diagnostic fires when an owing function's obligation escapes —
it is exported, is called from outside Policy.WaitWakeScope, or has no
module callers at all — so no caller inside the provider can discharge
it. Owner-thread entry points whose caller is by definition not parked are
justified in Policy.WakeReachAllow.`,
		Run: runWakeReach,
	}
}

func runWakeReach(m *Module, p *Policy) []Diagnostic {
	ip := m.Interproc()

	calleeQual := func(pkg *Package, call *ast.CallExpr) string {
		obj := calleeObject(pkg.Info, call)
		if obj == nil {
			return ""
		}
		return relQualified(m.Path, objectQualifiedName(obj))
	}

	// alwaysWakes: greatest fixpoint — every path through F wakes, directly
	// or through a callee that always wakes. Policy-listed wakers qualify by
	// definition.
	always := map[string]bool{}
	for _, key := range ip.Keys {
		always[key] = true
	}
	wakesHere := func(pkg *Package, node ast.Node) bool {
		woke := false
		inspectSkipLits(node, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if wwIsWakerCall(m, p, pkg, call) {
					woke = true
				} else if q := calleeQual(pkg, call); always[q] && ip.Funcs[q] != nil {
					woke = true
				}
			}
			return true
		})
		return woke
	}
	ip.fixpoint(func(key string) bool {
		if !always[key] || p.WaitWakeWakers[key] {
			return false
		}
		f := ip.Funcs[key]
		var body *ast.BlockStmt
		for _, u := range f.Units {
			if u.lit == nil {
				body = u.body
				break
			}
		}
		if body == nil {
			return false
		}
		// Bit 0: not yet woken on some path. A deferred waker runs at
		// return, so for exit-state purposes it wakes the paths through it.
		exit := exitMayState(body, 1<<0, func(node ast.Node, in uint64) uint64 {
			if def, ok := node.(*ast.DeferStmt); ok {
				if wwIsWakerCall(m, p, f.Pkg, def.Call) || wwLitContainsWaker(m, p, f.Pkg, def.Call) {
					return applyStates(in, func(s int) int { return 1 })
				}
				return in
			}
			if wakesHere(f.Pkg, node) {
				return applyStates(in, func(s int) int { return 1 })
			}
			return in
		})
		if exit&(1<<0) != 0 {
			always[key] = false
			return true
		}
		return false
	})

	// owesWake: least fixpoint over the in-scope functions. The transfer
	// depends on the evolving owes map (a call to an owing helper raises the
	// obligation mid-path), so each sweep re-runs the dataflow.
	owes := map[string]bool{}
	witness := map[string]ast.Node{}
	inScope := func(key string) bool {
		f := ip.Funcs[key]
		return f != nil && p.WaitWakeScope[f.Pkg.Rel]
	}
	ip.fixpoint(func(key string) bool {
		if owes[key] || !inScope(key) || p.WaitWakeWakers[key] {
			return false
		}
		f := ip.Funcs[key]
		for _, u := range f.Units {
			var firstTrigger ast.Node
			exit := exitMayState(u.body, 1<<0, func(node ast.Node, in uint64) uint64 {
				return wrTransfer(m, p, f.Pkg, ip, always, owes, node, in, &firstTrigger)
			})
			// Owing at exit: pending with no deferred waker armed.
			if exit&(1<<wwPending) != 0 {
				owes[key] = true
				if witness[key] == nil && firstTrigger != nil {
					witness[key] = firstTrigger
				}
				return true
			}
		}
		return false
	})

	// The obligation escapes when no in-scope caller can discharge it.
	var ds []Diagnostic
	var owing []string
	for key := range owes {
		owing = append(owing, key)
	}
	sort.Strings(owing)
	for _, key := range owing {
		if _, allowed := p.WakeReachAllow[key]; allowed {
			continue
		}
		f := ip.Funcs[key]
		callers := ip.Callers(key)
		escape := ""
		switch {
		case f.Exported:
			escape = "it is exported, so callers outside the provider reach it directly"
		case len(callers) == 0:
			escape = "it has no module callers to discharge the obligation"
		default:
			for _, c := range callers {
				if !inScope(c) {
					escape = fmt.Sprintf("it is called from %s, outside Policy.WaitWakeScope", c)
					break
				}
			}
		}
		if escape == "" {
			continue // every caller is in scope and inherits the obligation
		}
		pos := witness[key]
		if pos == nil {
			pos = f.Decl
		}
		ds = append(ds, Diagnostic{
			Pos:  m.Position(pos.Pos()),
			Rule: "wakereach",
			Message: fmt.Sprintf("%s moves state a blocked waiter observes (directly or via a helper) and can return without any wake reaching it: %s; a parked WaitActivity would sleep forever — wake (notifyActivity) on every path, or justify the owner-thread contract in Policy.WakeReachAllow",
				key, escape),
		})
	}
	return ds
}

// wrTransfer folds one CFG node into the wwPending/wwDeferred state set: a
// waiter-visible assignment or a call to an owing helper raises the
// obligation; a waker call or a call to an alwaysWakes callee discharges
// it; a deferred waker arms the deferred bit.
func wrTransfer(m *Module, p *Policy, pkg *Package, ip *Interproc, always, owes map[string]bool, node ast.Node, in uint64, firstTrigger *ast.Node) uint64 {
	if def, ok := node.(*ast.DeferStmt); ok {
		if wwIsWakerCall(m, p, pkg, def.Call) || wwLitContainsWaker(m, p, pkg, def.Call) {
			return applyStates(in, func(s int) int { return s | wwDeferred })
		}
		return in
	}
	out := in
	raise := wwHasTrigger(m, p, pkg, node)
	wake := false
	inspectSkipLits(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if wwIsWakerCall(m, p, pkg, call) {
			wake = true
			return true
		}
		obj := calleeObject(pkg.Info, call)
		if obj == nil {
			return true
		}
		q := relQualified(m.Path, objectQualifiedName(obj))
		if ip.Funcs[q] == nil {
			return true
		}
		if owes[q] {
			raise = true
		} else if always[q] {
			wake = true
		}
		return true
	})
	if raise {
		if *firstTrigger == nil {
			*firstTrigger = node
		}
		out = applyStates(out, func(s int) int { return s | wwPending })
	}
	if wake {
		out = applyStates(out, func(s int) int { return s &^ wwPending })
	}
	return out
}

// wwHasTrigger reports whether node (not descending into literals — those
// are separate units) contains a waiter-visible state assignment: the LHS
// is a selector of a Policy.WaitWakeStates type and the RHS is not one of
// the type's listed non-observable constants. An RHS the analysis cannot
// resolve to a constant counts (conservative: failPending's parameterized
// status is a trigger, verified against its callers).
func wwHasTrigger(m *Module, p *Policy, pkg *Package, node ast.Node) bool {
	found := false
	inspectSkipLits(node, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || found {
			return !found
		}
		for i, lhs := range as.Lhs {
			se, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			named, ok := pkg.Info.TypeOf(se).(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				continue
			}
			qual := relQualified(m.Path, named.Obj().Pkg().Path()) + "." + named.Obj().Name()
			nonObservable, watched := p.WaitWakeStates[qual]
			if !watched {
				continue
			}
			if len(as.Lhs) == len(as.Rhs) && wwIsNonObservableConst(pkg, as.Rhs[i], nonObservable) {
				continue
			}
			found = true
			return false
		}
		return true
	})
	return found
}

func wwIsNonObservableConst(pkg *Package, rhs ast.Expr, nonObservable []string) bool {
	var obj types.Object
	switch e := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[e.Sel]
	default:
		return false
	}
	c, ok := obj.(*types.Const)
	if !ok {
		return false
	}
	for _, name := range nonObservable {
		if c.Name() == name {
			return true
		}
	}
	return false
}

func wwIsWakerCall(m *Module, p *Policy, pkg *Package, call *ast.CallExpr) bool {
	obj := calleeObject(pkg.Info, call)
	if obj == nil {
		return false
	}
	return p.WaitWakeWakers[relQualified(m.Path, objectQualifiedName(obj))]
}

// wwLitContainsWaker reports whether a deferred `func() { ... }()` literal
// contains a waker call anywhere in its body.
func wwLitContainsWaker(m *Module, p *Policy, pkg *Package, call *ast.CallExpr) bool {
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && wwIsWakerCall(m, p, pkg, c) {
			found = true
		}
		return !found
	})
	return found
}
