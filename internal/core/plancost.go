package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/relation"
	"repro/internal/val"
)

// This file is the engine side of the cost-based planner (Limits.Plan =
// PlanCost): it arranges each compiled rule into a *physical* plan —
// a join order chosen by internal/planner's selectivity estimates, an
// optional shared-prefix buffer (CSE), and γ presizing hints — and
// swaps physicals in and out between semi-naive rounds when observed
// relation growth diverges from the estimates the order was chosen by.
//
// The contract (docs/PLANNER.md): every physical of a plan enumerates
// exactly the same set of satisfying assignments as the syntactic
// order, so models, traces, Stats totals and checkpoints are
// byte-identical to Limits.Plan = PlanSyntactic at every parallelism
// level. Whenever a cost arrangement cannot be proven equivalent the
// planner keeps the syntactic physical for that rule.

// physical is one executable arrangement of a plan's body: a step
// order, the scan positions the semi-naive drivers key on, and the
// order lowered to its streaming pipeline. Every plan owns a syntactic
// physical (identical to plan.steps, built at compile time) and the
// cost planner installs alternatives via plan.cur; all evaluation-time
// consumers go through plan.ph().
type physical struct {
	steps     []step
	scanSteps map[ast.PredKey][]int
	stream    *exec.Rule
	// canon maps each physical position to the canonical (syntactic)
	// step position it executes, -1 for a CSE buffer step; physOf is
	// the inverse, -1 for canonical steps folded into a buffer. The
	// profile accumulators and derivation traces are keyed canonically,
	// so counters and supports stay comparable across plan switches.
	canon  []int
	physOf []int
	// choice records the planner's decisions for EXPLAIN rendering; nil
	// on the syntactic physical.
	choice *planner.Choice
}

// bufferStep replays the materialized rows of a shared subplan prefix
// (CSE). vars lists the variables each row column binds, in the
// binding order of the folded steps, and covers every variable the
// prefix would have bound — including cost variables — so downstream
// steps and trace capture see the same environment the folded scans
// would have produced.
type bufferStep struct {
	rows [][]val.T
	vars []int
}

func (*bufferStep) isStep() {}

// newSynPhysical wraps the compiled syntactic order as the identity
// physical. canon and physOf share the identity mapping.
func newSynPhysical(p *plan) *physical {
	idx := make([]int, len(p.steps))
	for i := range idx {
		idx[i] = i
	}
	return &physical{steps: p.steps, scanSteps: p.scanSteps, stream: p.stream, canon: idx, physOf: idx}
}

// ph returns the physical currently installed for the plan. The
// pointer is atomic so Profile() can render a consistent plan while a
// solve is re-planning between rounds.
func (p *plan) ph() *physical { return p.cur.Load() }

// resetPlans restores every rule to its syntactic physical; called at
// each solve entry point so PlanSyntactic solves (and naive/WFS
// components, which the cost planner leaves alone) never observe a
// stale cost arrangement from a previous solve.
func (en *Engine) resetPlans() {
	for _, ps := range en.plans {
		for _, p := range ps {
			p.cur.Store(p.syn)
		}
	}
}

// resolvePlan maps the Limits knob to a concrete planner choice.
func resolvePlan(lim Limits) Plan {
	if lim.Plan == PlanCost {
		return PlanCost
	}
	return PlanSyntactic
}

// componentPlanner holds one component's planning state across a
// fixpoint: the shared-prefix buffers (materialized once — their
// source relations are frozen for the duration of the component) and
// the relation-length snapshot the re-planning trigger compares
// against at round boundaries.
type componentPlanner struct {
	db       *relation.DB
	ps       []*plan
	allowCSE bool
	shares   map[*plan]*ruleShare
	built    bool
	lens     map[ast.PredKey]int
}

// planComponent installs cost physicals for the component's rules and
// returns the re-planning state, or nil when the engine is running the
// syntactic plan (the nil componentPlanner is inert). allowCSE is
// false for incremental continuations (SolveMore), whose Δ seeds can
// drive restricted passes over the very EDB scans a buffer would fold
// away.
func (en *Engine) planComponent(db *relation.DB, ps []*plan, allowCSE bool) *componentPlanner {
	if en.plan != PlanCost {
		return nil
	}
	cp := &componentPlanner{db: db, ps: ps, allowCSE: allowCSE}
	cp.apply()
	return cp
}

// apply (re)builds each rule's cost physical from current statistics
// and snapshots the read-set relation lengths for the divergence test.
func (cp *componentPlanner) apply() {
	est := planner.NewEstimator(cp.db)
	if !cp.built {
		cp.built = true
		if cp.allowCSE {
			cp.shares = findShared(cp.ps, cp.db)
		}
	}
	cp.lens = map[ast.PredKey]int{}
	for _, p := range cp.ps {
		for k := range p.reads {
			cp.lens[k] = est.Len(k)
		}
		ph := buildCostPhysical(p, est, cp.shares[p])
		if ph == nil {
			ph = p.syn
		}
		p.cur.Store(ph)
	}
}

// maybeReplan re-plans the component when any relation it reads has
// grown past the divergence threshold since the current physicals were
// chosen. Called at round boundaries only — deterministic points where
// the database content is identical across parallelism levels — so
// sequential and parallel runs re-plan identically. Safe on nil.
func (cp *componentPlanner) maybeReplan() {
	if cp == nil {
		return
	}
	for k, before := range cp.lens {
		if planner.Diverged(before, cp.db.Rel(k).Len()) {
			cp.apply()
			return
		}
	}
}

// buildCostPhysical arranges one rule by estimated selectivity,
// returning nil when the syntactic physical should be kept: the rule
// reads its own head (its semantics depend on mid-pass visibility, so
// the enumeration order is pinned), the greedy ordering gets stuck, an
// aggregate conjunction has no valid order at its new position, or the
// chosen order is the syntactic one with nothing else to contribute.
func buildCostPhysical(p *plan, est *planner.Estimator, share *ruleShare) *physical {
	if p.reads[p.head.pred] {
		return nil
	}
	n := len(p.steps)
	if n == 0 {
		return nil
	}
	bound := make([]bool, p.nvars)
	done := make([]bool, n)
	steps := make([]step, 0, n+1)
	canon := make([]int, 0, n+1)
	ests := make([]float64, 0, n+1)
	emitted := 0

	if share != nil {
		steps = append(steps, &bufferStep{rows: share.rows, vars: share.vars})
		canon = append(canon, -1)
		ests = append(ests, float64(len(share.rows)))
		for _, v := range share.vars {
			bound[v] = true
		}
		for i := 0; i < share.n; i++ {
			done[i] = true
		}
		emitted = share.n
	}

	for emitted < n {
		best := -1
		bestClass := 0
		bestEst := 0.0
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			class, rows, ok := stepChoice(p.steps[i], bound, est)
			if !ok {
				continue
			}
			if best < 0 || class < bestClass || (class == bestClass && rows < bestEst) {
				best, bestClass, bestEst = i, class, rows
			}
		}
		if best < 0 {
			return nil // no runnable step: keep the syntactic order
		}
		done[best] = true
		emitted++
		s := p.steps[best]
		if bs, ok := s.(*builtinStep); ok {
			s = cloneBuiltin(bs, bound)
		}
		steps = append(steps, s)
		canon = append(canon, best)
		ests = append(ests, bestEst)
		bindStep(s, bound)
	}

	hints := aggHints(steps, est)
	identity := share == nil
	if identity {
		for i, c := range canon {
			if c != i {
				identity = false
				break
			}
		}
	}
	if identity && hints == nil {
		return nil // nothing the cost plan would change
	}

	ch := &planner.Choice{Order: canon, Est: ests}
	if share != nil {
		ch.Shared = share.n
	}
	stream := compileStream(p, steps, hints)
	// An aggregate moved to a position where its conjunction has no
	// valid order (a default-value atom would be enumerated) cannot
	// run; keep the syntactic physical, which compiled cleanly.
	for pi, c := range canon {
		if c < 0 {
			continue
		}
		if _, ok := steps[pi].(*aggStep); !ok {
			continue
		}
		na, oa := stream.Steps[pi].Agg, p.stream.Steps[c].Agg
		if (na.OrderFullErr != nil && oa.OrderFullErr == nil) ||
			(na.OrderPointErr != nil && oa.OrderPointErr == nil) {
			return nil
		}
	}

	physOf := make([]int, n)
	for i := range physOf {
		physOf[i] = -1
	}
	for pi, c := range canon {
		if c >= 0 {
			physOf[c] = pi
		}
	}
	scanSteps := map[ast.PredKey][]int{}
	for i, s := range steps {
		if sc, ok := s.(*scanStep); ok {
			scanSteps[sc.pred] = append(scanSteps[sc.pred], i)
		}
	}
	return &physical{steps: steps, scanSteps: scanSteps, stream: stream,
		canon: canon, physOf: physOf, choice: ch}
}

// stepChoice classifies one pending step under the current bound set:
// its ordering class, its estimated rows per invocation (scans only),
// and whether it is runnable at all.
//
// The class ladder refines the syntactic compiler's priorities with one
// semi-naive-aware rule: builtin tests (0), then assignments (1), then
// scans of component-recursive relations and frozen point lookups (2),
// then frozen scans by estimated rows (3), then aggregates (4) and
// negations (5). Recursive scans rank ahead of frozen extensions
// regardless of current Len because they are the Δ drivers: most
// semi-naive passes restrict them to the round's small delta, and a
// frozen scan placed ahead of the driver would multiply the whole
// frozen extension into every Δ pass — the estimates only order scans
// within a class.
func stepChoice(s step, bound []bool, est *planner.Estimator) (class int, rows float64, ok bool) {
	switch s := s.(type) {
	case *builtinStep:
		mode, _, ok := builtinMode(s, bound)
		if !ok {
			return 0, 0, false
		}
		if mode == "test" {
			return 0, 0, true
		}
		return 1, 0, true
	case *scanStep:
		if s.pi.HasDefault {
			for _, v := range s.argVar {
				if v >= 0 && !bound[v] {
					return 0, 0, false
				}
			}
		}
		rows = est.ScanEst(s.pred, s.pi, scanMask(&s.atomSpec, bound), s.cdb)
		if s.cdb || rows <= 1 {
			return 2, rows, true
		}
		return 3, rows, true
	case *aggStep:
		if !s.restricted {
			for _, v := range s.groupVars {
				if !bound[v] {
					return 0, 0, false
				}
			}
		}
		return 4, 0, true
	case *negStep:
		for _, v := range s.argVar {
			if v >= 0 && !bound[v] {
				return 0, 0, false
			}
		}
		if s.costVar >= 0 && !bound[s.costVar] {
			return 0, 0, false
		}
		return 5, 0, true
	}
	return 0, 0, false
}

// scanMask is the bound-position mask a scan would probe with: constant
// or bound-variable non-cost positions, first 64 only — exactly the
// mask the pipeline's cursor opens (exec.Machine open).
func scanMask(sp *atomSpec, bound []bool) uint64 {
	var mask uint64
	for j, v := range sp.argVar {
		if j >= 64 {
			break
		}
		if v < 0 || bound[v] {
			mask |= 1 << uint(j)
		}
	}
	return mask
}

// bindStep marks the variables a step binds on success, mirroring the
// syntactic compiler's binds sets.
func bindStep(s step, bound []bool) {
	switch s := s.(type) {
	case *scanStep:
		for _, v := range s.argVar {
			if v >= 0 {
				bound[v] = true
			}
		}
		if s.costVar >= 0 {
			bound[s.costVar] = true
		}
	case *builtinStep:
		if s.assign >= 0 {
			bound[s.assign] = true
		}
	case *aggStep:
		for _, v := range s.groupVars {
			bound[v] = true
		}
		bound[s.result] = true
	case *bufferStep:
		for _, v := range s.vars {
			bound[v] = true
		}
	}
}

// cloneBuiltin re-derives a builtin's execution mode for its position
// in a cost order. The canonical step object is shared with the
// syntactic physical, whose assign/expr were fixed for the syntactic
// position, so a moved builtin gets its own step with the mode the new
// bound set implies (mirroring the syntactic compiler's emission).
func cloneBuiltin(bs *builtinStep, bound []bool) *builtinStep {
	clone := &builtinStep{b: bs.b, assign: -1, lVars: bs.lVars, rVars: bs.rVars, vmap: bs.vmap}
	if mode, assignVar, ok := builtinMode(clone, bound); ok && mode == "assign" {
		clone.assign = assignVar
		if lv, isVar := clone.b.L.(ast.VarExpr); isVar && clone.vmap[lv.V] == assignVar && len(clone.lVars) == 1 {
			clone.expr = clone.b.R
		} else {
			clone.expr = clone.b.L
		}
	}
	return clone
}

// aggHints computes the γ group-map presize for each physical
// position, or nil when no step has one. Only grouped (restricted)
// aggregates build a group table; the hint is the distinct projection
// of the first frozen conjunct that carries every grouping variable.
func aggHints(steps []step, est *planner.Estimator) []int {
	var hints []int
	for i, s := range steps {
		ag, ok := s.(*aggStep)
		if !ok || !ag.restricted {
			continue
		}
		for ci := range ag.conj {
			sp := &ag.conj[ci]
			if ag.groupKeyPos[ci] == nil || sp.cdb || sp.pi.HasDefault {
				continue
			}
			var mask uint64
			usable := true
			for _, pos := range ag.groupKeyPos[ci] {
				if pos >= 64 {
					usable = false
					break
				}
				mask |= 1 << uint(pos)
			}
			if !usable {
				continue
			}
			if h := est.GroupsHint(sp.pred, mask, false); h > 0 {
				if hints == nil {
					hints = make([]int, len(steps))
				}
				hints[i] = h
			}
			break
		}
	}
	return hints
}

// ruleShare is one rule's view of a shared subplan: its first n
// canonical steps are replaced by a buffer replaying rows, whose
// columns bind vars (this rule's variable indices).
type ruleShare struct {
	n    int
	vars []int
	rows [][]val.T
}

var errSharedTooBig = errors.New("core: shared prefix exceeds materialization cap")

// findShared detects common subplans across the component's rules:
// maximal prefixes of frozen-relation scans that are α-equivalent
// across at least two rules. Each shared prefix is materialized once
// (against the same frozen relations every rule would scan, in the
// same enumeration order) and every participating rule replays the
// buffer. Rules that read their own head are excluded — they keep the
// syntactic physical entirely.
func findShared(ps []*plan, db *relation.DB) map[*plan]*ruleShare {
	type member struct {
		p    *plan
		n    int
		vars []int
	}
	count := map[string]int{}
	sigOf := map[*plan]map[int]string{}
	for _, p := range ps {
		if p.reads[p.head.pred] {
			continue
		}
		max := eligiblePrefix(p)
		if max < 2 {
			continue
		}
		sigs := map[int]string{}
		for l := 2; l <= max; l++ {
			sig := prefixSig(p, l)
			sigs[l] = sig
			count[sig]++
		}
		sigOf[p] = sigs
	}
	groups := map[string][]member{}
	var order []string
	for _, p := range ps {
		sigs := sigOf[p]
		for l := len(sigs) + 1; l >= 2; l-- {
			sig, ok := sigs[l]
			if !ok || count[sig] < 2 {
				continue
			}
			if len(groups[sig]) == 0 {
				order = append(order, sig)
			}
			groups[sig] = append(groups[sig], member{p: p, n: l, vars: prefixVars(p, l)})
			break
		}
	}
	shares := map[*plan]*ruleShare{}
	for _, sig := range order {
		g := groups[sig]
		if len(g) < 2 {
			continue // a lone rule gains nothing from buffering
		}
		rows, ok := materializePrefix(g[0].p, g[0].n, g[0].vars, db)
		if !ok {
			continue
		}
		for _, m := range g {
			shares[m.p] = &ruleShare{n: m.n, vars: m.vars, rows: rows}
		}
	}
	return shares
}

// eligiblePrefix is the number of leading steps foldable into a shared
// buffer: scans of frozen (non-CDB), non-default relations. Buffering
// must not hide a semi-naive driver (CDB scans) and default-value
// predicates are point lookups with nothing to share.
func eligiblePrefix(p *plan) int {
	n := 0
	for _, s := range p.steps {
		sc, ok := s.(*scanStep)
		if !ok || sc.cdb || sc.pi.HasDefault {
			break
		}
		n++
	}
	return n
}

// prefixSig renders a prefix up to α-equivalence: predicate keys,
// constant values, and variable positions numbered by first
// occurrence. Two rules with equal signatures enumerate identical row
// sequences over identical relations, so their buffers are
// interchangeable column-for-column.
func prefixSig(p *plan, l int) string {
	var b strings.Builder
	num := map[int]int{}
	ref := func(v int) {
		i, ok := num[v]
		if !ok {
			i = len(num)
			num[v] = i
		}
		fmt.Fprintf(&b, "v%d", i)
	}
	for i := 0; i < l; i++ {
		sc := p.steps[i].(*scanStep)
		b.WriteString(string(sc.pred))
		b.WriteByte('(')
		for j, v := range sc.argVar {
			if j > 0 {
				b.WriteByte(',')
			}
			if v >= 0 {
				ref(v)
			} else {
				b.WriteString("k:")
				b.Write(val.AppendKeyOf(nil, []val.T{sc.argVal[j]}))
			}
		}
		if sc.pi.HasCost {
			b.WriteByte(';')
			if sc.costVar >= 0 {
				ref(sc.costVar)
			} else {
				b.WriteString("k:")
				b.Write(val.AppendKeyOf(nil, []val.T{sc.costVal}))
			}
		}
		b.WriteString(");")
	}
	return b.String()
}

// prefixVars lists the variables a prefix binds, in binding order
// (argument order then cost, per step — exactly bindAtom's order).
// α-equivalent prefixes produce positionally identical lists.
func prefixVars(p *plan, l int) []int {
	seen := map[int]bool{}
	var vars []int
	add := func(v int) {
		if v >= 0 && !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	}
	for i := 0; i < l; i++ {
		sc := p.steps[i].(*scanStep)
		for _, v := range sc.argVar {
			add(v)
		}
		add(sc.costVar)
	}
	return vars
}

// materializePrefix enumerates a prefix once on a throwaway pipeline
// compiled from the rule's first n steps and snapshots the projected
// rows. The enumeration is deterministic — unindexed scans walk
// insertion order, index buckets preserve it — so every worker at every
// parallelism level sees the identical buffer. Aborts (keeping per-rule
// evaluation) past the planner's size cap.
func materializePrefix(p *plan, n int, vars []int, db *relation.DB) ([][]val.T, bool) {
	rows := [][]val.T{}
	m := compileStream(p, p.steps[:n], nil).Acquire(exec.Config{DB: db})
	err := m.Run(func(m *exec.Machine) error {
		if len(rows) >= planner.MaxSharedRows {
			return errSharedTooBig
		}
		row := make([]val.T, len(vars))
		for i, v := range vars {
			row[i] = m.Vals[v]
		}
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, false
	}
	return rows, true
}
