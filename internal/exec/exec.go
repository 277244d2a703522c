// Package exec is the streaming relational-algebra executor and owns
// the compiled rule: internal/core's compiler emits each rule body as
// these operators (Step), and the fixpoint loops run them as lazy
// iterator pipelines.
//
// A rule body compiles to a left-deep operator tree whose operators are
// the classical relational algebra, specialised to lattice-valued
// relations (Ross & Sagiv, PODS 1992, §3):
//
//   - scan: an index-aware cursor over one relation. With bound
//     argument positions the cursor probes the relation's lazily built
//     hash index — the relation is the presized build side of a hash
//     join, the cursor the probe side — so a chain of scans is a
//     left-deep pipeline of hash joins (⋈). With no bound positions it
//     streams the full extension; for default-value predicates it is a
//     single point lookup (§2.3.2). The delta-aware variant drives the
//     join from the semi-naive Δ set (Config.RestrictIDs, row ids into
//     the scanned relation) instead of the full relation, so each
//     round's work is proportional to the change, not the model; the
//     restricted scan is always the pipeline's first step.
//   - select/σ: negative literals (Definition 3.4) and builtin
//     comparison tests filter the stream in place.
//   - project/π: variable binding against the registers projects each
//     row onto the rule's variables; duplicate eliminations happen at
//     the head relation, whose insert-join merges costs under the
//     lattice order rather than discarding duplicates.
//   - aggregate/γ: the monotonic cost aggregation of §2.4/§3 — matches
//     of the aggregate conjunction are grouped on the grouping
//     variables and each group's multiset is folded through the
//     aggregate function, whose monotonicity w.r.t. the lattice order
//     is what makes the fixpoint iteration sound (Lemma 4.1). In a γ Δ
//     pass the caller hands over the round's Δ (Config.AggDelta) and γ
//     derives the rest: the Δ rows of its conjuncts, projected onto the
//     group key (AggStep.KeyPos), are the changed groups, which it
//     re-enumerates, or, for a step compiled for the Δ-fold
//     (AggStep.Fold) over an aggregate that is the join of its range,
//     joins the changed rows' costs into instead (Config.AggSince). A
//     step whose conjuncts the Δ left alone runs whole.
//
// Pipelines pull one row at a time through stack-allocated cursors and
// write variable bindings into a preallocated register file, so steady
// state evaluation performs no per-row heap allocation. Machines (the
// mutable pipeline state) are pooled per compiled rule and acquired one
// per evaluation pass.
//
// These pipelines are the only evaluator: solves, the T_P and model
// checks, the instance-level stratification check and Provenance.Explain
// all run them. The reference for their behaviour is a tuple-at-a-time
// interpreter kept in internal/core's tests (oracle_test.go) — a direct
// reading of Definitions 3.4–3.7 over the same steps, so join and γ
// conjunction orders agree by construction, with the same error text.
// The T_P-fixpoint oracle tests there hold the pipelines to it.
package exec

import (
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/val"
)

// Regs is the register file of one pipeline: the value and bound flag
// of every rule variable, indexed by the plan's variable numbering. The
// pipeline terminal's callback reads the bindings in place (head
// projection).
type Regs struct {
	Vals  []val.T
	Bound []bool
}

// Atom is one compiled atom pattern: per non-cost position either a
// variable index or a constant, with the cost argument split out.
type Atom struct {
	Pred ast.PredKey
	// Num is the predicate's number in the Δ sets of the rule's
	// component (Delta.IDs).
	Num     int
	Info    *ast.PredInfo
	ArgVar  []int   // variable index per non-cost position, -1 for const
	ArgVal  []val.T // constant per non-cost position when ArgVar < 0
	CostVar int     // variable index of the cost argument, -1 if none/const
	CostVal val.T   // constant cost when CostVar < 0 and Info.HasCost
	// CDB marks predicates of the rule's own component (the semi-naive
	// drivers of its fixpoint).
	CDB bool
	// Wide marks atoms with more than 64 non-cost positions: the hash
	// index masks only the first 64, the rest are post-filtered.
	Wide bool
}

// StepKind discriminates the operator at one pipeline position.
type StepKind uint8

// The operator kinds.
const (
	ScanKind    StepKind = iota // positive literal: scan / hash-join probe
	NegKind                     // σ: negative literal test
	BuiltinKind                 // σ or binding: comparison / assignment
	AggKind                     // γ: lattice aggregate
)

// Step is one operator of a compiled rule body.
type Step struct {
	Kind    StepKind
	Atom    Atom // ScanKind, NegKind
	Builtin *BuiltinStep
	Agg     *AggStep
}

// BuiltinStep is a builtin comparison or definitional assignment with
// both sides compiled against the registers (NewBuiltin), in the mode
// its position fixes (At).
type BuiltinStep struct {
	B *ast.Builtin
	// Assign is the variable the assignment form "V = expr" binds, -1
	// for a pure test; def is then the defining side.
	Assign int
	// LVars and RVars are the registers each side reads.
	LVars, RVars []int
	l, r, def    *operand
}

// NewBuiltin compiles b against the registers idxOf numbers, as a test.
func NewBuiltin(b *ast.Builtin, idxOf func(ast.Var) int) *BuiltinStep {
	lv, rv := exprIdx(b.L.Vars(nil), idxOf), exprIdx(b.R.Vars(nil), idxOf)
	return &BuiltinStep{B: b, Assign: -1, LVars: lv, RVars: rv,
		l: compileOperand(b.L, idxOf), r: compileOperand(b.R, idxOf)}
}

func exprIdx(vs []ast.Var, idxOf func(ast.Var) int) []int {
	seen := map[ast.Var]bool{}
	var out []int
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, idxOf(v))
		}
	}
	return out
}

// Mode decides how the builtin runs under the bound set: as a test
// (assign -1) when every variable is bound, or as the assignment of the
// one unbound variable standing alone on one side of an equality whose
// other side is bound. ok is false when it cannot run yet.
func (s *BuiltinStep) Mode(bound []bool) (assign int, ok bool) {
	allBound := func(vs []int) bool {
		for _, v := range vs {
			if !bound[v] {
				return false
			}
		}
		return true
	}
	lb, rb := allBound(s.LVars), allBound(s.RVars)
	switch {
	case lb && rb:
		return -1, true
	case s.B.Op != ast.OpEq:
		return -1, false
	case s.l.reg >= 0 && !lb && rb:
		return s.l.reg, true
	case s.r.reg >= 0 && !rb && lb:
		return s.r.reg, true
	}
	return -1, false
}

// At returns the builtin in the mode Mode decides for the bound set
// before its position (a test when it cannot run).
func (s *BuiltinStep) At(bound []bool) *BuiltinStep {
	b := *s
	b.Assign, _ = s.Mode(bound)
	b.def = nil
	switch {
	case b.Assign < 0:
	case b.l.reg == b.Assign:
		b.def = b.r
	default:
		b.def = b.l
	}
	return &b
}

// Eval evaluates the builtin against a register file: the assignment
// form binds its variable (didBind), a test reports whether it holds.
// The pipelines and the reference interpreter both run it.
func (s *BuiltinStep) Eval(vals []val.T, bound []bool) (ok, didBind bool, err error) {
	if s.Assign >= 0 && !bound[s.Assign] {
		v, err := s.def.eval(vals, bound)
		if err != nil {
			return false, false, fmt.Errorf("core: builtin %s: %v", s.B, err)
		}
		vals[s.Assign] = v
		bound[s.Assign] = true
		return true, true, nil
	}
	l, err := s.l.eval(vals, bound)
	if err != nil {
		return false, false, fmt.Errorf("core: builtin %s: %v", s.B, err)
	}
	r, err := s.r.eval(vals, bound)
	if err != nil {
		return false, false, fmt.Errorf("core: builtin %s: %v", s.B, err)
	}
	res, err := ast.Compare(s.B.Op, l, r)
	if err != nil {
		return false, false, fmt.Errorf("core: builtin %s: %v", s.B, err)
	}
	return res, false, nil
}

// operand is a builtin expression compiled against the registers: a
// constant, a variable's register (resolved once, at compile time), or
// an arithmetic node over two operands. eval mirrors ast.EvalExpr,
// error text included.
type operand struct {
	reg  int     // register of a variable, -1 otherwise
	name ast.Var // the variable, for the unbound-variable error
	c    val.T   // the constant, when reg < 0 and l == nil
	op   ast.ArithOp
	l, r *operand // an arithmetic node's sides
}

func compileOperand(e ast.Expr, idxOf func(ast.Var) int) *operand {
	switch e := e.(type) {
	case ast.NumExpr:
		return &operand{reg: -1, c: val.Number(e.N)}
	case ast.ConstExpr:
		return &operand{reg: -1, c: e.V}
	case ast.VarExpr:
		return &operand{reg: idxOf(e.V), name: e.V}
	case *ast.BinExpr:
		return &operand{reg: -1, op: e.Op, l: compileOperand(e.L, idxOf), r: compileOperand(e.R, idxOf)}
	}
	panic(fmt.Sprintf("core: unknown expression %T", e))
}

func (o *operand) eval(vals []val.T, bound []bool) (val.T, error) {
	switch {
	case o.l != nil:
		l, err := o.l.eval(vals, bound)
		if err != nil {
			return val.T{}, err
		}
		r, err := o.r.eval(vals, bound)
		if err != nil {
			return val.T{}, err
		}
		return ast.Arith(o.op, l, r)
	case o.reg >= 0:
		if !bound[o.reg] {
			return val.T{}, fmt.Errorf("unbound variable %s in expression", o.name)
		}
		return vals[o.reg], nil
	}
	return o.c, nil
}

// AggStep is a γ operator: the aggregate subgoal G of Definition 2.4,
// evaluated by grouping the matches of Conj and folding each group's
// multiset through F.
type AggStep struct {
	G         *ast.Agg
	F         lattice.Aggregate
	Result    int   // variable index of the aggregate result
	GroupVars []int // variable indices of the grouping variables
	MsVar     int   // variable index of the multiset variable, -1 if none
	Conj      []Atom
	// OrderFull / OrderPoint are the conjunction orders for the grouped
	// mode (grouping variables unbound) and the point mode (grouping
	// variables bound), computed by the compiler for the step's
	// position. The binding pattern at any step is fixed by the plan, so
	// both orders — and any ordering failure — are known at compile
	// time; a recorded error surfaces on first use, exactly when the
	// reference interpreter raises it.
	OrderFull, OrderPoint       []int
	OrderFullErr, OrderPointErr error
	// KeyPos[ci][j] is the position of grouping variable j among the
	// non-cost arguments of conjunct ci; KeyPos[ci] is nil when the
	// conjunct lacks a grouping variable, and a Δ row of it then cannot
	// name the group it changed.
	KeyPos [][]int
	// Fold marks a step the compiler proved can run as a Δ-fold
	// (deltaGroups): F is the join of its range and the conjunction is
	// one atom whose non-cost arguments are distinct variables and whose
	// cost is the multiset variable.
	Fold bool
}

// Delta is a view of a semi-naive Δ set: per predicate, by its number
// (Atom.Num), the ids of the changed rows of its relation in the order
// they first changed (nil when none).
type Delta interface {
	IDs(num int) []int32
}

// Config is the per-pass evaluation context.
type Config struct {
	DB *relation.DB
	// RestrictIDs, when non-nil, drives the scan at pipeline position 0
	// from the Δ rows — ids of rows of the scanned relation — instead of
	// the whole relation: the delta-aware side of the join.
	RestrictIDs []int32
	// AggDelta, when non-nil, makes the pass a γ Δ pass: each γ step
	// emits only the groups the previous round's Δ rows of its conjuncts
	// project onto (deltaGroups), a Fold step joining those rows' costs,
	// and the costs of the rows AggSince (the current round's Δ so far,
	// which a Fold step requires) lists in the same groups, into each
	// group's last value. A γ step none of whose conjuncts changed, or
	// with a changed conjunct lacking a KeyPos, runs whole.
	AggDelta, AggSince Delta
	// Check, when non-nil, is polled at every pipeline terminal.
	Check func() error
}

// OpCounts is one pipeline step's operator counters: the cardinality
// and probe signals EXPLAIN ANALYZE renders. A Machine counts them for
// every run; the engine folds them into its per-rule work ledger.
type OpCounts struct {
	// In counts rows entering the step (invocations of the operator);
	// Out counts rows it passed downstream — for the last step, the
	// pipeline's firings.
	In  int64 `json:"in"`
	Out int64 `json:"out"`
	// Probes counts index probes the step performed: rows offered by its
	// cursor, or Δ rows offered by the restricted scan.
	Probes int64 `json:"probes"`
	// Build is the size of the largest indexed relation the step
	// consulted — the build side of the hash join it probes.
	Build int64 `json:"build"`
	// Delta counts Δ rows offered when this step drove a semi-naive
	// pass (the delta-aware side of the join).
	Delta int64 `json:"delta,omitempty"`
	// Groups counts aggregate groups a γ step emitted (the changed
	// groups under Δ restriction).
	Groups int64 `json:"groups,omitempty"`
}

// Add folds src into c (Build by maximum — it is a high-water mark,
// not a flow count).
func (c *OpCounts) Add(src OpCounts) {
	c.In += src.In
	c.Out += src.Out
	c.Probes += src.Probes
	c.Delta += src.Delta
	c.Groups += src.Groups
	if src.Build > c.Build {
		c.Build = src.Build
	}
}

// Rule is one compiled pipeline, shared read-only by every Machine
// evaluating it. Machines are pooled: Acquire one per evaluation pass.
// The pool is a plain free list, not a sync.Pool: it holds as many
// machines as passes of the rule ever ran at once (one, on the component
// walk), and a garbage collection does not empty it, so a solve's
// allocations do not depend on when collections happen.
type Rule struct {
	NVars int
	Steps []Step
	mu    sync.Mutex
	free  []*Machine
}

// Machine is the mutable state of one pipeline evaluation: the register
// file, per-step cursor scratch and operator counters, and the firing
// count the engine aggregates after each pass.
type Machine struct {
	Regs
	rule    *Rule
	cfg     Config
	emit    func(*Machine) error
	states  []stepState
	Firings int64
}

// scanState is the per-atom mutable scratch: the backtracking list of
// newly bound variables, an argument buffer for point lookups and index
// probes, and the atom's relation, resolved on its first use in a pass
// (relOf) so that opening a cursor looks no predicate up.
type scanState struct {
	sbuf []int
	args []val.T
	rel  *relation.Relation
}

// relOf returns at's relation in the pass's DB, caching it in st.
func (m *Machine) relOf(at *Atom, st *scanState) *relation.Relation {
	if st.rel == nil {
		st.rel = m.cfg.DB.Rel(at.Pred)
	}
	return st.rel
}

// forgetPass drops what a pass cached: every relation (the next pass may
// run over another DB, and a pooled machine must not pin one) and every
// γ step's changed groups.
func (m *Machine) forgetPass() {
	for i := range m.states {
		st := &m.states[i]
		st.rel = nil
		if st.agg != nil {
			st.agg.derived = false
			for ci := range st.agg.conj {
				st.agg.conj[ci].rel = nil
			}
		}
	}
}

func (st *scanState) init(at *Atom) {
	st.sbuf = make([]int, 0, len(at.ArgVar)+1)
	st.args = make([]val.T, len(at.ArgVar))
}

// stepState is one pipeline position's scratch and its operator
// counters for the current run.
type stepState struct {
	scanState
	agg *aggState
	n   OpCounts
}

// aggState is the reusable γ scratch: the point-mode multiset buffer,
// the groups (in first-occurrence order) with one multiset buffer per
// group, the Δ-fold's per-group accumulators, and key / binding scratch.
// groups holds the grouped mode's groups, or, in a pass that restricts
// the step (restrict), the changed groups: the restricted pass runs the
// point mode only, so it never needs both. derived marks groups, acc and
// restrict as computed for the current pass.
type aggState struct {
	keyScratch []val.T
	elems      []lattice.Elem
	groups     relation.GroupSet
	groupElems [][]lattice.Elem
	acc        []foldAcc
	derived    bool
	restrict   bool
	groupSaved []int
	emitSaved  []int
	conj       []scanState
}

// foldAcc is one Δ-fold group's accumulator: the join of its rows'
// costs so far and the row id that element came from.
type foldAcc struct {
	e  lattice.Elem
	id int32
}

// NewRule wraps a compiled rule body over nvars registers as a
// pipeline. Steps must not be mutated afterwards.
func NewRule(nvars int, steps []Step) *Rule {
	return &Rule{NVars: nvars, Steps: steps}
}

// Acquire returns a Machine for one evaluation pass, creating one if
// the pool is empty. Counters are reset; cfg is installed.
func (r *Rule) Acquire(cfg Config) *Machine {
	var m *Machine
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		m, r.free = r.free[n-1], r.free[:n-1]
	}
	r.mu.Unlock()
	if m == nil {
		m = r.newMachine()
	}
	m.cfg = cfg
	m.Firings = 0
	for i := range m.states {
		m.states[i].n = OpCounts{}
	}
	m.forgetPass()
	return m
}

// Counts returns the run's counters for pipeline step i with the flow
// field resolved: a step's Out is the next step's In, the last step's
// Out the run's firings.
func (m *Machine) Counts(i int) OpCounts {
	c := m.states[i].n
	if i+1 < len(m.states) {
		c.Out = m.states[i+1].n.In
	} else {
		c.Out = m.Firings
	}
	return c
}

// Release returns a Machine to the pool, dropping references into the
// pass's context so pooled machines never pin a database.
func (r *Rule) Release(m *Machine) {
	m.cfg = Config{}
	m.emit = nil
	m.forgetPass()
	r.mu.Lock()
	r.free = append(r.free, m)
	r.mu.Unlock()
}

func (r *Rule) newMachine() *Machine {
	m := &Machine{rule: r}
	m.Vals = make([]val.T, r.NVars)
	m.Bound = make([]bool, r.NVars)
	m.states = make([]stepState, len(r.Steps))
	for i := range r.Steps {
		s := &r.Steps[i]
		switch s.Kind {
		case ScanKind, NegKind:
			m.states[i].init(&s.Atom)
		case AggKind:
			a := s.Agg
			ag := &aggState{
				keyScratch: make([]val.T, len(a.GroupVars)),
				groupSaved: make([]int, 0, len(a.GroupVars)),
				emitSaved:  make([]int, 0, len(a.GroupVars)+1),
				conj:       make([]scanState, len(a.Conj)),
			}
			for ci := range a.Conj {
				ag.conj[ci].init(&a.Conj[ci])
			}
			m.states[i].agg = ag
		}
	}
	return m
}

// Run pulls every satisfying assignment of the pipeline through emit.
// The registers are valid for the duration of each emit call only.
// Registers the caller bound before Run stay bound throughout: every
// step probes on, tests against or groups by whatever is bound when it
// runs, so a run with the head's arguments bound enumerates only the
// instances deriving that head. Each step unbinds what it bound, so a
// run leaves the register file as it found it.
func (m *Machine) Run(emit func(*Machine) error) error {
	m.emit = emit
	err := m.runStep(0)
	m.emit = nil
	return err
}

func (m *Machine) runStep(i int) error {
	if i == len(m.rule.Steps) {
		m.Firings++
		if m.cfg.Check != nil {
			if err := m.cfg.Check(); err != nil {
				return err
			}
		}
		return m.emit(m)
	}
	m.states[i].n.In++
	s := &m.rule.Steps[i]
	switch s.Kind {
	case ScanKind:
		return m.runScan(i, s)
	case NegKind:
		return m.runNeg(i, s)
	case BuiltinKind:
		ok, didBind, err := s.Builtin.Eval(m.Vals, m.Bound)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		err = m.runStep(i + 1)
		if didBind {
			m.Bound[s.Builtin.Assign] = false
		}
		return err
	case AggKind:
		if m.cfg.AggDelta == nil || !m.deltaGroups(i, s.Agg) {
			return m.runAgg(i, s.Agg, nil)
		}
		if s.Agg.Fold {
			return m.emitFold(i, s.Agg)
		}
		return m.runAgg(i, s.Agg, &m.states[i].agg.groups)
	}
	return fmt.Errorf("exec: unknown step kind %d", s.Kind)
}

// runScan drives the pipeline tail from one positive literal: the Δ
// rows when this step is the semi-naive driver, a cursor otherwise.
func (m *Machine) runScan(i int, s *Step) error {
	at := &s.Atom
	st := &m.states[i].scanState
	if m.cfg.RestrictIDs != nil && i == 0 {
		rel := m.relOf(at, st)
		var row relation.Row
		for _, id := range m.cfg.RestrictIDs {
			// Load reads the row's current cost: a Δ row improved again
			// later in the same round is offered at its latest value.
			rel.Load(int(id), &row)
			m.states[i].n.Probes++
			m.states[i].n.Delta++
			saved, ok := m.bindRow(at, st, &row)
			if !ok {
				continue
			}
			err := m.runStep(i + 1)
			m.unbind(saved)
			if err != nil {
				return err
			}
		}
		return nil
	}
	var c cursor
	m.open(&c, at, st, i)
	for {
		row, ok := m.next(&c, at, i)
		if !ok {
			return nil
		}
		saved, ok := m.bindRow(at, st, row)
		if !ok {
			continue
		}
		err := m.runStep(i + 1)
		m.unbind(saved)
		if err != nil {
			return err
		}
	}
}

// runNeg implements Definition 3.4's ¬p as a σ over the stream: the
// fully instantiated atom must be absent from the interpretation. The
// error text matches the reference interpreter's.
func (m *Machine) runNeg(i int, s *Step) error {
	at := &s.Atom
	st := &m.states[i].scanState
	rel := m.relOf(at, st)
	args := st.args
	for j, v := range at.ArgVar {
		if v >= 0 {
			if !m.Bound[v] {
				return fmt.Errorf("core: unbound variable in negation on %s", at.Pred)
			}
			args[j] = m.Vals[v]
		} else {
			args[j] = at.ArgVal[j]
		}
	}
	row, present := rel.Get(args)
	if !present && at.Info.HasDefault {
		row = relation.Row{Args: args, Cost: at.Info.L.Bottom(), HasCost: true}
		present = true
	}
	if !present {
		return m.runStep(i + 1)
	}
	if !at.Info.HasCost {
		return nil
	}
	want := at.CostVal
	if at.CostVar >= 0 {
		if !m.Bound[at.CostVar] {
			return fmt.Errorf("core: unbound cost variable in negation on %s", at.Pred)
		}
		want = m.Vals[at.CostVar]
	}
	if !lattice.Eq(at.Info.L, row.Cost, want) {
		return m.runStep(i + 1)
	}
	return nil
}

// cursor is a lazy row iterator over one atom scan: a full-extension
// stream, an index-chain probe (the probe side of a hash join), or a
// default-value point lookup. Cursors live on the stack; open snapshots
// the iteration space (the relation's length, for both streams and
// chains) so rows derived downstream mid-iteration are not re-offered,
// matching Match/Each.
type cursor struct {
	rel    *relation.Relation
	mode   uint8
	pos, n int
	chain  relation.Cursor
	row    relation.Row
	done   bool
}

const (
	curFull uint8 = iota
	curChain
	curPoint
)

// open positions c over the rows of at matching the currently bound
// registers. step is the pipeline position the cursor's counters go to
// (the γ step's for aggregate-conjunction cursors); open records the
// relation's size as that step's build side.
func (m *Machine) open(c *cursor, at *Atom, st *scanState, step int) {
	rel := m.relOf(at, st)
	c.rel = rel
	if n := int64(rel.Len()); n > m.states[step].n.Build {
		m.states[step].n.Build = n
	}
	args := st.args
	if at.Info.HasDefault {
		// Point lookup (the compiler guarantees the non-cost arguments
		// are bound); a miss synthesizes the default (bottom) row.
		for j, v := range at.ArgVar {
			if v >= 0 {
				args[j] = m.Vals[v]
			} else {
				args[j] = at.ArgVal[j]
			}
		}
		row, ok := rel.Get(args)
		if !ok {
			row = relation.Row{Args: args, Cost: at.Info.L.Bottom(), HasCost: true}
		}
		c.mode = curPoint
		c.row = row
		c.done = false
		return
	}
	// The bound positions (below 64) form the index mask; their values
	// go into the argument buffer the index hashes and compares.
	var mask uint64
	for j, v := range at.ArgVar {
		if j >= 64 {
			break
		}
		switch {
		case v < 0:
			args[j] = at.ArgVal[j]
		case m.Bound[v]:
			args[j] = m.Vals[v]
		default:
			continue
		}
		mask |= 1 << uint(j)
	}
	if mask == 0 {
		c.mode = curFull
		c.pos, c.n = 0, rel.Len()
		return
	}
	c.mode = curChain
	c.chain = rel.Seek(mask, args)
}

// next pulls the next candidate row into c.row, counting a probe per
// row offered (after the wide-atom post-filter, before binding — the
// same accounting as relation.Match), attributed to pipeline position
// step. The row is valid until the next call.
func (m *Machine) next(c *cursor, at *Atom, step int) (*relation.Row, bool) {
	switch c.mode {
	case curPoint:
		if c.done {
			return nil, false
		}
		c.done = true
		m.states[step].n.Probes++
		return &c.row, true
	case curFull:
		if c.pos >= c.n {
			return nil, false
		}
		c.rel.Load(c.pos, &c.row)
		c.pos++
		m.states[step].n.Probes++
		return &c.row, true
	default:
		for {
			id, ok := c.chain.Next()
			if !ok {
				return nil, false
			}
			c.rel.Load(id, &c.row)
			if at.Wide && !m.postMatch(at, &c.row) {
				continue
			}
			m.states[step].n.Probes++
			return &c.row, true
		}
	}
}

// postMatch checks bound positions beyond the index mask's 64-position
// horizon.
func (m *Machine) postMatch(at *Atom, row *relation.Row) bool {
	for j := 64; j < len(at.ArgVar); j++ {
		v := at.ArgVar[j]
		switch {
		case v < 0:
			if !val.Equal(row.Args[j], at.ArgVal[j]) {
				return false
			}
		case m.Bound[v]:
			if !val.Equal(row.Args[j], m.Vals[v]) {
				return false
			}
		}
	}
	return true
}

// bindRow projects a row onto the registers (π), unifying constants and
// already-bound variables; saved lists the newly bound indices for
// backtracking.
func (m *Machine) bindRow(at *Atom, st *scanState, row *relation.Row) (saved []int, ok bool) {
	saved = st.sbuf[:0]
	for j, v := range at.ArgVar {
		got := row.Args[j]
		if v < 0 {
			if !val.Equal(at.ArgVal[j], got) {
				m.unbind(saved)
				return nil, false
			}
			continue
		}
		if m.Bound[v] {
			if !val.Equal(m.Vals[v], got) {
				m.unbind(saved)
				return nil, false
			}
			continue
		}
		m.Vals[v] = got
		m.Bound[v] = true
		saved = append(saved, v)
	}
	if at.Info.HasCost {
		got := row.Cost
		if at.CostVar < 0 {
			if !lattice.Eq(at.Info.L, at.CostVal, got) {
				m.unbind(saved)
				return nil, false
			}
		} else if m.Bound[at.CostVar] {
			if !lattice.Eq(at.Info.L, m.Vals[at.CostVar], got) {
				m.unbind(saved)
				return nil, false
			}
		} else {
			m.Vals[at.CostVar] = got
			m.Bound[at.CostVar] = true
			saved = append(saved, at.CostVar)
		}
	}
	return saved, true
}

func (m *Machine) unbind(saved []int) {
	for _, v := range saved {
		m.Bound[v] = false
	}
}

// runAgg evaluates a γ step in one of three modes: Δ-grouped (bind each
// changed group, recurse in point mode — lazily, so each group's
// enumeration sees the facts earlier groups derived), point (single
// group, possibly Δ-filtered), and full grouped enumeration. Both grouped
// modes emit groups in first-occurrence order: the changed groups in the
// order the Δ rows list them, the full run's in enumeration order — a
// function of the relations' row order, which is the same at every
// worker count.
func (m *Machine) runAgg(idx int, s *AggStep, onlyGroups *relation.GroupSet) error {
	st := m.states[idx].agg
	allBound := true
	for _, v := range s.GroupVars {
		if !m.Bound[v] {
			allBound = false
			break
		}
	}
	if !allBound && !s.G.Restricted {
		return fmt.Errorf("core: total aggregate %s with unbound grouping variables", s.G)
	}

	if onlyGroups != nil && !allBound {
		for g := 0; g < onlyGroups.Len(); g++ {
			key := onlyGroups.At(g)
			saved := st.groupSaved[:0]
			ok := true
			for j, v := range s.GroupVars {
				if m.Bound[v] {
					if !val.Equal(m.Vals[v], key[j]) {
						ok = false
						break
					}
					continue
				}
				m.Vals[v] = key[j]
				m.Bound[v] = true
				saved = append(saved, v)
			}
			if ok {
				if err := m.runAgg(idx, s, nil); err != nil {
					m.unbind(saved)
					return err
				}
			}
			m.unbind(saved)
		}
		return nil
	}

	if allBound && onlyGroups != nil {
		for j, v := range s.GroupVars {
			st.keyScratch[j] = m.Vals[v]
		}
		if onlyGroups.Find(st.keyScratch) < 0 {
			return nil
		}
	}

	order, orderErr := s.OrderFull, s.OrderFullErr
	if allBound {
		order, orderErr = s.OrderPoint, s.OrderPointErr
	}
	if orderErr != nil {
		return orderErr
	}

	if allBound {
		st.elems = st.elems[:0]
		if err := m.enumConj(idx, s, st, order, 0, true); err != nil {
			return err
		}
		return m.emitGroup(idx, s, st, nil, st.elems)
	}

	st.groups.Reset(len(s.GroupVars))
	if err := m.enumConj(idx, s, st, order, 0, false); err != nil {
		return err
	}
	for g := 0; g < st.groups.Len(); g++ {
		if err := m.emitGroup(idx, s, st, st.groups.At(g), st.groupElems[g]); err != nil {
			return err
		}
	}
	return nil
}

// deltaGroups derives, once per pass, the groups of γ step s that the
// pass's Δ changed: the Config.AggDelta rows of each conjunct projected
// onto the group key (KeyPos), in first-occurrence order, conjunct by
// conjunct. It reports whether the step restricts to them: false when no
// conjunct changed, or when a changed one lacks a KeyPos (the step then
// runs whole).
//
// A Fold step also joins, per group, the current costs of its Δ rows and
// of the rows changed earlier in the current round (Config.AggSince)
// whose group is among them. F is the join of its range and costs only
// rise, so that is each changed group's value: its last value joined
// with what changed since. Of two equal elements it keeps the lower row
// id's, the one F.Apply keeps when it enumerates a group in row-id
// order. Every row a fold reads is a probe, and the AggDelta rows are
// also counted as Δ.
func (m *Machine) deltaGroups(idx int, s *AggStep) bool {
	st := m.states[idx].agg
	if st.derived {
		return st.restrict
	}
	st.derived, st.restrict = true, false
	st.groups.Reset(len(s.GroupVars))
	st.acc = st.acc[:0]
	n := &m.states[idx].n
	var row relation.Row
	for ci := range s.Conj {
		at := &s.Conj[ci]
		ids := m.cfg.AggDelta.IDs(at.Num)
		if len(ids) == 0 {
			continue
		}
		pos := s.KeyPos[ci]
		if pos == nil {
			st.restrict = false
			return false
		}
		st.restrict = true
		rel := m.relOf(at, &st.conj[ci])
		for _, id := range ids {
			g, added := st.groups.Add(st.project(rel, id, pos, &row))
			if s.Fold {
				n.Probes++
				n.Delta++
				st.fold(s.F.Range(), g, added, id, row.Cost)
			}
		}
	}
	if !s.Fold || !st.restrict {
		return st.restrict
	}
	at := &s.Conj[0]
	rel := m.relOf(at, &st.conj[0])
	if l := int64(rel.Len()); l > n.Build {
		n.Build = l
	}
	for _, id := range m.cfg.AggSince.IDs(at.Num) {
		n.Probes++
		if g := st.groups.Find(st.project(rel, id, s.KeyPos[0], &row)); g >= 0 {
			st.fold(s.F.Range(), g, false, id, row.Cost)
		}
	}
	return true
}

// project loads row id of rel into row and returns its group key: the
// non-cost arguments at pos, in keyScratch.
func (st *aggState) project(rel *relation.Relation, id int32, pos []int, row *relation.Row) []val.T {
	rel.Load(int(id), row)
	for j, a := range pos {
		st.keyScratch[j] = row.Args[a]
	}
	return st.keyScratch
}

// fold joins element e of row id into group g's accumulator, which a new
// group starts.
func (st *aggState) fold(l lattice.Lattice, g int, added bool, id int32, e lattice.Elem) {
	if added {
		st.acc = append(st.acc, foldAcc{e, id})
		return
	}
	switch acc := &st.acc[g]; {
	case !l.Leq(e, acc.e):
		*acc = foldAcc{l.Join(acc.e, e), id}
	case l.Leq(acc.e, e) && id < acc.id:
		*acc = foldAcc{e, id}
	}
}

// emitFold continues the pipeline once per group a Fold step's
// deltaGroups folded, bound to the group's accumulated value, so firings
// and the Check poll stay the machine's.
func (m *Machine) emitFold(idx int, s *AggStep) error {
	st := m.states[idx].agg
	for g := 0; g < st.groups.Len(); g++ {
		m.states[idx].n.Groups++
		for j, v := range s.GroupVars {
			m.Vals[v], m.Bound[v] = st.groups.At(g)[j], true
		}
		m.Vals[s.Result], m.Bound[s.Result] = st.acc[g].e, true
		err := m.runStep(idx + 1)
		for _, v := range s.GroupVars {
			m.Bound[v] = false
		}
		m.Bound[s.Result] = false
		if err != nil {
			return err
		}
	}
	return nil
}

// enumConj enumerates the aggregate conjunction in the given order,
// collecting each match's multiset element into the point buffer or the
// group table.
func (m *Machine) enumConj(idx int, s *AggStep, st *aggState, order []int, d int, point bool) error {
	if d == len(order) {
		var el lattice.Elem
		if s.MsVar >= 0 {
			el = m.Vals[s.MsVar]
		} else {
			// Implicit boolean cost: each match contributes one "true".
			el = val.Boolean(true)
		}
		if point {
			st.elems = append(st.elems, el)
			return nil
		}
		for j, v := range s.GroupVars {
			st.keyScratch[j] = m.Vals[v]
		}
		g, added := st.groups.Add(st.keyScratch)
		switch {
		case g == len(st.groupElems):
			st.groupElems = append(st.groupElems, nil)
		case added:
			st.groupElems[g] = st.groupElems[g][:0]
		}
		st.groupElems[g] = append(st.groupElems[g], el)
		return nil
	}
	at := &s.Conj[order[d]]
	cs := &st.conj[order[d]]
	var c cursor
	m.open(&c, at, cs, idx)
	for {
		row, ok := m.next(&c, at, idx)
		if !ok {
			return nil
		}
		saved, ok := m.bindRow(at, cs, row)
		if !ok {
			continue
		}
		err := m.enumConj(idx, s, st, order, d+1, point)
		m.unbind(saved)
		if err != nil {
			return err
		}
	}
}

// emitGroup folds one group's multiset through the aggregate and, when
// defined and consistent with the registers, continues the pipeline.
func (m *Machine) emitGroup(idx int, s *AggStep, st *aggState, keyVals []val.T, elems []lattice.Elem) error {
	if s.G.Restricted && len(elems) == 0 {
		return nil
	}
	m.states[idx].n.Groups++
	res, ok := s.F.Apply(elems)
	if !ok {
		// Undefined aggregate (e.g. avg of the empty multiset in the
		// total form): the ground instance is simply unsatisfied.
		return nil
	}
	saved := st.emitSaved[:0]
	for j, v := range s.GroupVars {
		if !m.Bound[v] {
			m.Vals[v] = keyVals[j]
			m.Bound[v] = true
			saved = append(saved, v)
		}
	}
	if m.Bound[s.Result] {
		if !lattice.Eq(s.F.Range(), m.Vals[s.Result], res) {
			m.unbind(saved)
			return nil
		}
	} else {
		m.Vals[s.Result] = res
		m.Bound[s.Result] = true
		saved = append(saved, s.Result)
	}
	err := m.runStep(idx + 1)
	m.unbind(saved)
	return err
}
