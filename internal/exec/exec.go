// Package exec is the streaming relational-algebra executor, the one
// executor the engine's fixpoint loops run: it evaluates compiled rule
// bodies as lazy iterator pipelines.
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
//     round's work is proportional to the change, not the model.
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
//     is what makes the fixpoint iteration sound (Lemma 4.1).
//
// Pipelines pull one row at a time through stack-allocated cursors and
// write variable bindings into a preallocated register file, so steady
// state evaluation performs no per-row heap allocation. Machines (the
// mutable pipeline state) are pooled per compiled rule and acquired one
// per evaluation pass.
//
// The reference for its behaviour is the tuple-at-a-time interpreter in
// internal/core/eval.go — a direct reading of Definitions 3.4–3.7 that
// runs no solve: it is the test oracle (Engine.TP, IsModel) and the
// re-deriver behind Provenance.Explain. Same join order, same enumeration
// order, same error text. The T_P-fixpoint
// oracle test in internal/core holds the pipelines to it.
package exec

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ast"
	"repro/internal/lattice"
	"repro/internal/relation"
	"repro/internal/val"
)

// Regs is the register file of one pipeline: the value and bound flag
// of every rule variable, indexed by the plan's variable numbering. The
// host aliases these slices to capture bindings at the pipeline
// terminal (head projection).
type Regs struct {
	Vals  []val.T
	Bound []bool
}

// Atom is one compiled atom pattern: per non-cost position either a
// variable index or a constant, with the cost argument split out. It
// mirrors core's atomSpec.
type Atom struct {
	Pred    ast.PredKey
	Info    *ast.PredInfo
	ArgVar  []int   // variable index per non-cost position, -1 for const
	ArgVal  []val.T // constant per non-cost position when ArgVar < 0
	CostVar int     // variable index of the cost argument, -1 if none/const
	CostVal val.T   // constant cost when CostVar < 0 and Info.HasCost
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

// Step is one operator of a compiled pipeline.
type Step struct {
	Kind    StepKind
	Atom    Atom // ScanKind, NegKind
	Builtin *BuiltinStep
	Agg     *AggStep
}

// BuiltinStep is a builtin comparison or definitional assignment. Its
// evaluation (expression language, error text) belongs to the host, so
// it runs through Hooks.Builtin; the executor only needs to know which
// variable an assignment form binds, to undo it on backtrack.
type BuiltinStep struct {
	Assign int // variable bound by the assignment form, -1 for a pure test
}

// AggStep is a γ operator: the aggregate subgoal of Definition 2.4,
// evaluated by grouping the matches of Conj and folding each group's
// multiset through Apply.
type AggStep struct {
	G          *ast.Agg
	Restricted bool
	Result     int   // variable index of the aggregate result
	GroupVars  []int // variable indices of the grouping variables
	MsVar      int   // variable index of the multiset variable, -1 if none
	Conj       []Atom
	Apply      func([]lattice.Elem) (lattice.Elem, bool)
	Range      lattice.Lattice // lattice of the result (for the bound-result check)
	// OrderFull / OrderPoint are the compile-time conjunction orders for
	// the grouped mode (grouping variables unbound) and the point mode
	// (grouping variables bound). The binding pattern at any step is
	// fixed by the plan, so both orders — and any ordering failure — are
	// known at compile time; a recorded error surfaces on first use,
	// exactly when the reference interpreter would raise it.
	OrderFull, OrderPoint       []int
	OrderFullErr, OrderPointErr error
}

// Hooks are the host-side callbacks a pipeline needs: builtin
// evaluation runs against host state that the host caches in
// Machine.Aux from Init.
type Hooks struct {
	// Init is called once per new Machine, before its first run.
	Init func(m *Machine)
	// Builtin evaluates the builtin at step i against the registers,
	// binding the assignment variable when applicable; didBind reports
	// that it did (the machine unbinds on backtrack).
	Builtin func(m *Machine, i int) (ok, didBind bool, err error)
}

// GroupRef identifies one changed aggregate group without copying its
// grouping values: Args is a Δ row's argument tuple (owned by the
// relation, immutable) and Pos is the compile-time projection onto the
// grouping variables, so Args[Pos[j]] is the value of grouping variable
// j. Referencing rather than copying keeps the per-round group-change
// computation free of per-group slice allocations.
type GroupRef struct {
	Args []val.T
	Pos  []int
}

// At returns the value of grouping variable j.
func (g GroupRef) At(j int) val.T { return g.Args[g.Pos[j]] }

// Config is the per-pass evaluation context.
type Config struct {
	DB *relation.DB
	// RestrictStep/RestrictIDs, when RestrictIDs is non-nil, drive the
	// scan at that pipeline position from the Δ rows — ids of rows of the
	// scanned relation — instead of the whole relation: the delta-aware
	// side of the join.
	RestrictStep int
	RestrictIDs  []int32
	// AggGroups, per γ step index, restricts that aggregate to the
	// listed changed groups (key -> grouping-value reference).
	AggGroups map[int]map[string]GroupRef
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
type Rule struct {
	NVars int
	Steps []Step
	Hooks Hooks
	pool  sync.Pool
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
	kbuf    []byte // γ group-key scratch; every use is consumed before the next
	Firings int64
	// Aux holds host state cached by Hooks.Init (e.g. the host
	// environment aliasing Regs).
	Aux any
}

// scanState is the per-atom mutable scratch: the backtracking list of
// newly bound variables and an argument buffer for point lookups and
// index probes.
type scanState struct {
	sbuf []int
	args []val.T
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
// the grouped-mode group table, and sorted-key / binding scratch.
type aggState struct {
	keys       []string
	keyScratch []val.T
	elems      []lattice.Elem
	groups     map[string]*aggGroup
	groupSaved []int
	emitSaved  []int
	conj       []scanState
}

type aggGroup struct {
	keyVals []val.T
	elems   []lattice.Elem
}

// NewRule wraps a compiled pipeline. Steps and hooks must not be
// mutated afterwards.
func NewRule(nvars int, steps []Step, hooks Hooks) *Rule {
	return &Rule{NVars: nvars, Steps: steps, Hooks: hooks}
}

// Acquire returns a Machine for one evaluation pass, creating one if
// the pool is empty. Counters are reset; cfg is installed.
func (r *Rule) Acquire(cfg Config) *Machine {
	m, _ := r.pool.Get().(*Machine)
	if m == nil {
		m = r.newMachine()
	}
	m.cfg = cfg
	m.Firings = 0
	for i := range m.states {
		m.states[i].n = OpCounts{}
	}
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
	r.pool.Put(m)
}

func (r *Rule) newMachine() *Machine {
	m := &Machine{rule: r}
	m.Vals = make([]val.T, r.NVars)
	m.Bound = make([]bool, r.NVars)
	m.kbuf = make([]byte, 0, 64)
	m.states = make([]stepState, len(r.Steps))
	for i := range r.Steps {
		s := &r.Steps[i]
		switch s.Kind {
		case ScanKind, NegKind:
			m.states[i].init(&s.Atom)
		case AggKind:
			a := s.Agg
			ag := &aggState{
				groups:     map[string]*aggGroup{},
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
	if r.Hooks.Init != nil {
		r.Hooks.Init(m)
	}
	return m
}

// Run pulls every satisfying assignment of the pipeline through emit.
// The registers are valid for the duration of each emit call only.
func (m *Machine) Run(emit func(*Machine) error) error {
	for i := range m.Bound {
		m.Bound[i] = false
	}
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
		ok, didBind, err := m.rule.Hooks.Builtin(m, i)
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
		return m.runAgg(i, s.Agg, m.cfg.AggGroups[i])
	}
	return fmt.Errorf("exec: unknown step kind %d", s.Kind)
}

// runScan drives the pipeline tail from one positive literal: the Δ
// rows when this step is the semi-naive driver, a cursor otherwise.
func (m *Machine) runScan(i int, s *Step) error {
	at := &s.Atom
	st := &m.states[i].scanState
	if m.cfg.RestrictIDs != nil && i == m.cfg.RestrictStep {
		rel := m.cfg.DB.Rel(at.Pred)
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
	rel := m.cfg.DB.Rel(at.Pred)
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
	rel := m.cfg.DB.Rel(at.Pred)
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

// runAgg evaluates a γ step in one of three modes: Δ-grouped (bind each changed group, recurse
// in point mode — lazily, so each group's enumeration sees the facts
// earlier groups derived), point (single group, possibly Δ-filtered),
// and full grouped enumeration in sorted group order.
func (m *Machine) runAgg(idx int, s *AggStep, onlyGroups map[string]GroupRef) error {
	st := m.states[idx].agg
	allBound := true
	for _, v := range s.GroupVars {
		if !m.Bound[v] {
			allBound = false
			break
		}
	}
	if !allBound && !s.Restricted {
		return fmt.Errorf("core: total aggregate %s with unbound grouping variables", s.G)
	}

	if onlyGroups != nil && !allBound {
		st.keys = st.keys[:0]
		for k := range onlyGroups {
			st.keys = append(st.keys, k)
		}
		sort.Strings(st.keys)
		for _, gk := range st.keys {
			ref := onlyGroups[gk]
			saved := st.groupSaved[:0]
			ok := true
			for j, v := range s.GroupVars {
				if m.Bound[v] {
					if !val.Equal(m.Vals[v], ref.At(j)) {
						ok = false
						break
					}
					continue
				}
				m.Vals[v] = ref.At(j)
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
		m.kbuf = val.AppendKeyOf(m.kbuf[:0], st.keyScratch)
		if _, ok := onlyGroups[string(m.kbuf)]; !ok {
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

	clear(st.groups)
	if err := m.enumConj(idx, s, st, order, 0, false); err != nil {
		return err
	}
	st.keys = st.keys[:0]
	for k := range st.groups {
		st.keys = append(st.keys, k)
	}
	sort.Strings(st.keys)
	for _, gk := range st.keys {
		g := st.groups[gk]
		if err := m.emitGroup(idx, s, st, g.keyVals, g.elems); err != nil {
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
		m.kbuf = val.AppendKeyOf(m.kbuf[:0], st.keyScratch)
		g := st.groups[string(m.kbuf)]
		if g == nil {
			g = &aggGroup{keyVals: append([]val.T{}, st.keyScratch...)}
			st.groups[string(m.kbuf)] = g
		}
		g.elems = append(g.elems, el)
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
	if s.Restricted && len(elems) == 0 {
		return nil
	}
	m.states[idx].n.Groups++
	res, ok := s.Apply(elems)
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
		if !lattice.Eq(s.Range, m.Vals[s.Result], res) {
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
