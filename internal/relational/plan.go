package relational

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// This file is the query planner: a parsed SELECT is compiled once into a
// plan of closures that read the columnar storage directly — column
// references resolve to (level, column-position) at plan time, predicates
// specialize on the column kinds they touch (typed comparisons, prepared
// LIKE matchers, IN-list hash sets), and projection is a straight column
// gather. Execution then runs the closures with zero per-row name
// resolution and zero per-row allocation outside result rows.

// plan is a fully compiled SELECT, safe for concurrent reuse: all mutable
// execution state lives in execState (pooled across executions).
type plan struct {
	stmt       *SelectStmt
	tables     []*Table
	levelPreds [][]levelPred
	access     []*indexAccess
	// floors[lvl] holds the level's scan-floor conjuncts ("col >= bound"
	// over an int column); the full-scan path starts at the binary-searched
	// first in-range row when the column is ascending-sorted.
	floors [][]scanFloor
	// hashJoins[lvl], set only on full-scanned levels with a usable join
	// equality, is the level's adaptive hash-join candidate (see
	// hashjoin.go).
	hashJoins []*hashJoin
	cols      []string
	project   projFn

	statePool sync.Pool
}

// levelPred is one compiled WHERE conjunct attached to a nested-loop
// level: either a vectorized batch kernel (vec) or a row-at-a-time closure
// (row). Exactly one is set.
type levelPred struct {
	vec *vecPred
	row predFn
	// active, when non-nil, gates the predicate per execution: an inactive
	// predicate is skipped entirely, as if the statement had been compiled
	// without the conjunct (Optional ParamIDs with no bound list, Prune
	// Param bound to zero).
	active func(st *execState) bool
}

// isActive reports whether the predicate applies to this execution.
func (lp *levelPred) isActive(st *execState) bool {
	return lp.active == nil || lp.active(st)
}

// pruneGate returns the activity gate of a conjunct built around an
// optional parameter, or nil for always-active conjuncts. The gate is the
// runtime stand-in for the compile-time plan variants it replaces: one
// compiled plan carries every optional constraint and each execution keeps
// exactly the bound ones.
func pruneGate(e Expr) func(st *execState) bool {
	gate := func(pm Param) func(st *execState) bool {
		if !pm.Prune {
			return nil
		}
		slot, err := checkSlot(pm.Slot)
		if err != nil {
			return nil
		}
		return func(st *execState) bool { return st.params.Ints[slot] != 0 }
	}
	switch v := e.(type) {
	case ParamIDs:
		if v.Optional {
			slot, err := checkSlot(v.Slot)
			if err == nil {
				return func(st *execState) bool { return len(st.params.Lists[slot]) > 0 }
			}
		}
	case BinOp:
		if pm, ok := v.R.(Param); ok {
			if g := gate(pm); g != nil {
				return g
			}
		}
		if pm, ok := v.L.(Param); ok {
			if g := gate(pm); g != nil {
				return g
			}
		}
	}
	return nil
}

// scanFloor is one "col >= bound" (or "col > bound") conjunct over an int
// column, usable to narrow the level's full scan and its index probes:
// when the column's values are ascending at execution time (dense event
// IDs, in-order timestamps), rows before the binary-searched first
// in-range position cannot satisfy the conjunct and are skipped wholesale,
// and so are the probe postings below it (postings are in row order).
// This is what makes delta-floored standing-query scans cost O(delta), not
// O(store), and trailing-window probes cost O(window). Purely a
// narrowing — the conjunct still runs as a filter, so an unsorted column
// just loses the shortcut, never correctness.
type scanFloor struct {
	col  int
	slot int   // parameter slot holding the bound, or -1 when lit is used
	lit  int64 // literal bound when slot < 0
	excl bool  // strict ">": the first in-range value is bound+1
}

// execState is the per-execution mutable state: the current row index of
// every nested-loop level, the per-level selection-vector buffers, and the
// work counters. States are pooled per plan so steady-state executions
// reuse the selection buffers.
type execState struct {
	rows  []int32
	sels  [][]int32
	stats ExecStats
	// tabs are the tables this execution reads, parallel to plan.tables:
	// the captured snapshot copies when params.Snap is set, the live
	// tables otherwise. Bound by bindTabs before the walk starts; every
	// compiled closure reads columns through tabs, never plan.tables.
	tabs []*Table
	// params are this execution's bound parameter values (zero when the
	// statement uses none); copied in by run, cleared on release. Held by
	// value so binding parameters never allocates.
	params Params
	// pendErr carries a row-predicate error out of the append-only filter
	// kernels; descend re-raises it before visiting any row.
	pendErr error
	// visits counts entries into each hash-join-candidate level this
	// execution; hjTabs holds the tables built once the thresholds trip.
	// Both are per-execution: the tables read snapshot-bound columns, so a
	// pooled state must never carry one into the next execution.
	visits []int32
	hjTabs []*hashJoinTable
	// ctx/done drive cooperative cancellation: done caches ctx.Done() so
	// the checkpoint fast path is a nil compare when no context (or a
	// never-cancelled one) is bound. tick amortizes the poll on the probe
	// loops.
	ctx  context.Context
	done <-chan struct{}
	tick uint32
}

// bindCtx attaches a context's cancellation signal to this execution.
func (st *execState) bindCtx(ctx context.Context) {
	if ctx == nil {
		return
	}
	st.ctx = ctx
	st.done = ctx.Done()
}

// checkCancel is the amortized cancellation checkpoint for index-probe
// loops: with no cancellable context bound it is a nil compare; otherwise
// it polls the done channel every 64 iterations.
func (st *execState) checkCancel() error {
	if st.done == nil {
		return nil
	}
	if st.tick++; st.tick&63 != 1 {
		return nil
	}
	select {
	case <-st.done:
		return st.ctx.Err()
	default:
		return nil
	}
}

// selbuf returns level lvl's selection buffer, empty, with capacity for at
// least n rows.
func (st *execState) selbuf(lvl, n int) []int32 {
	if cap(st.sels[lvl]) < n {
		st.sels[lvl] = make([]int32, 0, n)
	}
	return st.sels[lvl][:0]
}

func (p *plan) state() *execState {
	if st, ok := p.statePool.Get().(*execState); ok {
		st.stats = ExecStats{}
		st.pendErr = nil
		return st
	}
	return &execState{
		rows:   make([]int32, len(p.tables)),
		sels:   make([][]int32, len(p.tables)),
		tabs:   make([]*Table, len(p.tables)),
		visits: make([]int32, len(p.tables)),
		hjTabs: make([]*hashJoinTable, len(p.tables)),
	}
}

// bindTabs resolves the tables this execution reads: the snapshot copies
// when the parameters pin a snapshot, the live tables otherwise.
func (p *plan) bindTabs(st *execState) {
	if snap := st.params.Snap; snap != nil {
		for i, t := range p.tables {
			st.tabs[i] = snap.Table(t)
		}
		return
	}
	copy(st.tabs, p.tables)
}

// tableAt resolves one level's table for an execution that has no bound
// state yet (run's pre-walk sizing and the floor checks).
func (p *plan) tableAt(params *Params, lvl int) *Table {
	if params != nil && params.Snap != nil {
		return params.Snap.Table(p.tables[lvl])
	}
	return p.tables[lvl]
}

func (p *plan) release(st *execState) {
	st.params = Params{}
	for i := range st.tabs {
		st.tabs[i] = nil // do not pin a snapshot past the execution
		st.visits[i] = 0
		st.hjTabs[i] = nil // built over this execution's bound tables
	}
	st.ctx = nil
	st.done = nil
	st.tick = 0
	p.statePool.Put(st)
}

type evalFn func(st *execState) (Value, error)
type predFn func(st *execState) (bool, error)

// projFn fills dst (of projection width) with the output row for the
// current bindings. Callers hand out slab-backed slices so a batch of
// result rows costs one allocation, not one per row.
type projFn func(st *execState, dst []Value) error

// indexAccess describes a hash-index probe for one nested-loop level.
// Exactly one of keyFn (single probe, evaluated against earlier levels),
// keyList (multi-probe from a literal IN list), or listSlot >= 0
// (multi-probe from the parameter list bound at execution) is set.
type indexAccess struct {
	col      int
	keyFn    evalFn
	keyList  []Value
	listSlot int // -1 when not a parameter-list probe
	// optional marks a parameter-list probe planned from an Optional
	// ParamIDs conjunct: an execution with no bound list uses fallback
	// (the access the level would otherwise have, nil = full scan)
	// instead of probing an empty key set.
	optional bool
	fallback *indexAccess
	// litKey marks accesses keyed purely by literals (keyList, or keyFn
	// compiled from a literal). When the level also carries an active
	// parameter scan floor, the floor's suffix scan wins at execution: a
	// literal probe would visit matching rows from the whole history only
	// to discard everything below the floor, while the suffix holds
	// exactly the new rows.
	litKey bool
}

// binding resolves aliases and columns for one statement.
type binding struct {
	aliases []string
	tables  []*Table
	byAlias map[string]int
}

func newBinding(db *DB, stmt *SelectStmt) (*binding, error) {
	b := &binding{byAlias: make(map[string]int)}
	add := func(ref TableRef) error {
		tbl := db.Table(ref.Table)
		if tbl == nil {
			return fmt.Errorf("sql: unknown table %q", ref.Table)
		}
		alias := strings.ToLower(ref.Alias)
		if _, dup := b.byAlias[alias]; dup {
			return fmt.Errorf("sql: duplicate table alias %q", ref.Alias)
		}
		b.byAlias[alias] = len(b.tables)
		b.aliases = append(b.aliases, alias)
		b.tables = append(b.tables, tbl)
		return nil
	}
	for _, ref := range stmt.From {
		if err := add(ref); err != nil {
			return nil, err
		}
	}
	for _, j := range stmt.Joins {
		if err := add(j.Ref); err != nil {
			return nil, err
		}
	}
	if len(b.tables) == 0 {
		return nil, fmt.Errorf("sql: empty FROM clause")
	}
	return b, nil
}

// resolve maps a column reference to (table level, column position).
func (b *binding) resolve(c ColRef) (int, int, error) {
	if c.Qualifier != "" {
		lvl, ok := b.byAlias[strings.ToLower(c.Qualifier)]
		if !ok {
			return 0, 0, fmt.Errorf("sql: unknown alias %q", c.Qualifier)
		}
		col := b.tables[lvl].Schema.IndexOf(strings.ToLower(c.Column))
		if col < 0 {
			return 0, 0, fmt.Errorf("sql: table %s has no column %q", b.tables[lvl].Name, c.Column)
		}
		return lvl, col, nil
	}
	found := -1
	var foundCol int
	for lvl, tbl := range b.tables {
		if col := tbl.Schema.IndexOf(strings.ToLower(c.Column)); col >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sql: ambiguous column %q", c.Column)
			}
			found, foundCol = lvl, col
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sql: unknown column %q", c.Column)
	}
	return found, foundCol, nil
}

// deepestLevel returns the highest table level referenced by e (0 for
// constant expressions).
func (b *binding) deepestLevel(e Expr) (int, error) {
	max := 0
	var visit func(Expr) error
	visit = func(e Expr) error {
		switch v := e.(type) {
		case ColRef:
			lvl, _, err := b.resolve(v)
			if err != nil {
				return err
			}
			if lvl > max {
				max = lvl
			}
		case BinOp:
			if err := visit(v.L); err != nil {
				return err
			}
			return visit(v.R)
		case UnOp:
			return visit(v.E)
		case InList:
			if err := visit(v.E); err != nil {
				return err
			}
			for _, x := range v.Vals {
				if err := visit(x); err != nil {
					return err
				}
			}
		case ParamIDs:
			return visit(v.E)
		}
		return nil
	}
	if err := visit(e); err != nil {
		return 0, err
	}
	return max, nil
}

// plan compiles a parsed SELECT against the database's current tables.
func (db *DB) plan(stmt *SelectStmt) (*plan, error) {
	b, err := newBinding(db, stmt)
	if err != nil {
		return nil, err
	}

	// Gather all filter conjuncts: WHERE plus every JOIN ... ON.
	var conjuncts []Expr
	if stmt.Where != nil {
		conjuncts = flattenAnd(stmt.Where, conjuncts)
	}
	for _, j := range stmt.Joins {
		conjuncts = flattenAnd(j.On, conjuncts)
	}

	// Attach each conjunct to the deepest table it references so it is
	// evaluated as early as possible (predicate pushdown).
	levelExprs := make([][]Expr, len(b.tables))
	for _, c := range conjuncts {
		lvl, err := b.deepestLevel(c)
		if err != nil {
			return nil, err
		}
		levelExprs[lvl] = append(levelExprs[lvl], c)
	}

	p := &plan{
		stmt:       stmt,
		tables:     b.tables,
		levelPreds: make([][]levelPred, len(b.tables)),
		access:     make([]*indexAccess, len(b.tables)),
		floors:     make([][]scanFloor, len(b.tables)),
		hashJoins:  make([]*hashJoin, len(b.tables)),
	}
	for lvl := range b.tables {
		ia, err := b.planIndexAccess(lvl, levelExprs[lvl])
		if err != nil {
			return nil, err
		}
		p.access[lvl] = ia
		if ia == nil {
			// No index serves this level: a join equality can still escape
			// the per-binding full scan through the adaptive hash join.
			p.hashJoins[lvl] = b.planHashJoin(lvl, levelExprs[lvl])
		}
		for _, e := range levelExprs[lvl] {
			if f, ok := b.planScanFloor(lvl, e); ok {
				p.floors[lvl] = append(p.floors[lvl], f)
			}
			act := pruneGate(e)
			if vp := b.compileVecPred(lvl, e); vp != nil {
				p.levelPreds[lvl] = append(p.levelPreds[lvl], levelPred{vec: vp, active: act})
				continue
			}
			pf, err := b.compilePred(e)
			if err != nil {
				return nil, err
			}
			p.levelPreds[lvl] = append(p.levelPreds[lvl], levelPred{row: pf, active: act})
		}
	}

	p.cols, p.project, err = b.compileProjection(stmt)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// planInListAccess turns "tbl.col IN (literals...)" into a multi-probe.
func (b *binding) planInListAccess(lvl int, in InList) *indexAccess {
	c, ok := in.E.(ColRef)
	if !ok {
		return nil
	}
	clvl, ccol, err := b.resolve(c)
	if err != nil || clvl != lvl {
		return nil
	}
	if b.tables[lvl].indexes[ccol].Load() == nil {
		return nil
	}
	vals := make([]Value, 0, len(in.Vals))
	for _, ve := range in.Vals {
		lit, ok := ve.(Lit)
		if !ok {
			return nil
		}
		vals = append(vals, lit.V)
	}
	return &indexAccess{col: ccol, keyList: vals, listSlot: -1, litKey: true}
}

// planParamIDsAccess turns "tbl.col IN <param list>" into a multi-probe
// whose keys are read from the bound parameter list at execution time.
func (b *binding) planParamIDsAccess(lvl int, pi ParamIDs) *indexAccess {
	c, ok := pi.E.(ColRef)
	if !ok {
		return nil
	}
	clvl, ccol, err := b.resolve(c)
	if err != nil || clvl != lvl {
		return nil
	}
	if b.tables[lvl].indexes[ccol].Load() == nil {
		return nil
	}
	slot, err := checkSlot(pi.Slot)
	if err != nil {
		return nil
	}
	return &indexAccess{col: ccol, listSlot: slot, optional: pi.Optional}
}

// planScanFloor recognizes "col >= bound" / "col > bound" conjuncts over
// an int column of this level whose bound is a literal or an integer
// parameter — the shapes the full-scan path can turn into a binary-searched
// scan start when the column is ascending-sorted (see scanFloor).
func (b *binding) planScanFloor(lvl int, e Expr) (scanFloor, bool) {
	bin, ok := e.(BinOp)
	if !ok || (bin.Op != ">=" && bin.Op != ">") {
		return scanFloor{}, false
	}
	c, ok := bin.L.(ColRef)
	if !ok {
		return scanFloor{}, false
	}
	clvl, ccol, err := b.resolve(c)
	if err != nil || clvl != lvl || b.tables[lvl].Schema[ccol].Kind != KindInt {
		return scanFloor{}, false
	}
	f := scanFloor{col: ccol, slot: -1, excl: bin.Op == ">"}
	switch r := bin.R.(type) {
	case Lit:
		if r.V.K != KindInt {
			return scanFloor{}, false
		}
		f.lit = r.V.I
	case Param:
		slot, err := checkSlot(r.Slot)
		if err != nil {
			return scanFloor{}, false
		}
		f.slot = slot
	default:
		return scanFloor{}, false
	}
	return f, true
}

// scanStart resolves the scan start of a full-scanned level for this
// execution: the largest lower bound across the level's active floors, or
// 0 when the column order does not admit the shortcut. params may be nil
// (every slot reads as zero).
func (p *plan) scanStart(params *Params, lvl int) int32 {
	var lo int32
	tbl := p.tableAt(params, lvl)
	for _, f := range p.floors[lvl] {
		k := f.lit
		if f.slot >= 0 {
			if params == nil {
				continue
			}
			k = params.Ints[f.slot]
		}
		if f.excl {
			if k == int64(^uint64(0)>>1) { // MaxInt64: "> max" admits nothing
				return int32(tbl.Len())
			}
			k++
		}
		if pos, ok := tbl.ascLowerBound(f.col, k); ok && pos > lo {
			lo = pos
		}
	}
	return lo
}

// paramFloorActive reports whether the level has a parameter-bound scan
// floor that is both bound and usable (ascending column) this execution —
// the signal that a suffix scan beats a literal-keyed index probe.
func (p *plan) paramFloorActive(params *Params, lvl int) bool {
	if params == nil {
		return false
	}
	for _, f := range p.floors[lvl] {
		if f.slot >= 0 && params.Ints[f.slot] > 0 {
			if _, ok := p.tableAt(params, lvl).ascLowerBound(f.col, 0); ok {
				return true
			}
		}
	}
	return false
}

// planIndexAccess finds an equality conjunct "tbl.col = key" (or an
// all-literal "tbl.col IN (...)", or a runtime parameter list) usable as
// an index probe at the given level. An Optional parameter-list access is
// returned with the level's next-best access attached as its runtime
// fallback, so one compiled plan serves bound and unbound executions.
func (b *binding) planIndexAccess(lvl int, preds []Expr) (*indexAccess, error) {
	var opt *indexAccess
	// pick resolves a usable access against the pending optional one:
	// optional parameter-list accesses are held back (returning nil)
	// while the scan continues for a guaranteed access to use as their
	// runtime fallback; the first guaranteed access wins, carrying the
	// pending optional in front of it when one exists. Guaranteed input
	// therefore always yields a non-nil result.
	pick := func(ia *indexAccess) *indexAccess {
		if ia.listSlot >= 0 && ia.optional {
			if opt == nil {
				opt = ia
			}
			return nil
		}
		if opt != nil {
			opt.fallback = ia
			return opt
		}
		return ia
	}
	tbl := b.tables[lvl]
	for _, p := range preds {
		if in, ok := p.(InList); ok && !in.Negate {
			if ia := b.planInListAccess(lvl, in); ia != nil {
				if got := pick(ia); got != nil {
					return got, nil
				}
			}
			continue
		}
		if pi, ok := p.(ParamIDs); ok {
			if ia := b.planParamIDsAccess(lvl, pi); ia != nil {
				if got := pick(ia); got != nil {
					return got, nil
				}
			}
			continue
		}
		bin, ok := p.(BinOp)
		if !ok || bin.Op != "=" {
			continue
		}
		try := func(colSide, keySide Expr) *indexAccess {
			c, ok := colSide.(ColRef)
			if !ok {
				return nil
			}
			clvl, ccol, err := b.resolve(c)
			if err != nil || clvl != lvl {
				return nil
			}
			keyLvl, err := b.deepestLevel(keySide)
			if err != nil {
				return nil
			}
			if _, isCol := keySide.(ColRef); !isCol {
				if _, isLit := keySide.(Lit); !isLit {
					return nil
				}
			}
			if keyLvl >= lvl {
				if _, isLit := keySide.(Lit); !isLit {
					return nil
				}
			}
			if tbl.indexes[ccol].Load() == nil {
				return nil
			}
			keyFn, err := b.compileEval(keySide)
			if err != nil {
				return nil
			}
			_, isLit := keySide.(Lit)
			return &indexAccess{col: ccol, keyFn: keyFn, listSlot: -1, litKey: isLit}
		}
		if ia := try(bin.L, bin.R); ia != nil {
			return pick(ia), nil // try() accesses are never optional
		}
		if ia := try(bin.R, bin.L); ia != nil {
			return pick(ia), nil
		}
	}
	return opt, nil
}

// compileEval compiles an expression to a closure with the exact
// semantics of EvalExpr (NULL rules, numeric-string equality leniency,
// comparison errors on kind mismatch).
func (b *binding) compileEval(e Expr) (evalFn, error) {
	switch v := e.(type) {
	case Lit:
		val := v.V
		return func(*execState) (Value, error) { return val, nil }, nil
	case Param:
		slot, err := checkSlot(v.Slot)
		if err != nil {
			return nil, err
		}
		return func(st *execState) (Value, error) {
			return Int(st.params.Ints[slot]), nil
		}, nil
	case ParamIDs:
		ef, err := b.compileEval(v.E)
		if err != nil {
			return nil, err
		}
		slot, err := checkSlot(v.Slot)
		if err != nil {
			return nil, err
		}
		return func(st *execState) (Value, error) {
			x, err := ef(st)
			if err != nil {
				return Null(), err
			}
			return Bool(x.K == KindInt && st.params.contains(slot, x.I)), nil
		}, nil
	case ColRef:
		lvl, col, err := b.resolve(v)
		if err != nil {
			return nil, err
		}
		return func(st *execState) (Value, error) {
			return st.tabs[lvl].cell(int(st.rows[lvl]), col), nil
		}, nil
	case UnOp:
		inner, err := b.compileEval(v.E)
		if err != nil {
			return nil, err
		}
		return func(st *execState) (Value, error) {
			x, err := inner(st)
			if err != nil {
				return Null(), err
			}
			return Bool(!x.Truthy()), nil
		}, nil
	case InList:
		ef, err := b.compileEval(v.E)
		if err != nil {
			return nil, err
		}
		vals := make([]evalFn, len(v.Vals))
		for i, ve := range v.Vals {
			if vals[i], err = b.compileEval(ve); err != nil {
				return nil, err
			}
		}
		negate := v.Negate
		return func(st *execState) (Value, error) {
			x, err := ef(st)
			if err != nil {
				return Null(), err
			}
			match := false
			for _, vf := range vals {
				y, err := vf(st)
				if err != nil {
					return Null(), err
				}
				if x.Equal(y) {
					match = true
					break
				}
			}
			return Bool(match != negate), nil
		}, nil
	case BinOp:
		l, err := b.compileEval(v.L)
		if err != nil {
			return nil, err
		}
		r, err := b.compileEval(v.R)
		if err != nil {
			return nil, err
		}
		switch op := v.Op; op {
		case "and":
			return func(st *execState) (Value, error) {
				lv, err := l(st)
				if err != nil {
					return Null(), err
				}
				if !lv.Truthy() {
					return Bool(false), nil
				}
				rv, err := r(st)
				if err != nil {
					return Null(), err
				}
				return Bool(rv.Truthy()), nil
			}, nil
		case "or":
			return func(st *execState) (Value, error) {
				lv, err := l(st)
				if err != nil {
					return Null(), err
				}
				if lv.Truthy() {
					return Bool(true), nil
				}
				rv, err := r(st)
				if err != nil {
					return Null(), err
				}
				return Bool(rv.Truthy()), nil
			}, nil
		case "=":
			return func(st *execState) (Value, error) {
				lv, rv, err := eval2(l, r, st)
				if err != nil {
					return Null(), err
				}
				return Bool(lv.Equal(rv)), nil
			}, nil
		case "<>":
			return func(st *execState) (Value, error) {
				lv, rv, err := eval2(l, r, st)
				if err != nil {
					return Null(), err
				}
				if lv.IsNull() || rv.IsNull() {
					return Bool(false), nil
				}
				return Bool(!lv.Equal(rv)), nil
			}, nil
		case "like":
			if lit, ok := v.R.(Lit); ok && lit.V.K == KindString {
				match := compileLikePattern(lit.V.S)
				return func(st *execState) (Value, error) {
					lv, err := l(st)
					if err != nil {
						return Null(), err
					}
					return Bool(lv.K == KindString && match(lv.S)), nil
				}, nil
			}
			return func(st *execState) (Value, error) {
				lv, rv, err := eval2(l, r, st)
				if err != nil {
					return Null(), err
				}
				if lv.K != KindString || rv.K != KindString {
					return Bool(false), nil
				}
				return Bool(Like(lv.S, rv.S)), nil
			}, nil
		case "+", "-":
			plus := op == "+"
			return func(st *execState) (Value, error) {
				lv, rv, err := eval2(l, r, st)
				if err != nil {
					return Null(), err
				}
				if lv.K != KindInt || rv.K != KindInt {
					return Null(), fmt.Errorf("relational: arithmetic requires integers")
				}
				if plus {
					return Int(lv.I + rv.I), nil
				}
				return Int(lv.I - rv.I), nil
			}, nil
		case "<", "<=", ">", ">=":
			op := op
			return func(st *execState) (Value, error) {
				lv, rv, err := eval2(l, r, st)
				if err != nil {
					return Null(), err
				}
				cmp, err := lv.Compare(rv)
				if err != nil {
					return Null(), err
				}
				return Bool(cmpHolds(op, cmp)), nil
			}, nil
		}
		return nil, fmt.Errorf("relational: unknown operator %q", v.Op)
	}
	return nil, fmt.Errorf("relational: cannot evaluate %T", e)
}

func eval2(l, r evalFn, st *execState) (Value, Value, error) {
	lv, err := l(st)
	if err != nil {
		return Value{}, Value{}, err
	}
	rv, err := r(st)
	if err != nil {
		return Value{}, Value{}, err
	}
	return lv, rv, nil
}

func cmpHolds(op string, cmp int) bool {
	switch op {
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// compilePred compiles a boolean conjunct, specializing the typed hot
// shapes (column-vs-literal, column-vs-column, prepared LIKE, literal IN
// lists) to direct columnar reads.
func (b *binding) compilePred(e Expr) (predFn, error) {
	switch v := e.(type) {
	case BinOp:
		switch v.Op {
		case "and":
			l, err := b.compilePred(v.L)
			if err != nil {
				return nil, err
			}
			r, err := b.compilePred(v.R)
			if err != nil {
				return nil, err
			}
			return func(st *execState) (bool, error) {
				ok, err := l(st)
				if err != nil || !ok {
					return false, err
				}
				return r(st)
			}, nil
		case "or":
			l, err := b.compilePred(v.L)
			if err != nil {
				return nil, err
			}
			r, err := b.compilePred(v.R)
			if err != nil {
				return nil, err
			}
			return func(st *execState) (bool, error) {
				ok, err := l(st)
				if err != nil || ok {
					return ok, err
				}
				return r(st)
			}, nil
		case "=", "<>", "<", "<=", ">", ">=", "like":
			if p, ok := v.R.(Param); ok {
				if pf := b.specializeCmpParam(v.Op, v.L, p); pf != nil {
					return pf, nil
				}
			}
			if pf := b.specializeCmp(v); pf != nil {
				return pf, nil
			}
		}
	case UnOp:
		inner, err := b.compilePred(v.E)
		if err != nil {
			return nil, err
		}
		return func(st *execState) (bool, error) {
			ok, err := inner(st)
			return !ok, err
		}, nil
	case InList:
		if pf := b.specializeInList(v); pf != nil {
			return pf, nil
		}
	case ParamIDs:
		if pf := b.specializeParamIDs(v); pf != nil {
			return pf, nil
		}
	}
	ef, err := b.compileEval(e)
	if err != nil {
		return nil, err
	}
	return func(st *execState) (bool, error) {
		val, err := ef(st)
		if err != nil {
			return false, err
		}
		return val.Truthy(), nil
	}, nil
}

// colAccess is a resolved column read used by the specialized predicates.
type colAccess struct {
	tbl  *Table
	lvl  int
	col  int
	kind Kind
}

func (b *binding) colAccess(c ColRef) (colAccess, bool) {
	lvl, col, err := b.resolve(c)
	if err != nil {
		return colAccess{}, false
	}
	return colAccess{tbl: b.tables[lvl], lvl: lvl, col: col, kind: b.tables[lvl].Schema[col].Kind}, true
}

func (a colAccess) intAt(st *execState) (int64, bool) {
	row := int(st.rows[a.lvl])
	c := &st.tabs[a.lvl].cols[a.col]
	if len(c.null) > row>>6 && c.null.get(row) {
		return 0, true
	}
	return c.ints[row], false
}

func (a colAccess) strAt(st *execState) (string, bool) {
	row := int(st.rows[a.lvl])
	c := &st.tabs[a.lvl].cols[a.col]
	if len(c.null) > row>>6 && c.null.get(row) {
		return "", true
	}
	if c.dict != nil {
		return c.decode(c.codes[row]), false
	}
	return c.strs[row], false
}

// dictOf returns the column's dictionary, or nil for plain columns.
func (a colAccess) dictOf() *dictionary { return a.tbl.cols[a.col].dict }

// specializeCmp returns a typed predicate for column-vs-literal and
// column-vs-column comparisons where both sides share one kind, or nil
// when the shape needs the generic evaluator (mixed kinds keep EvalExpr's
// leniency and error semantics).
func (b *binding) specializeCmp(v BinOp) predFn {
	op := v.Op
	// Normalize literal-on-the-left to column-vs-literal with flipped op.
	l, r := v.L, v.R
	if _, isLit := l.(Lit); isLit {
		if _, isCol := r.(ColRef); isCol {
			l, r = r, l
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			case "like":
				return nil // pattern on the left is not a column match
			}
		}
	}
	lc, ok := l.(ColRef)
	if !ok {
		return nil
	}
	la, ok := b.colAccess(lc)
	if !ok {
		return nil
	}
	switch rv := r.(type) {
	case Lit:
		if la.kind != rv.V.K {
			return nil
		}
		if la.kind == KindInt {
			k := rv.V.I
			switch op {
			case "=":
				return func(st *execState) (bool, error) {
					x, null := la.intAt(st)
					return !null && x == k, nil
				}
			case "<>":
				return func(st *execState) (bool, error) {
					x, null := la.intAt(st)
					return !null && x != k, nil
				}
			case "<", "<=", ">", ">=":
				op := op
				return func(st *execState) (bool, error) {
					x, null := la.intAt(st)
					if null {
						return cmpHolds(op, -1), nil // NULL sorts first
					}
					return cmpHolds(op, cmpInt(x, k)), nil
				}
			}
			return nil
		}
		k := rv.V.S
		switch op {
		case "=":
			return func(st *execState) (bool, error) {
				s, null := la.strAt(st)
				return !null && s == k, nil
			}
		case "<>":
			return func(st *execState) (bool, error) {
				s, null := la.strAt(st)
				return !null && s != k, nil
			}
		case "like":
			match := compileLikePattern(k)
			return func(st *execState) (bool, error) {
				s, null := la.strAt(st)
				return !null && match(s), nil
			}
		case "<", "<=", ">", ">=":
			op := op
			return func(st *execState) (bool, error) {
				s, null := la.strAt(st)
				if null {
					return cmpHolds(op, -1), nil
				}
				return cmpHolds(op, strings.Compare(s, k)), nil
			}
		}
		return nil
	case ColRef:
		ra, ok := b.colAccess(rv)
		if !ok || la.kind != ra.kind {
			return nil
		}
		if la.kind == KindInt {
			switch op {
			case "=":
				return func(st *execState) (bool, error) {
					x, nx := la.intAt(st)
					y, ny := ra.intAt(st)
					return !nx && !ny && x == y, nil
				}
			case "<>":
				return func(st *execState) (bool, error) {
					x, nx := la.intAt(st)
					y, ny := ra.intAt(st)
					return !nx && !ny && x != y, nil
				}
			case "<", "<=", ">", ">=":
				op := op
				return func(st *execState) (bool, error) {
					x, nx := la.intAt(st)
					y, ny := ra.intAt(st)
					return cmpHolds(op, nullCmp(nx, ny, func() int { return cmpInt(x, y) })), nil
				}
			}
			return nil
		}
		switch op {
		case "=":
			return func(st *execState) (bool, error) {
				x, nx := la.strAt(st)
				y, ny := ra.strAt(st)
				return !nx && !ny && x == y, nil
			}
		case "<>":
			return func(st *execState) (bool, error) {
				x, nx := la.strAt(st)
				y, ny := ra.strAt(st)
				return !nx && !ny && x != y, nil
			}
		case "like":
			return func(st *execState) (bool, error) {
				x, nx := la.strAt(st)
				y, ny := ra.strAt(st)
				return !nx && !ny && Like(x, y), nil
			}
		case "<", "<=", ">", ">=":
			op := op
			return func(st *execState) (bool, error) {
				x, nx := la.strAt(st)
				y, ny := ra.strAt(st)
				return cmpHolds(op, nullCmp(nx, ny, func() int { return strings.Compare(x, y) })), nil
			}
		}
	}
	return nil
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// nullCmp mirrors Value.Compare's NULL ordering: NULL sorts before
// everything and equals NULL.
func nullCmp(nx, ny bool, cmp func() int) int {
	switch {
	case nx && ny:
		return 0
	case nx:
		return -1
	case ny:
		return 1
	default:
		return cmp()
	}
}

// specializeInList compiles "col [NOT] IN (literals...)" over a same-kind
// literal list into a hash-set membership test, or nil for other shapes.
func (b *binding) specializeInList(v InList) predFn {
	c, ok := v.E.(ColRef)
	if !ok {
		return nil
	}
	a, ok := b.colAccess(c)
	if !ok {
		return nil
	}
	negate := v.Negate
	if a.kind == KindInt {
		set, ok := buildIntSet(v.Vals)
		if !ok {
			return nil
		}
		return func(st *execState) (bool, error) {
			x, null := a.intAt(st)
			if null {
				return negate, nil
			}
			_, member := set[x]
			return member != negate, nil
		}
	}
	set, ok := buildStrSet(v.Vals)
	if !ok {
		return nil
	}
	return func(st *execState) (bool, error) {
		s, null := a.strAt(st)
		if null {
			return negate, nil
		}
		_, member := set[s]
		return member != negate, nil
	}
}

// buildIntSet and buildStrSet turn an all-literal, single-kind IN list
// into a membership set; ok is false for any other list shape. Both the
// row-at-a-time and the vectorized IN paths build their sets here, so the
// two can never diverge on which lists qualify.
func buildIntSet(vals []Expr) (map[int64]struct{}, bool) {
	set := make(map[int64]struct{}, len(vals))
	for _, ve := range vals {
		lit, ok := ve.(Lit)
		if !ok || lit.V.K != KindInt {
			return nil, false
		}
		set[lit.V.I] = struct{}{}
	}
	return set, true
}

func buildStrSet(vals []Expr) (map[string]struct{}, bool) {
	set := make(map[string]struct{}, len(vals))
	for _, ve := range vals {
		lit, ok := ve.(Lit)
		if !ok || lit.V.K != KindString {
			return nil, false
		}
		set[lit.V.S] = struct{}{}
	}
	return set, true
}

// compileLikePattern prepares a matcher for a constant LIKE pattern,
// lowering the dominant shapes ('%sub%', 'pre%', '%suf', exact) to
// stdlib string primitives and falling back to the generic matcher.
func compileLikePattern(p string) func(string) bool {
	if !strings.ContainsAny(p, "%_") {
		return func(s string) bool { return s == p }
	}
	if len(p) >= 2 && p[0] == '%' && p[len(p)-1] == '%' {
		if mid := p[1 : len(p)-1]; !strings.ContainsAny(mid, "%_") {
			return func(s string) bool { return strings.Contains(s, mid) }
		}
	}
	if p[len(p)-1] == '%' {
		if pre := p[:len(p)-1]; !strings.ContainsAny(pre, "%_") {
			return func(s string) bool { return strings.HasPrefix(s, pre) }
		}
	}
	if p[0] == '%' {
		if suf := p[1:]; !strings.ContainsAny(suf, "%_") {
			return func(s string) bool { return strings.HasSuffix(s, suf) }
		}
	}
	return func(s string) bool { return likeMatch(s, p) }
}

// compileProjection builds the output column labels and a compiled row
// projector.
func (b *binding) compileProjection(stmt *SelectStmt) ([]string, projFn, error) {
	if len(stmt.Select) == 0 { // SELECT *
		var cols []string
		type src struct {
			lvl, col int
		}
		var srcs []src
		for lvl, tbl := range b.tables {
			for col, c := range tbl.Schema {
				label := c.Name
				if len(b.tables) > 1 {
					label = b.aliases[lvl] + "." + c.Name
				}
				cols = append(cols, label)
				srcs = append(srcs, src{lvl, col})
			}
		}
		return cols, func(st *execState, dst []Value) error {
			for i, s := range srcs {
				dst[i] = st.tabs[s.lvl].cell(int(st.rows[s.lvl]), s.col)
			}
			return nil
		}, nil
	}
	cols := make([]string, len(stmt.Select))
	fns := make([]evalFn, len(stmt.Select))
	for i, item := range stmt.Select {
		switch {
		case item.As != "":
			cols[i] = item.As
		default:
			if c, ok := item.Expr.(ColRef); ok {
				if c.Qualifier != "" {
					cols[i] = c.Qualifier + "." + c.Column
				} else {
					cols[i] = c.Column
				}
			} else {
				cols[i] = fmt.Sprintf("col%d", i+1)
			}
		}
		fn, err := b.compileEval(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		fns[i] = fn
	}
	return cols, func(st *execState, dst []Value) error {
		for i, fn := range fns {
			v, err := fn(st)
			if err != nil {
				return err
			}
			dst[i] = v
		}
		return nil
	}, nil
}

func flattenAnd(e Expr, acc []Expr) []Expr {
	if bin, ok := e.(BinOp); ok && bin.Op == "and" {
		acc = flattenAnd(bin.L, acc)
		return flattenAnd(bin.R, acc)
	}
	return append(acc, e)
}
