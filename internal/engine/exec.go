package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"threatraptor/internal/faultinject"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/qir"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// Stats summarizes one TBQL execution.
type Stats struct {
	DataQueries  int // small SQL/Cypher queries issued
	PatternRows  int // total rows returned by data queries
	JoinBindings int // complete bindings found by the cross-pattern join
	// EmptyPatternID names the pattern whose data query matched nothing
	// and short-circuited the conjunction ("" when all patterns matched).
	// Surfacing it supports the paper's human-in-the-loop query revision:
	// the analyst removes or relaxes the excessive pattern.
	EmptyPatternID string
	Rel            relational.ExecStats
	Graph          graphdb.ExecStats
}

// Engine executes TBQL queries against a store.
type Engine struct {
	Store *Store
	// MaxInList bounds how many entity IDs the scheduler pushes into a
	// dependent data query as an IN constraint; larger binding sets are
	// left to the join phase. Zero selects the default of 2000.
	MaxInList int
	// DisableScheduling turns off pruning-score ordering and constraint
	// feeding (the ablation of the paper's core RQ4 optimization): data
	// queries run in declaration order without added constraints.
	DisableScheduling bool
	// Parallel runs each dependency level's data queries in concurrent
	// goroutines (patterns in one level share no entity variable, so no
	// constraint can flow between them). The result set is identical to
	// the serial scheduled plan; only Stats.DataQueries can differ when a
	// pattern comes up empty, because a whole level completes before the
	// short-circuit is taken.
	Parallel bool
	// ViewHighWater caps the total rows the engine may hold in
	// materialized pattern views (the standing-query match caches): 0
	// selects DefaultViewHighWater, a negative value disables views
	// entirely. A query whose views would cross the cap evaluates through
	// the recompute path instead — delta rounds stay correct, just not
	// O(delta).
	ViewHighWater int

	planMu sync.Mutex
	plans  map[planKey]*queryPlan

	// Materialized-view accounting and counters (see view.go).
	viewRows             atomic.Int64
	viewReleaseGen       atomic.Int64
	viewMaterializations atomic.Int64
	viewDeltaMerges      atomic.Int64
	viewFallbacks        atomic.Int64
	viewCatchupSkips     atomic.Int64
	viewWindowMigrations atomic.Int64
	scratchPool          sync.Pool

	// huntMu guards the parse/analyze cache keyed by TBQL source text, so
	// repeat Hunt calls reuse one *tbql.Analyzed — which in turn keeps the
	// compiled query plans (IR and backend plan variants) hot across hunts.
	huntMu   sync.Mutex
	analyzed map[string]*tbql.Analyzed
}

// maxCachedAnalyzed bounds the Hunt source cache (flushed wholesale on
// overflow, like the other engine caches).
const maxCachedAnalyzed = 256

// Result is the outcome of a scheduled TBQL execution: the projected
// return rows plus the audit event IDs that participated in at least one
// complete binding (the paper's RQ2 scores matched system events against
// ground truth).
type Result struct {
	Set           *relational.ResultSet
	MatchedEvents map[int64]bool
}

// patternRows is the result of one pattern's data query.
type patternRows struct {
	idx  int // pattern index
	rows [][5]int64
	// hasEvent is false for variable-length paths (no event/time columns).
	hasEvent bool
}

// extrasSpec is everything that can vary in one pattern's data query
// between executions: the scheduler's subject/object binding sets (sorted
// unique ID slices), the standing-query delta floor (only events with
// ID >= delta match; 0 means no floor), and the pinned snapshot the
// execution reads (nil = live store, writer-synchronized paths only). The
// spec binds as parameter values on the pattern's one compiled plan (whose
// optional parameter predicates prune themselves when a spec field is
// unset) — nothing is rendered to text and no per-shape plan variant
// exists.
type extrasSpec struct {
	subj, obj []int64
	delta     int64
	snap      *Snapshot
}

// any reports whether the spec carries any constraint at all.
func (sp extrasSpec) any() bool {
	return len(sp.subj) > 0 || len(sp.obj) > 0 || sp.delta > 0
}

// runPattern executes one pattern's data query with the given extras spec
// (scheduler binding sets plus the delta floor), against the backend the
// pattern lowers to. Both backends consume the pattern's compiled plan
// directly; the extras bind as parameter values, so no query text is
// assembled and no parser runs.
func (en *Engine) runPattern(ctx context.Context, a *tbql.Analyzed, plan *queryPlan, idx int, sp extrasSpec) (patternRows, relational.ExecStats, graphdb.ExecStats, error) {
	p := a.Query.Patterns[idx]
	pr := patternRows{idx: idx, hasEvent: true}
	if err := ctxErr(ctx); err != nil {
		return pr, relational.ExecStats{}, graphdb.ExecStats{}, err
	}
	if err := faultinject.Hit(FaultExecutePattern); err != nil {
		return pr, relational.ExecStats{}, graphdb.ExecStats{}, fmt.Errorf("engine: pattern %s: %w", p.ID, err)
	}
	pp := &plan.pats[idx]
	if pp.usesGraph {
		var params *graphdb.ExecParams
		if sp.any() || sp.snap != nil {
			var gp graphdb.ExecParams
			var nb [2]graphdb.NodeBinding
			n := 0
			if len(sp.subj) > 0 {
				nb[n] = graphdb.NodeBinding{Var: "s", IDs: sp.subj}
				n++
			}
			if len(sp.obj) > 0 {
				nb[n] = graphdb.NodeBinding{Var: "o", IDs: sp.obj}
				n++
			}
			gp.Nodes = nb[:n]
			if sp.delta > 0 && pp.ir.Path.HasEdgeVar {
				// Edges are appended one per event in ID order and event
				// IDs are the store's dense 1..n sequence, so the event-ID
				// floor is the graph executor's edge-arena floor.
				gp.EdgeVar = "e"
				gp.MinEdgeID = sp.delta
			}
			if sp.snap != nil {
				gp.View = &sp.snap.Graph
			}
			params = &gp
		}
		rs, gs, err := en.Store.Graph.ExecWithCtx(ctx, pp.gq, params)
		if err != nil {
			return pr, relational.ExecStats{}, gs, fmt.Errorf("engine: pattern %s: %w", p.ID, err)
		}
		pr.hasEvent = len(rs.Columns) == 5
		pr.rows = make([][5]int64, 0, len(rs.Rows))
		for _, row := range rs.Rows {
			var r [5]int64
			if pr.hasEvent {
				for i := 0; i < 5; i++ {
					r[i] = row[i].I
				}
			} else {
				r[1], r[2] = row[0].I, row[1].I
			}
			pr.rows = append(pr.rows, r)
		}
		return pr, relational.ExecStats{}, gs, nil
	}
	var prep *relational.Prepared
	var err error
	if sp.delta > 0 {
		// Delta rounds anchor on the events table so the scan starts at
		// the floor instead of walking the entity anchor's history.
		prep, err = pp.preparedDelta(en.Store, plan.bounds)
	} else {
		prep, err = pp.prepared(en.Store, plan.bounds)
	}
	if err != nil {
		return pr, relational.ExecStats{}, graphdb.ExecStats{}, fmt.Errorf("engine: pattern %s: %w", p.ID, err)
	}
	var params relational.Params
	params.Lists[qir.SlotSubjIDs] = sp.subj
	params.Lists[qir.SlotObjIDs] = sp.obj
	params.Ints[qir.SlotDelta] = sp.delta
	if sp.snap != nil {
		params.Snap = &sp.snap.Rel
	}
	rs, qs, err := prep.QueryCtx(ctx, &params)
	if err != nil {
		return pr, qs, graphdb.ExecStats{}, fmt.Errorf("engine: pattern %s: %w", p.ID, err)
	}
	pr.rows = make([][5]int64, 0, len(rs.Rows))
	for _, row := range rs.Rows {
		pr.rows = append(pr.rows, [5]int64{row[0].I, row[1].I, row[2].I, row[3].I, row[4].I})
	}
	return pr, qs, graphdb.ExecStats{}, nil
}

// bindingSpec selects the scheduler's binding-set constraints for a
// pattern. Binding sets are kept as sorted unique ID slices — the
// representation both backends' membership checks and index probes
// consume directly as bound parameters.
func (en *Engine) bindingSpec(p *tbql.Pattern, bindings map[string][]int64, maxIn int) (subj, obj []int64) {
	if set := bindings[p.Subject.ID]; len(set) > 0 && len(set) <= maxIn {
		subj = set
	}
	if set := bindings[p.Object.ID]; len(set) > 0 && len(set) <= maxIn {
		obj = set
	}
	return subj, obj
}

func (en *Engine) maxIn() int {
	if en.MaxInList > 0 {
		return en.MaxInList
	}
	return 2000
}

// emptyResult is the short-circuit outcome when a pattern matches nothing.
func emptyResult(a *tbql.Analyzed) *Result {
	return &Result{
		Set:           &relational.ResultSet{Columns: returnColumns(a)},
		MatchedEvents: map[int64]bool{},
	}
}

// Execute runs a TBQL query with the ThreatRaptor plan: each pattern
// lowers to a small data query in the shared logical-plan IR (executed by
// the relational backend for event patterns, the graph backend for path
// patterns), the scheduler orders them by pruning score, feeds entity
// bindings forward as bound parameters, and a final in-engine join applies
// the temporal and attribute relationships. With Parallel set, independent
// patterns within one dependency level run concurrently.
//
// ctx cancels cooperatively: the executors poll it at pattern and level
// boundaries, relational batch boundaries, and graph DFS depth steps, and
// the call returns ctx.Err() promptly. A nil context never cancels. Panics
// anywhere in execution surface as a typed *InternalError instead of
// unwinding into the caller.
//
// Execute pins the latest published store snapshot at entry and runs
// entirely against it: every data query, attribute resolution, and window
// lowering reads that one frozen generation, so the call is safe to run
// concurrently with AppendBatch (and with other executions) without any
// session-wide lock.
func (en *Engine) Execute(ctx context.Context, a *tbql.Analyzed) (res *Result, stats Stats, err error) {
	defer guard(a, &err)
	return en.execute(ctx, a, en.Store.Snapshot(), nil)
}

// execute is Execute with an optional per-pattern delta floor: deltaFor
// (nil for none) returns the minimum event ID pattern idx may match, the
// hook standing queries use to join only new rows against history. Delta
// rounds run the serial scheduled plan with the delta-constrained patterns
// hoisted to the front: a floor over a small append usually matches
// nothing (short-circuiting the round after one data query) or a handful
// of rows whose bindings prune every later pattern.
func (en *Engine) execute(ctx context.Context, a *tbql.Analyzed, snap *Snapshot, deltaFor func(idx int) int64) (*Result, Stats, error) {
	plan := en.planFor(a, snap)
	if en.Parallel && !en.DisableScheduling && deltaFor == nil {
		return en.executeLevels(ctx, a, snap, plan)
	}

	order := plan.order
	if deltaFor != nil {
		hoisted := make([]int, 0, len(order))
		for _, idx := range order {
			if deltaFor(idx) > 0 {
				hoisted = append(hoisted, idx)
			}
		}
		for _, idx := range order {
			if deltaFor(idx) <= 0 {
				hoisted = append(hoisted, idx)
			}
		}
		order = hoisted
	}

	var stats Stats
	bindings := make(map[string][]int64) // entity ID -> allowed IDs, sorted unique
	results := make([]patternRows, len(a.Query.Patterns))
	maxIn := en.maxIn()
	var scratch []int64

	for _, idx := range order {
		p := a.Query.Patterns[idx]
		sp := extrasSpec{snap: snap}
		if !en.DisableScheduling {
			sp.subj, sp.obj = en.bindingSpec(p, bindings, maxIn)
		}
		if deltaFor != nil {
			sp.delta = deltaFor(idx)
		}
		pr, qs, gs, err := en.runPattern(ctx, a, plan, idx, sp)
		if err != nil {
			return nil, stats, err
		}
		stats.Rel.RowsScanned += qs.RowsScanned
		stats.Rel.IndexLookups += qs.IndexLookups
		stats.Rel.HashJoinBuilds += qs.HashJoinBuilds
		stats.Graph.NodesVisited += gs.NodesVisited
		stats.Graph.EdgesTraversed += gs.EdgesTraversed
		stats.Graph.IndexLookups += gs.IndexLookups
		stats.DataQueries++
		stats.PatternRows += len(pr.rows)
		results[idx] = pr

		if len(pr.rows) == 0 {
			// A pattern with no matches empties the whole conjunction.
			stats.EmptyPatternID = p.ID
			return emptyResult(a), stats, nil
		}
		if !en.DisableScheduling {
			narrow(bindings, p.Subject.ID, pr.rows, 1, &scratch)
			narrow(bindings, p.Object.ID, pr.rows, 2, &scratch)
		}
	}

	res, joined, err := en.join(ctx, a, snap, results)
	if err != nil {
		return nil, stats, err
	}
	stats.JoinBindings = joined
	return res, stats, nil
}

// executeLevels is the parallel scheduled plan: the scheduler's order is
// partitioned into dependency levels, each level's patterns execute in
// concurrent goroutines (they share no entity variable, so no constraint
// could flow between them), and binding sets are narrowed between levels.
// Delta rounds never come here: execute() routes them through the serial
// plan, whose binding feed the hoisted delta patterns rely on.
func (en *Engine) executeLevels(ctx context.Context, a *tbql.Analyzed, snap *Snapshot, plan *queryPlan) (*Result, Stats, error) {
	var stats Stats
	bindings := make(map[string][]int64)
	results := make([]patternRows, len(a.Query.Patterns))
	maxIn := en.maxIn()
	var scratch []int64

	type outcome struct {
		pr  patternRows
		rel relational.ExecStats
		gr  graphdb.ExecStats
		err error
	}
	for _, level := range plan.levels {
		outs := make([]outcome, len(level))
		levelSpec := func(idx int) extrasSpec {
			sp := extrasSpec{snap: snap}
			if !en.DisableScheduling {
				sp.subj, sp.obj = en.bindingSpec(a.Query.Patterns[idx], bindings, maxIn)
			}
			return sp
		}
		if len(level) == 1 {
			o := &outs[0]
			o.pr, o.rel, o.gr, o.err = en.runPattern(ctx, a, plan, level[0], levelSpec(level[0]))
		} else {
			var wg sync.WaitGroup
			for i, idx := range level {
				sp := levelSpec(idx)
				wg.Add(1)
				go func(i, idx int, sp extrasSpec) {
					defer wg.Done()
					// A worker panic would kill the process (the caller's
					// recover boundary cannot see it), so each worker has its
					// own, producing the same typed error.
					defer func() {
						if r := recover(); r != nil {
							outs[i].err = &InternalError{
								Query: "pattern " + a.Query.Patterns[idx].ID,
								Panic: r,
								Stack: debug.Stack(),
							}
						}
					}()
					o := &outs[i]
					o.pr, o.rel, o.gr, o.err = en.runPattern(ctx, a, plan, idx, sp)
				}(i, idx, sp)
			}
			wg.Wait()
		}
		empty := -1
		for i, idx := range level {
			o := &outs[i]
			if o.err != nil {
				return nil, stats, o.err
			}
			stats.Rel.RowsScanned += o.rel.RowsScanned
			stats.Rel.IndexLookups += o.rel.IndexLookups
			stats.Rel.HashJoinBuilds += o.rel.HashJoinBuilds
			stats.Graph.NodesVisited += o.gr.NodesVisited
			stats.Graph.EdgesTraversed += o.gr.EdgesTraversed
			stats.Graph.IndexLookups += o.gr.IndexLookups
			stats.DataQueries++
			stats.PatternRows += len(o.pr.rows)
			results[idx] = o.pr
			if len(o.pr.rows) == 0 && empty < 0 {
				empty = idx
			}
		}
		if empty >= 0 {
			stats.EmptyPatternID = a.Query.Patterns[empty].ID
			return emptyResult(a), stats, nil
		}
		if !en.DisableScheduling {
			for _, idx := range level {
				p := a.Query.Patterns[idx]
				narrow(bindings, p.Subject.ID, results[idx].rows, 1, &scratch)
				narrow(bindings, p.Object.ID, results[idx].rows, 2, &scratch)
			}
		}
	}

	res, joined, err := en.join(ctx, a, snap, results)
	if err != nil {
		return nil, stats, err
	}
	stats.JoinBindings = joined
	return res, stats, nil
}

// ExecuteParallel runs the scheduled plan with per-level concurrency
// regardless of the Parallel flag.
func (en *Engine) ExecuteParallel(ctx context.Context, a *tbql.Analyzed) (res *Result, stats Stats, err error) {
	defer guard(a, &err)
	snap := en.Store.Snapshot()
	return en.executeLevels(ctx, a, snap, en.planFor(a, snap))
}

// ExecuteDelta evaluates a query incrementally after an append: it returns
// the complete bindings that use at least one event with ID >= minEventID,
// joining each pattern's new rows against the full indexed history. On the
// materialized-view path (the default), each pattern's cached match set is
// brought up to the store frontier with one floored catch-up query —
// O(new events) — and a delta pattern's fresh rows join against the other
// patterns' cached sets, so a round costs O(delta), not O(store). When the
// ViewHighWater cap disables a view (or ViewHighWater < 0 disables views),
// the recompute path runs: one constrained execution per pattern (the
// standard delta-join rule). Both paths produce the same binding set; a
// binding with several new events appears once per delta pattern, so
// callers deduplicate firings. Queries containing a variable-length path
// pattern fall back to one full execution: even a typed path binds the
// event variable only on its final hop, so an ID floor would miss paths
// completed by a newly appended intermediate edge.
func (en *Engine) ExecuteDelta(ctx context.Context, a *tbql.Analyzed, minEventID int64) (res *Result, stats Stats, err error) {
	defer guard(a, &err)
	// One snapshot pins the whole round: the view catch-up frontier, every
	// data query, and the join all read the same store generation.
	snap := en.Store.Snapshot()
	if HasVarLenPath(a) {
		return en.execute(ctx, a, snap, nil)
	}
	plan := en.planFor(a, snap)
	if en.viewCap() > 0 {
		res, stats, ok, err := en.executeDeltaViews(ctx, a, snap, plan, minEventID)
		if err != nil {
			return nil, stats, err
		}
		if ok {
			return res, stats, nil
		}
	}
	return en.executeDeltaRecompute(ctx, a, snap, minEventID)
}

// executeDeltaRecompute is the pre-view delta join: every pattern takes a
// turn as the delta pattern and the others re-run their full data
// queries, narrowed by the scheduler's binding feed.
func (en *Engine) executeDeltaRecompute(ctx context.Context, a *tbql.Analyzed, snap *Snapshot, minEventID int64) (*Result, Stats, error) {
	combined := &Result{
		Set:           &relational.ResultSet{Columns: returnColumns(a)},
		MatchedEvents: map[int64]bool{},
	}
	var total Stats
	for i := range a.Query.Patterns {
		i := i
		res, stats, err := en.execute(ctx, a, snap, func(idx int) int64 {
			if idx == i {
				return minEventID
			}
			return 0
		})
		if err != nil {
			return nil, total, err
		}
		total.DataQueries += stats.DataQueries
		total.PatternRows += stats.PatternRows
		total.JoinBindings += stats.JoinBindings
		total.Rel.RowsScanned += stats.Rel.RowsScanned
		total.Rel.IndexLookups += stats.Rel.IndexLookups
		total.Rel.HashJoinBuilds += stats.Rel.HashJoinBuilds
		total.Graph.NodesVisited += stats.Graph.NodesVisited
		total.Graph.EdgesTraversed += stats.Graph.EdgesTraversed
		total.Graph.IndexLookups += stats.Graph.IndexLookups
		combined.Set.Rows = append(combined.Set.Rows, res.Set.Rows...)
		for ev := range res.MatchedEvents {
			combined.MatchedEvents[ev] = true
		}
	}
	if a.Query.Return.Distinct {
		combined.Set.Rows = relational.DedupRows(combined.Set.Rows)
	}
	return combined, total, nil
}

// deltaScratch is the reusable per-round state of a view-backed delta
// join: the per-pattern result slots, the binding-set map, the narrow
// scratch, and the per-pattern filter output buffers. Pooled on the
// engine so steady-state standing-query rounds allocate almost nothing.
type deltaScratch struct {
	results  []patternRows
	bindings map[string][]int64
	ids      []int64
	bufs     [][][5]int64
}

func (en *Engine) acquireDeltaScratch(n int) *deltaScratch {
	sc, _ := en.scratchPool.Get().(*deltaScratch)
	if sc == nil {
		sc = &deltaScratch{bindings: make(map[string][]int64)}
	}
	if cap(sc.results) < n {
		sc.results = make([]patternRows, n)
		sc.bufs = make([][][5]int64, n)
	}
	sc.results = sc.results[:n]
	sc.bufs = sc.bufs[:n]
	return sc
}

func (en *Engine) releaseDeltaScratch(sc *deltaScratch) {
	for i := range sc.results {
		sc.results[i] = patternRows{}
	}
	clear(sc.bindings)
	en.scratchPool.Put(sc)
}

// HasVarLenPath reports whether any pattern is a variable-length path —
// the ExecuteDelta full-evaluation fallback criterion, shared with the
// standing-query layer (which seeds its dedup set for exactly these
// queries).
func HasVarLenPath(a *tbql.Analyzed) bool {
	for _, p := range a.Query.Patterns {
		if p.Path != nil && (p.Path.MinLen != 1 || p.Path.MaxLen != 1) {
			return true
		}
	}
	return false
}

func countConjuncts(e relational.Expr) int {
	if bin, ok := e.(relational.BinOp); ok && bin.Op == "and" {
		return countConjuncts(bin.L) + countConjuncts(bin.R)
	}
	return 1
}

// narrow intersects the binding set of an entity with the IDs seen in a
// pattern's rows (column col). Sets are sorted unique slices: the new IDs
// are sorted and deduplicated in place, and an existing set shrinks via a
// linear merge-intersection — no per-pattern hash maps. scratch is the
// execution's reusable ID buffer: a first-time binding keeps the buffer
// (ownership transfers into the map), an intersection returns it for the
// next call.
func narrow(bindings map[string][]int64, entityID string, rows [][5]int64, col int, scratch *[]int64) {
	ids := (*scratch)[:0]
	if cap(ids) < len(rows) {
		ids = make([]int64, 0, len(rows))
	}
	for _, r := range rows {
		ids = append(ids, r[col])
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	ids = dedupSorted(ids)
	prev, ok := bindings[entityID]
	if !ok {
		bindings[entityID] = ids
		*scratch = nil
		return
	}
	bindings[entityID] = intersectSorted(prev, ids)
	*scratch = ids
}

// dedupSorted removes adjacent duplicates in place.
func dedupSorted(ids []int64) []int64 {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// intersectSorted writes the intersection of two sorted unique slices into
// a's prefix.
func intersectSorted(a, b []int64) []int64 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func returnColumns(a *tbql.Analyzed) []string {
	cols := make([]string, len(a.ReturnItems))
	for i, item := range a.ReturnItems {
		cols[i] = item.EntityID + "." + item.Attr
	}
	return cols
}

// join combines per-pattern rows into complete bindings, enforcing shared
// entity identity, temporal relationships, attribute relationships, and
// global filters, then projects the return clause. The 2-pattern case
// hash-joins on the shared entity variables; larger conjunctions use the
// backtracking walk. Entity attributes resolve through the pinned snapshot
// when one is given (concurrent executions must not probe the live intern
// maps, which the writer mutates).
func (en *Engine) join(ctx context.Context, a *tbql.Analyzed, snap *Snapshot, results []patternRows) (*Result, int, error) {
	attrOf := en.Store.EntityAttr
	if snap != nil {
		attrOf = snap.EntityAttr
	}
	q := a.Query
	rs := &relational.ResultSet{Columns: returnColumns(a)}
	matched := make(map[int64]bool)
	joined := 0

	// Amortized cancellation checkpoint for the join loops: the outer rows
	// of the backtracking walk and the hash-join probe loop poll every 256
	// iterations (a nil context makes it a nil compare).
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var tick uint32
	checkCancel := func() error {
		if done == nil {
			return nil
		}
		if tick++; tick&255 != 1 {
			return nil
		}
		select {
		case <-done:
			return ctx.Err()
		default:
			return nil
		}
	}

	// Join in ascending row-count order to keep intermediates small.
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return len(results[order[x]].rows) < len(results[order[y]].rows)
	})

	entityBind := make(map[string]int64)
	pattTimes := make(map[string][2]int64) // pattern ID -> start,end
	pattEvent := make(map[string]int64)    // pattern ID -> event row ID

	var resolveAttr func(c relational.ColRef) (relational.Value, error)
	resolveAttr = func(c relational.ColRef) (relational.Value, error) {
		id, ok := entityBind[c.Qualifier]
		if !ok {
			return relational.Null(), fmt.Errorf("engine: unbound entity %s", c.Qualifier)
		}
		return attrOf(id, c.Column), nil
	}

	checkRelations := func() (bool, error) {
		for _, rel := range q.Relations {
			switch rel.Kind {
			case tbql.RelAttr:
				v, err := relational.EvalExpr(rel.Attr, resolveAttr)
				if err != nil {
					return false, err
				}
				if !v.Truthy() {
					return false, nil
				}
			default:
				ta, okA := pattTimes[rel.A]
				tb, okB := pattTimes[rel.B]
				if !okA || !okB {
					return false, fmt.Errorf("engine: temporal relation on pattern without event times")
				}
				if !temporalHolds(rel, ta[0], tb[0]) {
					return false, nil
				}
			}
		}
		return true, nil
	}

	// emit runs on every complete binding: relation checks, event
	// collection, and return projection. Shared by the hash join and the
	// backtracking walk.
	emit := func() error {
		ok, err := checkRelations()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		joined++
		for _, ev := range pattEvent {
			matched[ev] = true
		}
		row := make([]relational.Value, len(a.ReturnItems))
		for i, item := range a.ReturnItems {
			row[i] = attrOf(entityBind[item.EntityID], item.Attr)
		}
		rs.Rows = append(rs.Rows, row)
		return nil
	}

	// bindRow binds one pattern's row, returning false when it conflicts
	// with existing bindings, plus an undo closure.
	bindRow := func(pr patternRows, r [5]int64) (bool, func()) {
		p := q.Patterns[pr.idx]
		sPrev, sBound := entityBind[p.Subject.ID]
		if sBound && sPrev != r[1] {
			return false, nil
		}
		oPrev, oBound := entityBind[p.Object.ID]
		if oBound && oPrev != r[2] {
			return false, nil
		}
		if !sBound {
			entityBind[p.Subject.ID] = r[1]
		}
		// Re-check the object binding: binding the subject may have bound
		// the same variable when subject and object share it.
		oPrev, oBound = entityBind[p.Object.ID]
		if oBound && oPrev != r[2] {
			if !sBound {
				delete(entityBind, p.Subject.ID)
			}
			return false, nil
		}
		if !oBound {
			entityBind[p.Object.ID] = r[2]
		}
		if pr.hasEvent {
			pattTimes[p.ID] = [2]int64{r[3], r[4]}
			pattEvent[p.ID] = r[0]
		}
		return true, func() {
			if pr.hasEvent {
				delete(pattTimes, p.ID)
				delete(pattEvent, p.ID)
			}
			if !oBound {
				delete(entityBind, p.Object.ID)
			}
			if !sBound {
				delete(entityBind, p.Subject.ID)
			}
		}
	}

	runJoin := func() error {
		if len(order) == 2 {
			if ok, err := hashJoin2(q, results, order, bindRow, emit, checkCancel); ok {
				return err
			}
		}
		var walk func(k int) error
		walk = func(k int) error {
			if k == len(order) {
				return emit()
			}
			pr := results[order[k]]
			for _, r := range pr.rows {
				if err := checkCancel(); err != nil {
					return err
				}
				ok, undo := bindRow(pr, r)
				if !ok {
					continue
				}
				if err := walk(k + 1); err != nil {
					undo()
					return err
				}
				undo()
			}
			return nil
		}
		return walk(0)
	}
	if err := runJoin(); err != nil {
		return nil, joined, err
	}

	if q.Return.Distinct {
		rs.Rows = relational.DedupRows(rs.Rows)
	}
	return &Result{Set: rs, MatchedEvents: matched}, joined, nil
}

// hashJoin2 joins exactly two patterns on their shared entity variables:
// the smaller side is indexed by its shared-variable values, the larger
// side probes. Returns ok=false (and does nothing) when the patterns
// share no entity variable — the cross-product walk handles that case.
func hashJoin2(q *tbql.Query, results []patternRows, order []int,
	bindRow func(patternRows, [5]int64) (bool, func()), emit func() error,
	checkCancel func() error) (bool, error) {

	small, large := results[order[0]], results[order[1]]
	ps, pl := q.Patterns[small.idx], q.Patterns[large.idx]

	// Shared entity variables, as (column in small row, column in large
	// row) pairs; row columns 1 and 2 hold subject and object IDs. Up to
	// four pairs arise when a pattern uses one variable as both subject
	// and object (self-loop) on each side.
	type colPair struct{ s, l int }
	var shared []colPair
	for _, sc := range []struct {
		id  string
		col int
	}{{ps.Subject.ID, 1}, {ps.Object.ID, 2}} {
		if sc.id == pl.Subject.ID {
			shared = append(shared, colPair{sc.col, 1})
		}
		if sc.id == pl.Object.ID {
			shared = append(shared, colPair{sc.col, 2})
		}
	}
	if len(shared) == 0 {
		return false, nil
	}

	type key [4]int64
	keyOfSmall := func(r [5]int64) key {
		var k key
		for i, cp := range shared {
			k[i] = r[cp.s]
		}
		return k
	}
	keyOfLarge := func(r [5]int64) key {
		var k key
		for i, cp := range shared {
			k[i] = r[cp.l]
		}
		return k
	}

	idx := make(map[key][][5]int64, len(small.rows))
	for _, r := range small.rows {
		k := keyOfSmall(r)
		idx[k] = append(idx[k], r)
	}
	for _, rl := range large.rows {
		if err := checkCancel(); err != nil {
			return true, err
		}
		for _, rsm := range idx[keyOfLarge(rl)] {
			okS, undoS := bindRow(small, rsm)
			if !okS {
				continue
			}
			okL, undoL := bindRow(large, rl)
			if !okL {
				undoS()
				continue
			}
			err := emit()
			undoL()
			undoS()
			if err != nil {
				return true, err
			}
		}
	}
	return true, nil
}

func temporalHolds(rel tbql.Relation, startA, startB int64) bool {
	switch rel.Kind {
	case tbql.RelBefore:
		if startA >= startB {
			return false
		}
		if rel.HasDur {
			d := startB - startA
			return d >= rel.LoDur.Microseconds() && d <= rel.HiDur.Microseconds()
		}
		return true
	case tbql.RelAfter:
		if startA <= startB {
			return false
		}
		if rel.HasDur {
			d := startA - startB
			return d >= rel.LoDur.Microseconds() && d <= rel.HiDur.Microseconds()
		}
		return true
	case tbql.RelWithin:
		d := startA - startB
		if d < 0 {
			d = -d
		}
		return d <= rel.HiDur.Microseconds()
	}
	return false
}

// ExecuteMonolithicSQL lowers the query into one giant statement and runs
// it on the relational backend (query type (b) in RQ4). The statement is
// lowered to an AST and compiled once per plan — no SQL text, no parser.
func (en *Engine) ExecuteMonolithicSQL(ctx context.Context, a *tbql.Analyzed) (rs *relational.ResultSet, stats Stats, err error) {
	defer guard(a, &err)
	pr, err := en.planFor(a, nil).monolithicSQL(en.Store, a)
	if err != nil {
		return nil, stats, err
	}
	rs, qs, err := pr.QueryCtx(ctx, nil)
	stats.DataQueries = 1
	stats.Rel = qs
	return rs, stats, err
}

// ExecuteMonolithicCypher lowers the query into one giant multi-MATCH
// graph query and runs it with the clause-at-a-time plan that production
// graph databases use for multi-MATCH statements (query type (d) in RQ4).
func (en *Engine) ExecuteMonolithicCypher(ctx context.Context, a *tbql.Analyzed) (rs *relational.ResultSet, stats Stats, err error) {
	defer guard(a, &err)
	q, err := en.planFor(a, nil).monolithicCypher(a)
	if err != nil {
		return nil, stats, err
	}
	rs, gs, err := en.Store.Graph.ExecWithCtx(ctx, q, nil)
	stats.DataQueries = 1
	stats.Graph = gs
	return rs, stats, err
}

// MatchEventsPerPattern returns the union of event IDs matched by each
// pattern's data query evaluated independently. This is the paper's RQ2
// scoring semantics ("the system events found by the event patterns in the
// synthesized TBQL query"): an excessive pattern that matches nothing does
// not empty the other patterns' findings.
func (en *Engine) MatchEventsPerPattern(ctx context.Context, a *tbql.Analyzed) (matched map[int64]bool, err error) {
	defer guard(a, &err)
	matched = make(map[int64]bool)
	snap := en.Store.Snapshot()
	plan := en.planFor(a, snap)
	for idx := range a.Query.Patterns {
		pr, _, _, err := en.runPattern(ctx, a, plan, idx, extrasSpec{snap: snap})
		if err != nil {
			return nil, err
		}
		if !pr.hasEvent {
			continue
		}
		for _, r := range pr.rows {
			matched[r[0]] = true
		}
	}
	return matched, nil
}

// Hunt parses, analyzes, and executes TBQL source with the scheduled
// plan. The analyzed form is cached by source text, so a repeat hunt
// reuses the compiled query plan (IR and backend plan variants) instead of
// re-parsing anything. ctx cancels the execution cooperatively (see
// Execute); a nil context never cancels.
func (en *Engine) Hunt(ctx context.Context, src string) (*Result, Stats, error) {
	a, err := en.analyzedFor(src)
	if err != nil {
		return nil, Stats{}, err
	}
	return en.Execute(ctx, a)
}

// analyzedFor returns the cached parse+analyze result for src.
func (en *Engine) analyzedFor(src string) (*tbql.Analyzed, error) {
	en.huntMu.Lock()
	if a, ok := en.analyzed[src]; ok {
		en.huntMu.Unlock()
		return a, nil
	}
	en.huntMu.Unlock()

	q, err := tbql.Parse(src)
	if err != nil {
		return nil, err
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		return nil, err
	}

	en.huntMu.Lock()
	if len(en.analyzed) >= maxCachedAnalyzed {
		en.analyzed = nil
	}
	if en.analyzed == nil {
		en.analyzed = make(map[string]*tbql.Analyzed)
	}
	en.analyzed[src] = a
	en.huntMu.Unlock()
	return a, nil
}
