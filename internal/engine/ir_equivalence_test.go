package engine

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/extract"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/qir"
	"threatraptor/internal/relational"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

// caseAnalyzed synthesizes and analyzes the TBQL query of one benchmark
// case, exactly as the end-to-end pipeline would.
func caseAnalyzed(t *testing.T, c *cases.Case) *tbql.Analyzed {
	return caseAnalyzedOpts(t, c, synth.Options{})
}

// caseAnalyzedOpts is caseAnalyzed with the synthesis options given.
func caseAnalyzedOpts(t *testing.T, c *cases.Case, opts synth.Options) *tbql.Analyzed {
	t.Helper()
	graph := extract.New(extract.DefaultOptions()).Extract(c.Report).Graph
	q, _, err := synth.Synthesize(graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// roundTripSQL prints an executed statement AST and parses the text
// back; the parse must equal the original.
func roundTripSQL(t *testing.T, stmt *relational.SelectStmt) *relational.SelectStmt {
	t.Helper()
	text := relational.Format(stmt)
	got, err := relational.ParseSelect(text)
	if err != nil {
		t.Fatalf("printed SQL must parse: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(got, stmt) {
		t.Fatalf("SQL round trip changed the AST:\n%s\nparsed   %#v\nexecuted %#v", text, got, stmt)
	}
	return got
}

// roundTripCypher is roundTripSQL for graph queries. ClauseAtATime, an
// execution-model flag, has no text form and is not compared.
func roundTripCypher(t *testing.T, q *graphdb.Query) *graphdb.Query {
	t.Helper()
	text := graphdb.Format(q)
	got, err := graphdb.ParseQuery(text)
	if err != nil {
		t.Fatalf("printed Cypher must parse: %v\n%s", err, text)
	}
	want := *q
	want.ClauseAtATime = false
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("Cypher round trip changed the AST:\n%s\nparsed   %#v\nexecuted %#v", text, got, &want)
	}
	return got
}

// reparsedRows executes the reparsed copy of one pattern's executed AST
// — stmt, or deltaStmt under a delta floor, or gq for a graph pattern —
// binding sp's parameters the way runPattern binds them.
func reparsedRows(t *testing.T, store *Store, pp *patternPlan, stmt, deltaStmt *relational.SelectStmt, gq *graphdb.Query, sp extrasSpec) [][5]int64 {
	t.Helper()
	var rows [][5]int64
	if gq != nil {
		var gp graphdb.ExecParams
		if len(sp.subj) > 0 {
			gp.Nodes = append(gp.Nodes, graphdb.NodeBinding{Var: "s", IDs: sp.subj})
		}
		if len(sp.obj) > 0 {
			gp.Nodes = append(gp.Nodes, graphdb.NodeBinding{Var: "o", IDs: sp.obj})
		}
		if sp.delta > 0 && pp.ir.Path.HasEdgeVar {
			gp.EdgeVar, gp.MinEdgeID = "e", sp.delta
		}
		rs, _, err := store.Graph.ExecWith(gq, &gp)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rs.Rows {
			var r [5]int64
			if len(rs.Columns) == 5 {
				for i := 0; i < 5; i++ {
					r[i] = row[i].I
				}
			} else {
				r[1], r[2] = row[0].I, row[1].I
			}
			rows = append(rows, r)
		}
		return rows
	}
	if sp.delta > 0 {
		stmt = deltaStmt
	}
	pr, err := store.Rel.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	var params relational.Params
	params.Lists[qir.SlotSubjIDs] = sp.subj
	params.Lists[qir.SlotObjIDs] = sp.obj
	params.Ints[qir.SlotDelta] = sp.delta
	rs, _, err := pr.Query(&params)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rs.Rows {
		rows = append(rows, [5]int64{row[0].I, row[1].I, row[2].I, row[3].I, row[4].I})
	}
	return rows
}

// filterRows applies an extras spec to a pattern's unconstrained rows in
// test code: the reference every constrained execution must match.
func filterRows(rows [][5]int64, sp extrasSpec) [][5]int64 {
	in := func(ids []int64, id int64) bool {
		if len(ids) == 0 {
			return true
		}
		i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
		return i < len(ids) && ids[i] == id
	}
	var out [][5]int64
	for _, r := range rows {
		if in(sp.subj, r[1]) && in(sp.obj, r[2]) && r[0] >= sp.delta {
			out = append(out, r)
		}
	}
	return out
}

// explainedQueries returns the SQL and Cypher texts Explain printed for
// the patterns, in pattern order.
func explainedQueries(out string) []string {
	var texts []string
	for _, line := range strings.Split(out, "\n") {
		if s, ok := strings.CutPrefix(line, "  SQL: "); ok {
			texts = append(texts, s)
		} else if s, ok := strings.CutPrefix(line, "  Cypher: "); ok {
			texts = append(texts, s)
		}
	}
	return texts
}

func sortedRows(rows [][5]int64) [][5]int64 {
	out := append([][5]int64(nil), rows...)
	sort.Slice(out, func(a, b int) bool {
		for k := 0; k < 5; k++ {
			if out[a][k] != out[b][k] {
				return out[a][k] < out[b][k]
			}
		}
		return false
	})
	return out
}

// bindingSample derives a small sorted unique binding set from a column
// of the pattern's unconstrained rows, as the scheduler would feed
// forward. It takes every other distinct value, so that whenever the
// column holds more than one value the binding set excludes some rows.
func bindingSample(rows [][5]int64, col, max int) []int64 {
	seen := map[int64]bool{}
	var ids []int64
	for _, r := range rows {
		if !seen[r[col]] {
			if len(seen)%2 == 0 {
				ids = append(ids, r[col])
			}
			seen[r[col]] = true
		}
		if len(ids) >= max {
			break
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func sameRowLists(t *testing.T, what string, got, want [][5]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s row %d: %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestIRGoldenEquivalence pins the one lowering for the synthesized
// queries of EVERY case — the benchmark cases, including all four DARPA
// TC case files (ClearScope, FiveDirections, THEIA, TRACE), and the
// extras — in all three synthesis modes (event patterns and length-1
// paths, also under a LAST window wider than the store's history, whose
// lower bound is negative; variable-length paths up to 2 hops), so both
// backends are covered:
//   - every pattern's executed statement or traversal query, and both
//     monolithic ones, print (Format) to text that parses back to the
//     same AST;
//   - Explain prints, byte for byte, the text of the ASTs that execute,
//     and CompileMonolithicSQL/Cypher (Table X) print the monolithic
//     ASTs the RQ4 comparison executes;
//   - across every extras shape the scheduler can produce (binding sets
//     on either or both sides, the standing-query delta floor),
//     runPattern's rows equal the reparsed AST's rows under the same
//     parameters, and equal the unconstrained rows filtered by the spec
//     in test code.
func TestIRGoldenEquivalence(t *testing.T) {
	for _, c := range append(cases.All(), cases.Extras()...) {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			gen, err := c.Generate(0.5)
			if err != nil {
				t.Fatal(err)
			}
			store, err := NewStore(gen.Log)
			if err != nil {
				t.Fatal(err)
			}
			wide := &tbql.Window{Kind: tbql.WindLast, Dur: 100 * 365 * 24 * time.Hour}
			for _, opts := range []synth.Options{
				{},
				{Window: wide},
				{Mode: synth.ModeLength1Paths},
				{Mode: synth.ModeLength1Paths, Window: wide},
				{Mode: synth.ModeVarLenPaths, MaxPathLen: 2},
			} {
				checkOneLowering(t, store, caseAnalyzedOpts(t, c, opts), int64(len(gen.Log.Events)/2+1))
			}
		})
	}
}

// checkOneLowering runs TestIRGoldenEquivalence's checks for one analyzed
// query; delta is the standing-query floor the delta specs bind.
func checkOneLowering(t *testing.T, store *Store, a *tbql.Analyzed, delta int64) {
	t.Helper()
	en := &Engine{Store: store}
	plan := en.planFor(a, nil)

	var executed []string
	for idx, p := range a.Query.Patterns {
		pp := &plan.pats[idx]
		var stmt, deltaStmt *relational.SelectStmt
		var gq *graphdb.Query
		if pp.usesGraph {
			gq = roundTripCypher(t, pp.gq)
			executed = append(executed, graphdb.Format(pp.gq))
		} else {
			pr, err := pp.prepared(store, plan.bounds)
			if err != nil {
				t.Fatal(err)
			}
			prDelta, err := pp.preparedDelta(store, plan.bounds)
			if err != nil {
				t.Fatal(err)
			}
			stmt, deltaStmt = roundTripSQL(t, pr.Stmt()), roundTripSQL(t, prDelta.Stmt())
			executed = append(executed, relational.Format(pr.Stmt()))
		}

		// Unconstrained rows drive the binding-set samples.
		base, _, _, err := en.runPattern(nil, a, plan, idx, extrasSpec{})
		if err != nil {
			t.Fatal(err)
		}
		subj := bindingSample(base.rows, 1, 8)
		obj := bindingSample(base.rows, 2, 8)

		specs := []extrasSpec{
			{},
			{subj: subj},
			{obj: obj},
			{subj: subj, obj: obj},
		}
		// The delta floor applies only where the data query binds
		// an event: relational patterns and edge-var path queries
		// (ExecuteDelta routes everything else to full re-runs).
		if p.Path == nil || pp.ir.Path.HasEdgeVar {
			specs = append(specs, extrasSpec{delta: delta}, extrasSpec{subj: subj, delta: delta})
		}
		for si, sp := range specs {
			got, _, _, err := en.runPattern(nil, a, plan, idx, sp)
			if err != nil {
				t.Fatalf("pattern %s spec %d: %v", p.ID, si, err)
			}
			what := fmt.Sprintf("pattern %s spec %d", p.ID, si)
			sameRowLists(t, what+" reparsed", reparsedRows(t, store, pp, stmt, deltaStmt, gq, sp), got.rows)
			sameRowLists(t, what+" vs filtered", sortedRows(got.rows), sortedRows(filterRows(base.rows, sp)))
		}
	}

	out, err := en.Explain(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := explainedQueries(out); !reflect.DeepEqual(got, executed) {
		t.Fatalf("Explain printed\n%q\nexecuted\n%q", got, executed)
	}
	if pr, err := plan.monolithicSQL(store, a); err == nil {
		roundTripSQL(t, pr.Stmt())
		text, err := CompileMonolithicSQL(store, a)
		if err != nil || text != relational.Format(pr.Stmt()) {
			t.Fatalf("Table X SQL differs from the executed monolithic statement (%v):\n%s", err, text)
		}
		if !strings.Contains(out, "--- monolithic SQL (RQ4 comparison) ---\n"+text+"\n") {
			t.Fatalf("Explain does not print the executed monolithic SQL:\n%s", out)
		}
	}
	q, err := plan.monolithicCypher(a)
	if err != nil {
		t.Fatal(err)
	}
	roundTripCypher(t, q)
	text, err := CompileMonolithicCypher(store, a)
	if err != nil || text != graphdb.Format(q) {
		t.Fatalf("Table X Cypher differs from the executed monolithic query (%v):\n%s", err, text)
	}
	if !strings.Contains(out, "--- monolithic Cypher (RQ4 comparison) ---\n"+text+"\n") {
		t.Fatalf("Explain does not print the executed monolithic Cypher:\n%s", out)
	}
}

// TestIRLiveAppendEquivalence covers the live/append scenario: a store
// built in two halves through AppendBatch must answer every case's
// synthesized query exactly like a store batch-built from the full log.
func TestIRLiveAppendEquivalence(t *testing.T) {
	for _, c := range cases.All() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			gen, err := c.Generate(0.3)
			if err != nil {
				t.Fatal(err)
			}
			full, err := NewStore(gen.Log)
			if err != nil {
				t.Fatal(err)
			}
			half := len(gen.Log.Events) / 2
			liveLog := &audit.Log{
				Entities: gen.Log.Entities,
				Events:   append([]audit.Event(nil), gen.Log.Events[:half]...),
			}
			live, err := NewStore(liveLog)
			if err != nil {
				t.Fatal(err)
			}
			enLive := &Engine{Store: live}
			a := caseAnalyzed(t, c)

			// Execute against the half store first so cached plans must
			// survive (or correctly invalidate across) the append.
			if _, _, err := enLive.Execute(nil, a); err != nil {
				t.Fatal(err)
			}
			rest := append([]audit.Event(nil), gen.Log.Events[half:]...)
			if err := live.AppendBatch(nil, rest); err != nil {
				t.Fatal(err)
			}

			enFull := &Engine{Store: full}
			want, _, err := enFull.Execute(nil, a)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := enLive.Execute(nil, a)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(want.Set.Strings(), got.Set.Strings()) {
				t.Fatalf("live/append store differs from batch store:\n%v\n%v",
					want.Set.Strings(), got.Set.Strings())
			}

			// Golden delta leg: for every case, the materialized-view
			// delta round over the appended half must equal the recompute
			// path's round, row for row.
			floor := int64(half) + 1
			enRecomp := &Engine{Store: live, ViewHighWater: -1}
			vres, _, err := enLive.ExecuteDelta(nil, a, floor)
			if err != nil {
				t.Fatal(err)
			}
			rres, _, err := enRecomp.ExecuteDelta(nil, a, floor)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(vres.Set.Strings(), rres.Set.Strings()) {
				t.Fatalf("view delta round differs from recompute:\n%v\n%v",
					vres.Set.Strings(), rres.Set.Strings())
			}
		})
	}
}
