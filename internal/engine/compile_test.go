package engine

import (
	"strings"
	"testing"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/graphdb"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// tinyStore builds a minimal store for compilation tests.
func tinyStore(t testing.TB) *Store {
	t.Helper()
	log := audit.NewLog()
	p := log.Entities.Intern(audit.NewProcessEntity(1, "/bin/tar", "root", "root", ""))
	f := log.Entities.Intern(audit.NewFileEntity("/etc/passwd", "root", "root"))
	g := log.Entities.Intern(audit.NewFileEntity("/tmp/out", "root", "root"))
	log.Append(audit.Event{SubjectID: p.ID, ObjectID: f.ID, Op: audit.OpRead, StartTime: 1_000_000, EndTime: 1_000_001})
	log.Append(audit.Event{SubjectID: p.ID, ObjectID: g.ID, Op: audit.OpWrite, StartTime: 2_000_000, EndTime: 2_000_001})
	store, err := NewStore(log)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func parse(t testing.TB, src string) *tbql.Analyzed {
	t.Helper()
	q, err := tbql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// patternText lowers pattern idx the way execution does and prints the
// resulting statement or traversal query.
func patternText(store *Store, a *tbql.Analyzed, idx int) string {
	ir := tbql.Lower(a)[idx]
	if ir.UsesGraph() {
		return graphdb.Format(lowerPathQuery(store.bounds(), ir.Path))
	}
	return relational.Format(lowerEventStmt(store.bounds(), ir.Event))
}

func TestCompilePatternSQLParsesAndRuns(t *testing.T) {
	store := tinyStore(t)
	a := parse(t, `proc p["%tar%"] read file f["%passwd%"] as e1 return distinct p`)
	sql := patternText(store, a, 0)
	rs, err := store.Rel.Query(sql)
	if err != nil {
		t.Fatalf("compiled SQL must run: %v\n%s", err, sql)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d\n%s", rs.Len(), sql)
	}
}

func TestCompilePatternSQLAnchorSwap(t *testing.T) {
	store := tinyStore(t)
	// Object heavily filtered, subject unfiltered: anchor on the object.
	a := parse(t, `proc p read file f[name = "/etc/passwd" && user = "root"] as e1 return distinct p`)
	sql := patternText(store, a, 0)
	if !strings.HasPrefix(sql[strings.Index(sql, "FROM"):], "FROM entities o") {
		t.Errorf("expected object-anchored FROM:\n%s", sql)
	}
	// Subject filtered: anchor on the subject.
	a = parse(t, `proc p["%tar%"] read file f as e1 return distinct p`)
	sql = patternText(store, a, 0)
	if !strings.Contains(sql, "FROM entities s") {
		t.Errorf("expected subject-anchored FROM:\n%s", sql)
	}
}

func TestCompilePatternSQLWindow(t *testing.T) {
	store := tinyStore(t)
	a := parse(t, `proc p read file f as e1 from "1970-01-01 00:00:01" to "1970-01-01 00:00:01" return distinct f`)
	sql := patternText(store, a, 0)
	if !strings.Contains(sql, "e.start_time >= 1000000") ||
		!strings.Contains(sql, "e.start_time <= 1000000") {
		t.Errorf("window bounds missing:\n%s", sql)
	}
	rs, err := store.Rel.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("window should admit only the read event: %d rows", rs.Len())
	}
}

func TestCompileMonolithicSQLValid(t *testing.T) {
	store := tinyStore(t)
	a := parse(t, `proc p["%tar%"] read file f["%passwd%"] as e1
proc p write file g["%/tmp/%"] as e2
with e1 before[0-5 sec] e2
return distinct p, f, g`)
	sql, err := CompileMonolithicSQL(store, a)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := store.Rel.Query(sql)
	if err != nil {
		t.Fatalf("monolithic SQL must run: %v\n%s", err, sql)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d\n%s", rs.Len(), sql)
	}
	// Declarative FROM order: all entity tables precede the event tables.
	fromPart := sql[strings.Index(sql, "FROM"):strings.Index(sql, "WHERE")]
	if strings.Index(fromPart, "events") < strings.Index(fromPart, "entities g") {
		t.Errorf("naive translation lists entities before events:\n%s", fromPart)
	}
}

func TestCompileMonolithicSQLRejectsVarLen(t *testing.T) {
	store := tinyStore(t)
	a := parse(t, `proc p ~>(1~3) file f return distinct p`)
	if _, err := CompileMonolithicSQL(store, a); err == nil {
		t.Fatal("variable-length paths cannot compile to SQL")
	}
}

func TestCompileMonolithicCypherValid(t *testing.T) {
	store := tinyStore(t)
	a := parse(t, `proc p["%tar%"] read file f["%passwd%"] as e1
proc p write file g["%/tmp/%"] as e2
with e1 before e2
return distinct p, f, g`)
	cy, err := CompileMonolithicCypher(store, a)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(cy, "MATCH") != 2 {
		t.Errorf("one MATCH per pattern expected:\n%s", cy)
	}
	q, err := graphdb.ParseQuery(cy)
	if err != nil {
		t.Fatalf("compiled Cypher must parse: %v\n%s", err, cy)
	}
	rs, _, err := store.Graph.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("rows = %d\n%s", rs.Len(), cy)
	}
}

func TestCompilePatternCypherVarLenForms(t *testing.T) {
	store := tinyStore(t)
	cases := []struct {
		src  string
		want string
	}{
		{`proc p ~>(2~4)[read] file f return distinct p`, "-[*1..3]-"},
		{`proc p ->[write] file f return distinct p`, "-[e:write]->"},
		{`proc p ~> file f return distinct p`, "-[*1..]-"},
	}
	for _, c := range cases {
		a := parse(t, c.src)
		cy := patternText(store, a, 0)
		if !strings.Contains(cy, c.want) {
			t.Errorf("%s\ncompiled %q, want fragment %q", c.src, cy, c.want)
		}
		if _, err := graphdb.ParseQuery(cy); err != nil {
			t.Errorf("%s: compiled Cypher must parse: %v\n%s", c.src, err, cy)
		}
	}
}

func TestTemporalSQLForms(t *testing.T) {
	a := parse(t, `proc p read file f as e1
proc p write file g as e2
with e1 before[1-5 sec] e2
return distinct p`)
	e, err := temporalExpr(a, a.Query.Relations[0])
	if err != nil {
		t.Fatal(err)
	}
	c := relational.FormatExpr(e)
	for _, frag := range []string{"e1.start_time < e2.start_time", ">= 1000000", "<= 5000000"} {
		if !strings.Contains(c, frag) {
			t.Errorf("missing %q in %q", frag, c)
		}
	}
	// within
	a = parse(t, `proc p read file f as e1
proc p write file g as e2
with e1 within[0-2 sec] e2
return distinct p`)
	if _, err := temporalExpr(a, a.Query.Relations[0]); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWindowKinds(t *testing.T) {
	store := tinyStore(t)
	mk := func(kind tbql.WindowKind, from, to time.Time, dur time.Duration) (int64, int64) {
		return store.bounds().timeWindow(&tbql.Window{Kind: kind, From: from, To: to, Dur: dur})
	}
	epoch1 := time.Unix(1, 0).UTC()
	if lo, hi := mk(tbql.WindRange, epoch1, epoch1, 0); lo != 1_000_000 || hi != 1_000_000 {
		t.Errorf("range window = [%d,%d]", lo, hi)
	}
	if lo, _ := mk(tbql.WindAfter, epoch1, time.Time{}, 0); lo != 1_000_000 {
		t.Errorf("after window lo = %d", lo)
	}
	if _, hi := mk(tbql.WindBefore, time.Time{}, epoch1, 0); hi != 1_000_000 {
		t.Errorf("before window hi = %d", hi)
	}
	if lo, hi := mk(tbql.WindLast, time.Time{}, time.Time{}, time.Second); hi != store.MaxTime || lo != store.MaxTime-1_000_000 {
		t.Errorf("last window = [%d,%d]", lo, hi)
	}
}

// TestInListRendering pins how ID sets print: a literal list in sorted
// input order, and a scheduler binding set as the optional placeholder
// the executed statement carries.
func TestInListRendering(t *testing.T) {
	ids := relational.InList{E: colRef("s", "id"), Vals: []relational.Expr{intLit(3), intLit(1), intLit(2)}}
	if got := relational.FormatExpr(ids); got != "s.id IN (3, 1, 2)" {
		t.Errorf("literal list = %q", got)
	}
	set := relational.ParamIDs{E: colRef("s", "id"), Slot: 0, Optional: true}
	if got := relational.FormatExpr(set); got != "s.id IN $0?" {
		t.Errorf("binding set = %q", got)
	}
}

func TestRenderSQLExprOperators(t *testing.T) {
	e := relational.BinOp{Op: "or",
		L: relational.BinOp{Op: "like", L: relational.ColRef{Column: "name"}, R: relational.Lit{V: relational.Str("%x%")}},
		R: relational.InList{E: relational.ColRef{Column: "group"}, Vals: []relational.Expr{relational.Lit{V: relational.Str("root")}}, Negate: true},
	}
	got := relational.FormatExpr(qualify(e, "t", sqlColumn))
	for _, frag := range []string{"t.name LIKE '%x%'", "t.grp NOT IN ('root')", " OR "} {
		if !strings.Contains(got, frag) {
			t.Errorf("missing %q in %q", frag, got)
		}
	}
	// Cypher keeps "group" as a property name.
	cy := relational.FormatExpr(qualify(e, "n", nil))
	if !strings.Contains(cy, "n.group") {
		t.Errorf("cypher render = %q", cy)
	}
}

// TestWideLastWindowPrintsParsableBound covers a LAST window wider than
// the store's history: its lower bound lowers to a negative literal,
// which every printed form must carry through its parser intact.
func TestWideLastWindowPrintsParsableBound(t *testing.T) {
	store := tinyStore(t)
	for _, src := range []string{
		`proc p read file f as e1 last 1 day return distinct f`,
		`proc p ->[read] file f as e1 last 1 day return distinct f`,
	} {
		a := parse(t, src)
		text := patternText(store, a, 0)
		if !strings.Contains(text, "e.start_time >= -") {
			t.Fatalf("%s: window bound should be negative:\n%s", src, text)
		}
		var rows int
		if strings.HasPrefix(text, "MATCH") {
			rs, err := store.Graph.Query(text)
			if err != nil {
				t.Fatalf("%v\n%s", err, text)
			}
			rows = rs.Len()
		} else {
			rs, err := store.Rel.Query(text)
			if err != nil {
				t.Fatalf("%v\n%s", err, text)
			}
			rows = rs.Len()
		}
		if rows != 1 {
			t.Fatalf("%s: %d rows, want the read event\n%s", src, rows, text)
		}
		sql, err := CompileMonolithicSQL(store, a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := relational.ParseSelect(sql); err != nil {
			t.Fatalf("monolithic SQL: %v\n%s", err, sql)
		}
		cy, err := CompileMonolithicCypher(store, a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := graphdb.ParseQuery(cy); err != nil {
			t.Fatalf("monolithic Cypher: %v\n%s", err, cy)
		}
	}
}
