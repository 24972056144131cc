package relational

import (
	"reflect"
	"strings"
	"testing"
)

// parserTestStatements are the statements this package's parser and
// executor tests run, plus the placeholder and negative-literal forms
// Format prints for lowered statements. They seed FuzzFormatRoundTrip.
var parserTestStatements = []string{
	"SELECT a FROM t WHERE a - b > 5",
	"SELECT a FROM t WHERE a + b = 10",
	"SELECT a FROM t WHERE a - b - 10 = 89",
	"SELECT a + b AS total FROM t WHERE a = 10",
	"SELECT x FROM s WHERE x + 1 > 0",
	"SELECT DISTINCT name FROM t WHERE size < 90",
	"SELECT id FROM t WHERE size >= 0 LIMIT 70",
	"SELECT l.id, r.v FROM l, r WHERE r.k = l.k ORDER BY l.id, r.v",
	"SELECT id, name FROM t WHERE name LIKE '%tar%' AND size < 60",
	"SELECT id FROM t WHERE note = 'note1' ORDER BY id",
	"SELECT id FROM t WHERE size < 30 OR name = '/etc/passwd' ORDER BY id",
	"SELECT id FROM t WHERE NOT name = '/bin/cp' AND size > 3 ORDER BY id",
	"SELECT id FROM t WHERE name LIKE '%tar%' AND size < 50 AND id > 2 ORDER BY id",
	"SELECT id, op FROM events WHERE op <> 'write'",
	"SELECT id, op FROM events WHERE op IN ('read', 'send')",
	"SELECT id, op FROM events WHERE op NOT IN ('read', 'send')",
	"SELECT DISTINCT op FROM events WHERE op LIKE '%e%' ORDER BY op",
	"SELECT d.id FROM drivers d, events e WHERE e.op IN ('read', 'send') AND e.id = d.id",
	"SELECT * FROM entities",
	"SELECT name FROM entities WHERE kind = 'proc' OR name LIKE '%upload%'",
	"SELECT name FROM entities WHERE NOT kind = 'file'",
	"SELECT name FROM entities WHERE name NOT LIKE '%tar%'",
	"SELECT id FROM events WHERE start_time >= 20 AND start_time <> 30",
	`SELECT s.name, e.op, o.name
	  FROM entities s, events e, entities o
	  WHERE e.subject_id = s.id AND e.object_id = o.id
	    AND s.name LIKE '%/bin/tar%' AND e.op = 'write'`,
	`SELECT o.name FROM events e
	  JOIN entities o ON e.object_id = o.id
	  WHERE e.op = 'read' ORDER BY o.name`,
	"SELECT id FROM events ORDER BY id DESC LIMIT 2",
	"SELECT id FROM events ORDER BY 1 LIMIT 1",
	"SELECT name AS entity_name FROM entities LIMIT 1",
	"SELECT s FROM t WHERE s = 'it''s'",
	"SELECT id FROM events -- trailing comment\nWHERE op = 'read'",
	"SELECT id FROM rows WHERE ((name LIKE '%bin%' OR id IN (1, 2, 3)) AND NOT name = 'x') ORDER BY id",
	"SELECT l.id, r.v FROM l, r WHERE l.k = r.k AND l.id < 40 ORDER BY id",
	"SELECT i.id FROM items i WHERE i.id IN (2, 3, 7, 19, 20, 21, 49) AND i.v >= 150",
	"SELECT e.id FROM events e WHERE e.start_time >= -5 AND e.end_time - -3 < -9223372036854775808",
	"SELECT e.id, s.id FROM entities s, events e WHERE e.id >= $2? AND e.subject_id = s.id AND s.id IN $0? AND e.id IN $1 AND e.start_time > $3",
	"SELECT a FROM t WHERE a - (b - c) = (a = b) AND (a OR b) AND NOT (NOT a OR b)",
}

func TestFormatRoundTrip(t *testing.T) {
	for _, src := range parserTestStatements {
		checkFormatRoundTrip(t, src)
	}
}

// checkFormatRoundTrip parses src and requires Format to print text that
// parses back to the same AST and formats to itself.
func checkFormatRoundTrip(t *testing.T, src string) {
	t.Helper()
	stmt, err := ParseSelect(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	text := Format(stmt)
	again, err := ParseSelect(text)
	if err != nil {
		t.Fatalf("printed text does not parse: %v\nsource  %q\nprinted %q", err, src, text)
	}
	if !reflect.DeepEqual(again, stmt) {
		t.Fatalf("round trip changed the AST\nsource  %q\nprinted %q\nparsed  %#v\nreparse %#v", src, text, stmt, again)
	}
	if text2 := Format(again); text2 != text {
		t.Fatalf("Format is not a fixed point\n%q\n%q", text, text2)
	}
}

// FuzzFormatRoundTrip checks Parse → Format → Parse gives the same AST
// and that Format is a fixed point, for every input the parser accepts.
func FuzzFormatRoundTrip(f *testing.F) {
	for _, src := range parserTestStatements {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := ParseSelect(src); err != nil {
			return
		}
		checkFormatRoundTrip(t, src)
	})
}

func TestFormatPrintsMinimalParentheses(t *testing.T) {
	for src, want := range map[string]string{
		"SELECT a FROM t WHERE ((a = 1) AND (b = 2)) AND c = 3":    "SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3",
		"SELECT a FROM t WHERE a = 1 AND (b = 2 AND c = 3)":        "SELECT a FROM t WHERE a = 1 AND (b = 2 AND c = 3)",
		"SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3":           "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3",
		"SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3":         "SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3",
		"SELECT a FROM t WHERE a NOT LIKE 'x%' AND NOT (b OR c)":   "SELECT a FROM t WHERE NOT a LIKE 'x%' AND NOT (b OR c)",
		"select distinct a as x from t u where a in ($1?) limit 3": "SELECT DISTINCT a AS x FROM t u WHERE a IN ($1?) LIMIT 3",
	} {
		stmt, err := ParseSelect(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := Format(stmt); got != want {
			t.Errorf("Format(%q)\n got %q\nwant %q", src, got, want)
		}
	}
}

// TestParseNegativeLiteral is the regression test for windows that lower
// to a negative bound (a LAST window wider than the store's max time):
// "-N" in a primary position is one integer literal, while "a - N" stays
// a subtraction.
func TestParseNegativeLiteral(t *testing.T) {
	stmt, err := ParseSelect("SELECT e.id FROM events e WHERE e.start_time >= -5")
	if err != nil {
		t.Fatal(err)
	}
	want := BinOp{Op: ">=", L: ColRef{Qualifier: "e", Column: "start_time"}, R: Lit{V: Int(-5)}}
	if !reflect.DeepEqual(stmt.Where, want) {
		t.Fatalf("WHERE = %#v", stmt.Where)
	}
	stmt, err = ParseSelect("SELECT a FROM t WHERE a -5 = -9223372036854775808")
	if err != nil {
		t.Fatal(err)
	}
	want = BinOp{Op: "=", L: BinOp{Op: "-", L: ColRef{Column: "a"}, R: Lit{V: Int(5)}}, R: Lit{V: Int(-1 << 63)}}
	if !reflect.DeepEqual(stmt.Where, want) {
		t.Fatalf("WHERE = %#v", stmt.Where)
	}
	if _, err := ParseSelect("SELECT a FROM t WHERE a = -b"); err == nil {
		t.Fatal("'-' before a column must stay an error")
	}

	db := NewDB()
	tb, err := db.CreateTable("t", Schema{{"v", KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{-7, -5, 0, 4} {
		if err := tb.Insert([]Value{Int(v)}); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := db.Query("SELECT v FROM t WHERE v >= -5 ORDER BY v")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Strings(); !reflect.DeepEqual(got, [][]string{{"-5"}, {"0"}, {"4"}}) {
		t.Fatalf("rows = %v", got)
	}
}

func TestParsePlaceholders(t *testing.T) {
	stmt, err := ParseSelect("SELECT s.id FROM entities s WHERE s.id >= $2? AND s.id IN $0? AND s.pid IN $1 AND s.id <> $3")
	if err != nil {
		t.Fatal(err)
	}
	var conj []Expr
	conj = flattenAnd(stmt.Where, conj)
	sid := ColRef{Qualifier: "s", Column: "id"}
	want := []Expr{
		BinOp{Op: ">=", L: sid, R: Param{Slot: 2, Prune: true}},
		ParamIDs{E: sid, Slot: 0, Optional: true},
		ParamIDs{E: ColRef{Qualifier: "s", Column: "pid"}, Slot: 1},
		BinOp{Op: "<>", L: sid, R: Param{Slot: 3}},
	}
	if !reflect.DeepEqual(conj, want) {
		t.Fatalf("conjuncts = %#v", conj)
	}
	for _, bad := range []string{
		"SELECT a FROM t WHERE a = $4",       // slot out of range
		"SELECT a FROM t WHERE a = $x",       // slot not a number
		"SELECT a FROM t WHERE a NOT IN $0?", // no negated list parameter
	} {
		if _, err := ParseSelect(bad); err == nil || !strings.HasPrefix(err.Error(), "sql:") {
			t.Errorf("%s: want a parse error, got %v", bad, err)
		}
	}
}
