package graphdb

import (
	"reflect"
	"testing"

	"threatraptor/internal/relational"
)

// TestFormatRoundTrip prints the queries this package's parser tests run
// and requires each printed text to parse back to the same AST and to
// format to itself.
func TestFormatRoundTrip(t *testing.T) {
	for _, src := range []string{
		`MATCH (s:Process)-[e:read|write]->(o:File) WHERE s.host = 'h1' AND s.exename = '/bin/tar' AND o.name LIKE '%tmp%' RETURN e.id, s.id, o.id, e.start_time`,
		`MATCH (s:Process)-[e:read]->(o:File) WHERE '/bin/tar' = s.exename AND o.host = 'h1' AND o.name = '/tmp/x' RETURN e.id, s.id, o.id`,
		`MATCH (s:Process {exename: '/bin/tar'})-[e]->(o) RETURN e.id, s.id, o.id`,
		`MATCH (o:File)<-[e:read|write]-(s:Process) WHERE o.name = '/tmp/x' AND o.host = 'h1' RETURN e.id, s.id, o.id`,
		`MATCH (s:Process)-[*0..2]-(m)-[e:read]->(o:File) WHERE s.exename = '/bin/tar' AND o.name LIKE '%/%' RETURN e.id, s.id, o.id`,
		`MATCH (s:Process)-[*1..2]-(o:File) WHERE s.exename = '/bin/tar' AND o.name = '/tmp/x' RETURN DISTINCT s.id, o.id`,
		`MATCH (s:Process)-[e]->(o:File) WHERE s.exename = '/bin/tar' OR s.exename = '/bin/sh' RETURN e.id, s.id, o.id`,
		`MATCH (n:P {pid: '42'}) RETURN n`,
		`MATCH (n:P {pid: 42, name: 'it''s'}) RETURN n`,
		`MATCH (n:P) WHERE '42' = n.pid RETURN n`,
		`MATCH (p1:Process)-[e1:write]->(f:File) MATCH (p2:Process)-[e2:read]->(f) WHERE p1.exename LIKE '%tar%' RETURN DISTINCT p1.exename, f.path, p2.exename`,
		`MATCH (p:Process)-[e1:read]->(f1:File) MATCH (p)-[e2:write]->(f2:File) WHERE e1.start_time < e2.start_time RETURN DISTINCT p.exename, f1.path, f2.path`,
		`MATCH (p1:Process)-[e1:read]->(f1:File) WHERE p1.exename LIKE '%tar%' MATCH (p1)-[e2:write]->(f2:File) WHERE f2.path = 'x' RETURN DISTINCT p1.exename, f2.path`,
		`MATCH (p:Process)-[e1:read]->(f1:File) MATCH (p)-[e2]->(o) RETURN DISTINCT p.exename ORDER BY p.exename LIMIT 2`,
		`MATCH (p:Process)-[e:read]->(f:File) RETURN p.exename, f.path ORDER BY p.exename`,
		`MATCH (p:Process {exename: '/bin/tar'})-[:write]->(f:File) RETURN f.path`,
		`MATCH (p)-[e:read]->(f) WHERE e.start_time > 40 RETURN p.exename AS exe ORDER BY p.exename DESC, f`,
		`MATCH (p1:Process)-[:write]->(f:File)<-[:read]-(p2:Process) RETURN p1.exename, f.path, p2.exename ORDER BY f.path`,
		`MATCH (p:Process {exename: '/bin/tar'})-[*1..7]->(c:NetConn) RETURN DISTINCT c.dstip`,
		`MATCH (s:N {name: 'a'})-[*]->(x) RETURN x.name ORDER BY x.name`,
		`MATCH (s:N {name: 'a'})-[*2]->(x) RETURN x.name`,
		`MATCH (s:N {name: 'a'})-[*..2]->(x) RETURN x.name ORDER BY x.name`,
		`MATCH (s:N {name: 'a'})-[*3..]->(x) RETURN x.name`,
		`MATCH (s:N {name: 'a'})-[:read*1..3]->(x) RETURN x.name`,
		`MATCH (v:N)-[:x]->(w:N)-[:y]->(v) RETURN v.name, w.name`,
		`MATCH (s:Process)-[e:write]->(o:File) WHERE e.start_time >= -5 AND e.start_time <= 7 - -2 AND NOT (o.name IN ('a', 'b') OR o.name NOT IN ('c')) RETURN o.name`,
	} {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		text := Format(q)
		again, err := ParseQuery(text)
		if err != nil {
			t.Fatalf("printed text does not parse: %v\nsource  %s\nprinted %s", err, src, text)
		}
		if !reflect.DeepEqual(again, q) {
			t.Fatalf("round trip changed the AST\nsource  %s\nprinted %s\nparsed  %#v\nreparse %#v", src, text, q, again)
		}
		if text2 := Format(again); text2 != text {
			t.Fatalf("Format is not a fixed point\n%s\n%s", text, text2)
		}
	}
}

// TestParseNegativeLiteral is the regression test for windows that lower
// to a negative bound: "-N" in a primary position (and as an inline
// property value) is one integer literal.
func TestParseNegativeLiteral(t *testing.T) {
	q, err := ParseQuery(`MATCH (s:Process {pid: -1})-[e]->(o) WHERE e.start_time >= -5 RETURN e.id`)
	if err != nil {
		t.Fatal(err)
	}
	want := relational.BinOp{Op: ">=",
		L: relational.ColRef{Qualifier: "e", Column: "start_time"},
		R: relational.Lit{V: relational.Int(-5)}}
	if !reflect.DeepEqual(q.Where, want) {
		t.Fatalf("WHERE = %#v", q.Where)
	}
	if v := q.Patterns[0].Nodes[0].Props["pid"]; v != relational.Int(-1) {
		t.Fatalf("inline pid = %#v", v)
	}
	if _, err := ParseQuery(`MATCH (s) WHERE s.a = -s.b RETURN s.a`); err == nil {
		t.Fatal("'-' before a property must stay an error")
	}
}
