package graphdb

import (
	"sort"
	"strconv"
	"strings"

	"threatraptor/internal/relational"
)

// Format prints a query in the Cypher subset ParseQuery reads: one MATCH
// per pattern, then the WHERE expression (printed by
// relational.FormatExpr), RETURN, ORDER BY and LIMIT. For any query
// ParseQuery produces, ParseQuery(Format(q)) is equal to q.
// ClauseAtATime selects an execution model and has no text form.
func Format(q *Query) string {
	var b strings.Builder
	for i, pat := range q.Patterns {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString("MATCH ")
		writeNode(&b, pat.Nodes[0])
		for j, r := range pat.Rels {
			writeRel(&b, r)
			writeNode(&b, pat.Nodes[j+1])
		}
	}
	if q.Where != nil {
		b.WriteString(" WHERE " + relational.FormatExpr(q.Where))
	}
	b.WriteString(" RETURN ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, item := range q.Return {
		if i > 0 {
			b.WriteString(", ")
		}
		writeProp(&b, item.Var, item.Prop)
		if item.As != "" {
			b.WriteString(" AS " + item.As)
		}
	}
	for i, item := range q.OrderBy {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		writeProp(&b, item.Var, item.Prop)
		if item.Desc {
			b.WriteString(" DESC")
		}
	}
	if q.Limit >= 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(q.Limit))
	}
	return b.String()
}

func writeProp(b *strings.Builder, v, prop string) {
	b.WriteString(v)
	if prop != "" {
		b.WriteString("." + prop)
	}
}

// writeNode prints "(var:Label {k: v, ...})", inline properties in key
// order.
func writeNode(b *strings.Builder, n NodePat) {
	b.WriteString("(" + n.Var)
	if n.Label != "" {
		b.WriteString(":" + n.Label)
	}
	if len(n.Props) > 0 {
		keys := make([]string, 0, len(n.Props))
		for k := range n.Props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(" {")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k + ": " + relational.FormatExpr(relational.Lit{V: n.Props[k]}))
		}
		b.WriteString("}")
	}
	b.WriteString(")")
}

// writeRel prints "-[var:a|b*min..max]->" (or "<-[...]-", "-[...]-"); the
// length range is omitted for a single hop and its upper bound when
// unbounded.
func writeRel(b *strings.Builder, r RelPat) {
	if r.Dir == DirIn {
		b.WriteString("<")
	}
	b.WriteString("-[" + r.Var)
	if len(r.Types) > 0 {
		b.WriteString(":" + strings.Join(r.Types, "|"))
	}
	if r.IsVarLen() {
		b.WriteString("*" + strconv.Itoa(r.Min) + "..")
		if r.Max >= 0 {
			b.WriteString(strconv.Itoa(r.Max))
		}
	}
	b.WriteString("]-")
	if r.Dir == DirOut {
		b.WriteString(">")
	}
}
