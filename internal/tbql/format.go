package tbql

import (
	"fmt"
	"strings"
	"time"

	"threatraptor/internal/relational"
)

// Format renders a query back to concise TBQL text, one pattern per line.
// It is the inverse of Parse up to whitespace and sugar expansion, and is
// used by query synthesis and the conciseness evaluation (Table X).
func Format(q *Query) string {
	var b strings.Builder
	if q.GlobalWindow != nil {
		b.WriteString(formatWindow(q.GlobalWindow))
		b.WriteByte('\n')
	}
	for _, f := range q.GlobalFilters {
		b.WriteString(formatExpr(f))
		b.WriteByte('\n')
	}
	for _, p := range q.Patterns {
		b.WriteString(formatPattern(p))
		b.WriteByte('\n')
	}
	if len(q.Relations) > 0 {
		b.WriteString("with ")
		for i, r := range q.Relations {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(formatRelation(r))
		}
		b.WriteByte('\n')
	}
	b.WriteString("return ")
	if q.Return.Distinct {
		b.WriteString("distinct ")
	}
	for i, item := range q.Return.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(item.EntityID)
		if item.Attr != "" {
			b.WriteByte('.')
			b.WriteString(item.Attr)
		}
	}
	return b.String()
}

func formatPattern(p *Pattern) string {
	var b strings.Builder
	b.WriteString(formatEntity(p.Subject))
	b.WriteByte(' ')
	if p.Path != nil {
		b.WriteString(formatPath(p))
	} else {
		b.WriteString(formatOpExpr(p.Op))
	}
	b.WriteByte(' ')
	b.WriteString(formatEntity(p.Object))
	if p.ID != "" && !strings.HasPrefix(p.ID, "_evt") {
		b.WriteString(" as ")
		b.WriteString(p.ID)
		if p.IDFilter != nil {
			b.WriteByte('[')
			b.WriteString(formatExpr(p.IDFilter))
			b.WriteByte(']')
		}
	}
	if p.Window != nil {
		b.WriteByte(' ')
		b.WriteString(formatWindow(p.Window))
	}
	return b.String()
}

func formatEntity(e Entity) string {
	var b strings.Builder
	b.WriteString(string(e.Type))
	b.WriteByte(' ')
	b.WriteString(e.ID)
	if e.Filter != nil {
		b.WriteByte('[')
		b.WriteString(formatFilterSugar(e.Filter))
		b.WriteByte(']')
	}
	return b.String()
}

// formatFilterSugar prints a bare-value filter ("= value" on the empty
// column) as just the value, keeping the synthesized queries as concise as
// the paper's examples.
func formatFilterSugar(e relational.Expr) string {
	if bin, ok := e.(relational.BinOp); ok {
		if c, isCol := bin.L.(relational.ColRef); isCol && c.Column == "" && c.Qualifier == "" {
			if lit, isLit := bin.R.(relational.Lit); isLit && (bin.Op == "=" || bin.Op == "like") {
				return formatValue(lit.V)
			}
		}
	}
	return formatExpr(e)
}

func formatPath(p *Pattern) string {
	var b strings.Builder
	spec := p.Path
	if spec.MinLen == 1 && spec.MaxLen == 1 {
		b.WriteString("->")
	} else {
		b.WriteString("~>")
		switch {
		case spec.MinLen == 1 && spec.MaxLen == -1:
			// default bounds: no annotation
		case spec.MinLen == spec.MaxLen:
			fmt.Fprintf(&b, "(%d)", spec.MinLen)
		case spec.MaxLen == -1:
			fmt.Fprintf(&b, "(%d~)", spec.MinLen)
		case spec.MinLen == 1:
			fmt.Fprintf(&b, "(~%d)", spec.MaxLen)
		default:
			fmt.Fprintf(&b, "(%d~%d)", spec.MinLen, spec.MaxLen)
		}
	}
	if p.Op != nil {
		b.WriteByte('[')
		b.WriteString(formatOpExpr(p.Op))
		b.WriteByte(']')
	}
	return b.String()
}

func formatOpExpr(o *OpExpr) string {
	switch {
	case o == nil:
		return ""
	case o.Op != "":
		return o.Op
	case o.Not != nil:
		return "!" + formatOpExpr(o.Not)
	case o.And[0] != nil:
		return formatOpExpr(o.And[0]) + " && " + formatOpExpr(o.And[1])
	case o.Or[0] != nil:
		return formatOpExpr(o.Or[0]) + " || " + formatOpExpr(o.Or[1])
	}
	return ""
}

func formatWindow(w *Window) string {
	const layout = "2006-01-02 15:04:05"
	switch w.Kind {
	case WindRange:
		return fmt.Sprintf("from %q to %q", w.From.Format(layout), w.To.Format(layout))
	case WindAt:
		return fmt.Sprintf("at %q", w.From.Format(layout))
	case WindBefore:
		return fmt.Sprintf("before %q", w.To.Format(layout))
	case WindAfter:
		return fmt.Sprintf("after %q", w.From.Format(layout))
	case WindLast:
		return "last " + formatDuration(w.Dur)
	}
	return ""
}

func formatDuration(d time.Duration) string {
	switch {
	case d%(24*time.Hour) == 0:
		return fmt.Sprintf("%d day", d/(24*time.Hour))
	case d%time.Hour == 0:
		return fmt.Sprintf("%d hour", d/time.Hour)
	case d%time.Minute == 0:
		return fmt.Sprintf("%d min", d/time.Minute)
	default:
		return fmt.Sprintf("%d sec", d/time.Second)
	}
}

func formatRelation(r Relation) string {
	switch r.Kind {
	case RelAttr:
		return formatExpr(r.Attr)
	case RelBefore, RelAfter, RelWithin:
		kw := map[RelationKind]string{RelBefore: "before", RelAfter: "after", RelWithin: "within"}[r.Kind]
		if r.HasDur {
			return fmt.Sprintf("%s %s[%d-%d sec] %s", r.A, kw,
				r.LoDur/time.Second, r.HiDur/time.Second, r.B)
		}
		return fmt.Sprintf("%s %s %s", r.A, kw, r.B)
	}
	return ""
}

// formatExpr renders a relational expression in TBQL surface syntax.
func formatExpr(e relational.Expr) string {
	switch v := e.(type) {
	case relational.ColRef:
		if v.Qualifier != "" {
			return v.Qualifier + "." + v.Column
		}
		return v.Column
	case relational.Lit:
		return formatValue(v.V)
	case relational.UnOp:
		if bin, ok := v.E.(relational.BinOp); ok && bin.Op == "like" {
			return formatExpr(bin.L) + " != " + formatExpr(bin.R)
		}
		return "!(" + formatExpr(v.E) + ")"
	case relational.InList:
		var vals []string
		for _, ve := range v.Vals {
			vals = append(vals, formatExpr(ve))
		}
		neg := ""
		if v.Negate {
			neg = "not "
		}
		return formatExpr(v.E) + " " + neg + "in (" + strings.Join(vals, ", ") + ")"
	case relational.BinOp:
		op := v.Op
		switch op {
		case "and":
			return formatExpr(v.L) + " && " + formatExpr(v.R)
		case "or":
			return "(" + formatExpr(v.L) + " || " + formatExpr(v.R) + ")"
		case "like":
			op = "="
		}
		return formatExpr(v.L) + " " + op + " " + formatExpr(v.R)
	}
	return ""
}

func formatValue(v relational.Value) string {
	if v.K == relational.KindString {
		// The lexer reads a backslash as an escape for the next byte, so
		// backslashes are escaped first, then quotes.
		return `"` + strings.ReplaceAll(strings.ReplaceAll(v.S, `\`, `\\`), `"`, `\"`) + `"`
	}
	return v.String()
}
