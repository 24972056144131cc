package relational

import (
	"strconv"
	"strings"
)

// Format prints a statement in the SQL subset ParseSelect reads. For any
// statement ParseSelect produces, ParseSelect(Format(s)) is equal to s;
// Param and ParamIDs placeholders print as "$slot" and "expr IN $slot",
// with a trailing "?" for a prunable Param or an optional ParamIDs.
// Parentheses appear only where the parser's precedence would otherwise
// regroup the tree.
func Format(s *SelectStmt) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if len(s.Select) == 0 {
		b.WriteString("*")
	}
	for i, item := range s.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		writeExpr(&b, item.Expr, 0)
		if item.As != "" {
			b.WriteString(" AS " + item.As)
		}
	}
	b.WriteString(" FROM ")
	for i, ref := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		writeTableRef(&b, ref)
	}
	for _, j := range s.Joins {
		b.WriteString(" JOIN ")
		writeTableRef(&b, j.Ref)
		b.WriteString(" ON ")
		writeExpr(&b, j.On, 0)
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		writeExpr(&b, s.Where, 0)
	}
	for i, item := range s.OrderBy {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		writeExpr(&b, item.Expr, 0)
		if item.Desc {
			b.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(s.Limit))
	}
	return b.String()
}

// FormatExpr prints an expression in the syntax Format uses. The Cypher
// subset shares the grammar, so graph queries print their WHERE with it.
func FormatExpr(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e, 0)
	return b.String()
}

func writeTableRef(b *strings.Builder, ref TableRef) {
	b.WriteString(ref.Table)
	if ref.Alias != "" && ref.Alias != ref.Table {
		b.WriteString(" " + ref.Alias)
	}
}

// Operator precedence, loosest first, as the parser's descent levels.
const (
	precOr = iota + 1
	precAnd
	precNot
	precCmp
	precAdd
	precPrimary
)

func exprPrec(e Expr) int {
	switch v := e.(type) {
	case BinOp:
		switch v.Op {
		case "or":
			return precOr
		case "and":
			return precAnd
		case "+", "-":
			return precAdd
		}
		return precCmp
	case UnOp:
		return precNot
	case InList, ParamIDs:
		return precCmp
	}
	return precPrimary
}

// writeExpr prints e, parenthesized when its precedence is looser than
// min, the loosest the surrounding grammar position accepts unchanged.
func writeExpr(b *strings.Builder, e Expr, min int) {
	if exprPrec(e) < min {
		b.WriteString("(")
		defer b.WriteString(")")
	}
	switch v := e.(type) {
	case ColRef:
		if v.Qualifier != "" {
			b.WriteString(v.Qualifier + ".")
		}
		b.WriteString(v.Column)
	case Lit:
		writeValue(b, v.V)
	case Param:
		writePlaceholder(b, v.Slot, v.Prune)
	case ParamIDs:
		writeExpr(b, v.E, precAdd)
		b.WriteString(" IN ")
		writePlaceholder(b, v.Slot, v.Optional)
	case UnOp:
		b.WriteString("NOT ")
		writeExpr(b, v.E, precNot)
	case InList:
		writeExpr(b, v.E, precAdd)
		if v.Negate {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		for i, x := range v.Vals {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, x, 0)
		}
		b.WriteString(")")
	case BinOp:
		// Chains of and/or/+/- associate left, so only the right operand
		// at the same level needs parentheses; comparisons do not chain.
		p := exprPrec(v)
		left, right := p, p+1
		if p == precCmp {
			left, right = precAdd, precAdd
		}
		writeExpr(b, v.L, left)
		b.WriteString(" " + strings.ToUpper(v.Op) + " ")
		writeExpr(b, v.R, right)
	}
}

func writePlaceholder(b *strings.Builder, slot int, flag bool) {
	b.WriteString("$" + strconv.Itoa(slot))
	if flag {
		b.WriteString("?")
	}
}

func writeValue(b *strings.Builder, v Value) {
	switch v.K {
	case KindString:
		b.WriteString("'" + strings.ReplaceAll(v.S, "'", "''") + "'")
	case KindInt:
		b.WriteString(strconv.FormatInt(v.I, 10))
	default:
		b.WriteString("NULL")
	}
}
