package engine

// This file is the EXPLAIN path. Every statement and traversal query it
// shows is printed (relational.Format, graphdb.Format) from the AST the
// executor runs, so EXPLAIN and the paper's Table X cannot drift from
// execution: there is one lowering (lower.go) and no text compiler.

import (
	"fmt"
	"strings"

	"threatraptor/internal/graphdb"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// sqlColumn maps a TBQL attribute name to the relational column name.
func sqlColumn(attr string) string {
	if attr == "group" {
		return "grp"
	}
	return attr
}

// timeWindow resolves a TBQL window against a fixed pair of store time
// bounds, returning [lo, hi] in µs. Working from captured bounds keeps
// the monolithic lowering (and through it Engine.Explain) off the live
// Store fields, which only the writer may read.
func (b timeBounds) timeWindow(w *tbql.Window) (int64, int64) {
	switch w.Kind {
	case tbql.WindRange:
		return w.From.UnixMicro(), w.To.UnixMicro()
	case tbql.WindAt:
		lo := w.From.UnixMicro()
		return lo, lo + 24*3600*1_000_000 - 1
	case tbql.WindBefore:
		return b.min, w.To.UnixMicro()
	case tbql.WindAfter:
		return w.From.UnixMicro(), b.max
	case tbql.WindLast:
		return b.max - w.Dur.Microseconds(), b.max
	}
	return b.min, b.max
}

// kindLiteral is the stored "kind" column value for an entity type.
func kindLiteral(t tbql.EntityType) string { return string(t) }

func windowOf(q *tbql.Query, p *tbql.Pattern) *tbql.Window {
	if p.Window != nil {
		return p.Window
	}
	return q.GlobalWindow
}

// CompileMonolithicSQL prints the whole query as the one SQL statement
// ExecuteMonolithicSQL runs — the naive plan the paper compares against
// (query type (b) in RQ4, and Table X's SQL column).
func CompileMonolithicSQL(s *Store, a *tbql.Analyzed) (string, error) {
	stmt, err := lowerMonolithicStmt(s.bounds(), a)
	if err != nil {
		return "", err
	}
	return relational.Format(stmt), nil
}

// CompileMonolithicCypher prints the whole query as the one multi-MATCH
// Cypher query ExecuteMonolithicCypher runs (query type (d) in RQ4, and
// Table X's Cypher column).
func CompileMonolithicCypher(s *Store, a *tbql.Analyzed) (string, error) {
	q, err := lowerMonolithicCypher(s.bounds(), a)
	if err != nil {
		return "", err
	}
	return graphdb.Format(q), nil
}

// Explain renders a human-readable compilation report for an analyzed
// query: each pattern's logical-plan IR, the chosen physical plan, and
// the SQL statement or Cypher query it executes, printed from the
// executed AST (parameter placeholders included). Explain pins the
// latest published snapshot and resolves every window against its
// captured bounds, so it is safe to call concurrently with live ingestion
// (no session lock, no read of writer-mutated fields).
func (en *Engine) Explain(a *tbql.Analyzed) (string, error) {
	snap := en.Store.Snapshot()
	plan := en.planFor(a, snap)
	var sb strings.Builder
	sb.WriteString("--- per-pattern logical plans (IR) and physical plans ---\n")
	sb.WriteString("(parameters: $0 subject IDs, $1 object IDs, $2 delta floor; ? = skipped when unbound)\n")
	for i := range a.Query.Patterns {
		pp := &plan.pats[i]
		sb.WriteString(pp.ir.String())
		sb.WriteString("\n")
		if pp.usesGraph {
			sb.WriteString("physical: graph traversal plan\n")
			sb.WriteString("  Cypher: " + graphdb.Format(pp.gq) + "\n")
		} else {
			pr, err := pp.prepared(en.Store, plan.bounds)
			if err != nil {
				return "", err
			}
			sb.WriteString("physical: relational plan (runtime-pruned parameters)\n")
			sb.WriteString(indent(pr.Describe(), "  "))
			sb.WriteString("  SQL: " + relational.Format(pr.Stmt()) + "\n")
		}
	}
	sb.WriteString("--- scheduled order ---\n")
	for _, idx := range plan.order {
		fmt.Fprintf(&sb, "%s ", a.Query.Patterns[idx].ID)
	}
	sb.WriteString("\n")
	if stmt, err := lowerMonolithicStmt(plan.bounds, a); err == nil {
		sb.WriteString("--- monolithic SQL (RQ4 comparison) ---\n" + relational.Format(stmt) + "\n")
	}
	if q, err := lowerMonolithicCypher(plan.bounds, a); err == nil {
		sb.WriteString("--- monolithic Cypher (RQ4 comparison) ---\n" + graphdb.Format(q) + "\n")
	}
	return sb.String(), nil
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
