package synth

import (
	"reflect"
	"testing"

	"threatraptor/internal/cases"
	"threatraptor/internal/extract"
	"threatraptor/internal/tbql"
)

// TestFormatRoundTripAllCases: for every built-in case's synthesized query,
// in every synthesis mode, the formatted text reparses and re-analyzes to
// the patterns of the synthesized AST — what a System hunting the text
// executes is what the synthesizer built. Literal filters carry Windows
// paths, whose backslashes the text must escape.
func TestFormatRoundTripAllCases(t *testing.T) {
	for _, c := range cases.All() {
		graph := extract.New(extract.DefaultOptions()).Extract(c.Report).Graph
		for _, mode := range []Mode{ModeEventPatterns, ModeLength1Paths, ModeVarLenPaths} {
			q, _, err := Synthesize(graph, Options{Mode: mode})
			if err != nil {
				t.Fatalf("%s mode %d: %v", c.ID, mode, err)
			}
			want, err := tbql.Analyze(q)
			if err != nil {
				t.Fatalf("%s mode %d: synthesized query must analyze: %v", c.ID, mode, err)
			}
			text := tbql.Format(q)
			parsed, err := tbql.Parse(text)
			if err != nil {
				t.Fatalf("%s mode %d: formatted text must parse: %v\n%s", c.ID, mode, err, text)
			}
			got, err := tbql.Analyze(parsed)
			if err != nil {
				t.Fatalf("%s mode %d: reparsed query must analyze: %v\n%s", c.ID, mode, err, text)
			}
			if !reflect.DeepEqual(got.Query.Patterns, want.Query.Patterns) {
				t.Errorf("%s mode %d: reparsed patterns differ from the synthesized AST\n%s", c.ID, mode, text)
			}
		}
	}
}
