package cases

import (
	"fmt"
	"testing"

	"threatraptor/internal/extract"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

func TestAllCasesWellFormed(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("cases = %d, want 18", len(all))
	}
	seen := map[string]bool{}
	for _, c := range all {
		if c.ID == "" || c.Name == "" || c.Report == "" || c.Attack == nil {
			t.Errorf("case %q incomplete", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate case ID %q", c.ID)
		}
		seen[c.ID] = true
		if len(c.Entities) == 0 || len(c.Relations) == 0 {
			t.Errorf("case %q missing ground truth", c.ID)
		}
		if got := ByID(c.ID); got == nil || got.ID != c.ID {
			t.Errorf("ByID(%q) mismatch", c.ID)
		}
	}
	if ByID("nosuch") != nil {
		t.Error("ByID must return nil for unknown cases")
	}
}

func TestGenerateLogs(t *testing.T) {
	for _, c := range All() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			gen, err := c.Generate(0.2)
			if err != nil {
				t.Fatal(err)
			}
			if len(gen.AttackEventIDs) == 0 {
				t.Fatal("no attack events recorded")
			}
			if len(gen.Log.Events) <= len(gen.AttackEventIDs) {
				t.Fatalf("benign noise missing: %d events, %d attack",
					len(gen.Log.Events), len(gen.AttackEventIDs))
			}
			// Determinism.
			gen2, err := c.Generate(0.2)
			if err != nil {
				t.Fatal(err)
			}
			if len(gen2.Log.Events) != len(gen.Log.Events) ||
				len(gen2.AttackEventIDs) != len(gen.AttackEventIDs) {
				t.Fatal("generation must be deterministic")
			}
		})
	}
}

// TestExtractionMatchesGroundTruth verifies the pipeline recovers the
// labeled entities and relations from every report — the substance behind
// the Table V numbers.
func TestExtractionMatchesGroundTruth(t *testing.T) {
	ex := extract.New(extract.DefaultOptions())
	var entTP, entFP, entFN, relTP, relFP, relFN int
	for _, c := range All() {
		res := ex.Extract(c.Report)
		knownFP := map[string]bool{}
		for _, e := range c.KnownEntityFPs {
			knownFP[e] = true
		}
		knownFN := map[string]bool{}
		for _, r := range c.KnownRelationFNs {
			knownFN[r.Subj+"|"+r.Verb+"|"+r.Obj] = true
		}

		gotEnt := map[string]bool{}
		for _, ic := range res.IOCs {
			gotEnt[ic.Text] = true
		}
		wantEnt := map[string]bool{}
		for _, e := range c.Entities {
			wantEnt[e] = true
		}
		for e := range gotEnt {
			if wantEnt[e] {
				entTP++
				continue
			}
			entFP++
			if !knownFP[e] {
				t.Errorf("%s: spurious entity %q", c.ID, e)
			}
		}
		for e := range wantEnt {
			if !gotEnt[e] {
				entFN++
				t.Errorf("%s: missing entity %q", c.ID, e)
			}
		}

		gotRel := map[string]bool{}
		for _, tr := range res.Triplets {
			gotRel[tr.Subj.Text+"|"+tr.Verb+"|"+tr.Obj.Text] = true
		}
		wantRel := map[string]bool{}
		for _, r := range c.Relations {
			wantRel[r.Subj+"|"+r.Verb+"|"+r.Obj] = true
		}
		for r := range gotRel {
			if wantRel[r] {
				relTP++
			} else {
				relFP++
				t.Errorf("%s: spurious relation %q", c.ID, r)
			}
		}
		for r := range wantRel {
			if !gotRel[r] {
				relFN++
				if !knownFN[r] {
					t.Errorf("%s: missing relation %q", c.ID, r)
				}
			}
		}
	}
	t.Logf("entities: TP=%d FP=%d FN=%d; relations: TP=%d FP=%d FN=%d",
		entTP, entFP, entFN, relTP, relFP, relFN)
	if entFP == 0 || relFN == 0 {
		t.Error("the benchmark should include known imperfections (entity FP, relation FN)")
	}
}

// TestSynthesisFromReports verifies every report's graph synthesizes into
// a parsable, analyzable TBQL query.
func TestSynthesisFromReports(t *testing.T) {
	ex := extract.New(extract.DefaultOptions())
	for _, c := range All() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			res := ex.Extract(c.Report)
			if len(res.Graph.Edges) == 0 {
				t.Fatalf("no edges extracted:\n%s", c.Report)
			}
			q, _, err := synth.Synthesize(res.Graph, synth.Options{})
			if err != nil {
				t.Fatal(err)
			}
			text := tbql.Format(q)
			q2, err := tbql.Parse(text)
			if err != nil {
				t.Fatalf("synthesized query must parse: %v\n%s", err, text)
			}
			if _, err := tbql.Analyze(q2); err != nil {
				t.Fatalf("synthesized query must analyze: %v\n%s", err, text)
			}
		})
	}
}

func ExampleByID() {
	c := ByID("data_leak")
	fmt.Println(c.Name)
	// Output: Data Leakage After Shellshock Penetration
}

// ExampleCase_Simulate shows the multi-host extra case: the pivot's
// connect and receive happen on different hosts but share one NetConn
// 5-tuple, which is the edge a fleet-wide hunt joins across.
func ExampleCase_Simulate() {
	c := ByID("lateral_movement")
	records, start, end := c.Simulate(0) // 0 = default scale
	hosts := map[string]bool{}
	for _, r := range records {
		hosts[r.Host] = true
	}
	fmt.Println("hosts:", len(hosts), "attack records:", end-start)
	// Output: hosts: 2 attack records: 32
}

func TestExtrasNotInAll(t *testing.T) {
	ids := map[string]bool{}
	for _, c := range All() {
		ids[c.ID] = true
	}
	for _, c := range Extras() {
		if ids[c.ID] {
			t.Errorf("extra case %q must not be in All() (Table IV/V fidelity)", c.ID)
		}
		if got := ByID(c.ID); got == nil || got.ID != c.ID {
			t.Errorf("ByID(%q) must find the extra case", c.ID)
		}
		if _, err := c.Generate(0.25); err != nil {
			t.Errorf("extra case %q Generate: %v", c.ID, err)
		}
	}
}
