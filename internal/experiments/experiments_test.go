package experiments

import "testing"

// The experiment harness at tiny scale: these tests pin the qualitative
// claims of every table (the "shape" the reproduction must preserve), so a
// regression in any subsystem that would change a paper-level conclusion
// fails CI rather than silently producing different tables.

func TestTable5Shape(t *testing.T) {
	rows := Table5()
	if len(rows) != 6 {
		t.Fatalf("approaches = %d, want 6", len(rows))
	}
	byName := map[string]Table5Row{}
	for _, r := range rows {
		byName[r.Approach] = r
	}
	tr := byName["ThreatRaptor"]
	noProt := byName["ThreatRaptor - IOC Protection"]
	stanford := byName["Stanford Open IE"]
	openie5 := byName["Open IE 5"]

	if tr.Entity.F1 < 0.9 || tr.Relation.F1 < 0.9 {
		t.Errorf("ThreatRaptor F1 too low: %+v", tr)
	}
	if tr.Entity.F1 >= 1 || tr.Relation.F1 >= 1 {
		t.Errorf("benchmark must include known imperfections: %+v", tr)
	}
	if noProt.Entity.Recall >= 0.6 {
		t.Errorf("removing IOC protection must crater entity recall: %v", noProt.Entity.Recall)
	}
	if noProt.Relation.Recall >= 0.2 {
		t.Errorf("removing IOC protection must crater relation recall: %v", noProt.Relation.Recall)
	}
	for _, base := range []Table5Row{stanford, openie5} {
		if base.Entity.F1 >= tr.Entity.F1/2 {
			t.Errorf("%s entity F1 should be far below ThreatRaptor: %v", base.Approach, base.Entity.F1)
		}
		if base.Relation.F1 >= 0.05 {
			t.Errorf("%s relation F1 should be near zero: %v", base.Approach, base.Relation.F1)
		}
	}
	// Protection helps the baselines (entity recall), as in the paper.
	if byName["Stanford Open IE + IOC Protection"].Entity.Recall <= stanford.Entity.Recall {
		t.Error("IOC protection should lift the Stanford baseline's entity recall")
	}
}

func TestTable6Shape(t *testing.T) {
	rows, err := Table6(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("cases = %d", len(rows))
	}
	var tp, fp, fn int
	byCase := map[string]Table6Row{}
	for _, r := range rows {
		tp += r.TP
		fp += r.FP
		fn += r.FN
		byCase[r.CaseID] = r
	}
	if fp != 0 {
		t.Errorf("precision must be perfect (excessive patterns carry precise IOCs): FP=%d", fp)
	}
	recall := float64(tp) / float64(tp+fn)
	if recall < 0.85 || recall >= 1 {
		t.Errorf("total recall = %v, want high but imperfect", recall)
	}
	// The paper's specific failure cases.
	if r := byCase["tc_fivedirections_3"]; r.TP != 0 || r.FN == 0 {
		t.Errorf("tc_fivedirections_3 must have zero recall: %+v", r)
	}
	if r := byCase["tc_trace_3"]; r.TP != 0 || r.FN == 0 {
		t.Errorf("tc_trace_3 must have zero recall: %+v", r)
	}
	if r := byCase["tc_trace_1"]; r.FN == 0 {
		t.Errorf("tc_trace_1 must miss the process-creation events: %+v", r)
	}
}

func TestTable8Shape(t *testing.T) {
	rows, err := Table8(0.15, 2)
	if err != nil {
		t.Fatal(err)
	}
	var tbqlSum, sqlSum float64
	for _, r := range rows {
		tbqlSum += r.TBQL.Mean
		sqlSum += r.SQL.Mean
	}
	if tbqlSum >= sqlSum {
		t.Errorf("scheduled TBQL total (%v) must beat monolithic SQL (%v)", tbqlSum, sqlSum)
	}
}

func TestTable9Shape(t *testing.T) {
	rows, err := Table9(0.1)
	if err != nil {
		t.Fatal(err)
	}
	aligned := 0
	for _, r := range rows {
		if r.Alignments > 0 {
			aligned++
		}
	}
	if aligned < 15 {
		t.Errorf("fuzzy mode should align most cases: %d/18", aligned)
	}
	// tc_trace_4's reported behavior never happened: no alignment.
	for _, r := range rows {
		if r.CaseID == "tc_trace_4" && r.Alignments != 0 {
			t.Errorf("tc_trace_4 must not align: %+v", r)
		}
	}
}

func TestTable10Shape(t *testing.T) {
	rows, err := Table10()
	if err != nil {
		t.Fatal(err)
	}
	var tbqlCh, sqlCh, cypCh int
	for _, r := range rows {
		tbqlCh += r.TBQLChars
		sqlCh += r.SQLChars
		cypCh += r.CypherChars
		// Ordering holds per case, not just in aggregate.
		if !(r.TBQLChars < r.CypherChars && r.CypherChars < r.SQLChars) {
			t.Errorf("%s: conciseness ordering violated: tbql=%d cypher=%d sql=%d",
				r.CaseID, r.TBQLChars, r.CypherChars, r.SQLChars)
		}
	}
	if !(tbqlCh < cypCh && cypCh < sqlCh) {
		t.Errorf("aggregate ordering violated: %d %d %d", tbqlCh, cypCh, sqlCh)
	}
}

// TestTable10Counts pins Table X's per-case sizes. The SQL and Cypher
// columns count the text Format prints from the monolithic ASTs that the
// RQ4 comparison executes, so a change to the lowering or to either
// printer shows up here as a moved count.
func TestTable10Counts(t *testing.T) {
	want := []Table10Row{
		{"tc_clearscope_1", 6, 423, 71, 1086, 149, 447, 71, 723, 89},
		{"tc_clearscope_2", 4, 242, 45, 638, 91, 258, 45, 417, 54},
		{"tc_clearscope_3", 1, 128, 13, 274, 34, 132, 13, 186, 19},
		{"tc_fivedirections_1", 7, 590, 92, 1378, 190, 618, 92, 930, 116},
		{"tc_fivedirections_2", 4, 266, 47, 655, 93, 282, 47, 434, 56},
		{"tc_fivedirections_3", 2, 171, 26, 367, 50, 179, 26, 250, 31},
		{"tc_theia_1", 3, 199, 36, 506, 71, 211, 36, 337, 43},
		{"tc_theia_2", 4, 290, 49, 782, 111, 306, 49, 505, 64},
		{"tc_theia_3", 4, 254, 47, 701, 101, 270, 47, 452, 59},
		{"tc_theia_4", 3, 239, 40, 641, 90, 251, 40, 421, 52},
		{"tc_trace_1", 5, 326, 59, 877, 124, 346, 59, 576, 73},
		{"tc_trace_2", 4, 286, 49, 778, 111, 302, 49, 501, 64},
		{"tc_trace_3", 2, 143, 24, 346, 48, 151, 24, 229, 29},
		{"tc_trace_4", 2, 158, 28, 457, 68, 166, 28, 284, 39},
		{"tc_trace_5", 3, 230, 40, 632, 90, 242, 40, 412, 52},
		{"password_crack", 8, 509, 93, 1448, 211, 541, 93, 915, 123},
		{"data_leak", 8, 493, 98, 1388, 201, 525, 98, 906, 123},
		{"vpnfilter", 9, 535, 103, 1525, 222, 571, 103, 981, 130},
	}
	rows, err := Table10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestReductionAblationShape(t *testing.T) {
	rows, err := ReductionAblation(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ThresholdMS != 0 || rows[0].Factor != 1 {
		t.Errorf("zero threshold must not merge: %+v", rows[0])
	}
	last := 0.0
	for _, r := range rows {
		if r.Factor < last {
			t.Errorf("reduction factor must be monotone in the threshold: %+v", rows)
		}
		last = r.Factor
		if !r.AttackEventsPreserved {
			t.Errorf("reduction must preserve attack steps at %dms", r.ThresholdMS)
		}
	}
	if rows[len(rows)-1].Factor <= 1.2 {
		t.Errorf("chunked transfers should reduce substantially: %+v", rows[len(rows)-1])
	}
}

func TestMergeAblation(t *testing.T) {
	rows := MergeAblation()
	for _, r := range rows {
		// The data_leak graph has 9 IOCs and 8 edges at every sane
		// threshold (no near-duplicate forms in the report).
		if r.Nodes != 9 || r.Edges != 8 {
			t.Errorf("threshold %v: graph %dx%d, want 9x8", r.Threshold, r.Nodes, r.Edges)
		}
	}
}

func TestSchedulerAblationShape(t *testing.T) {
	rows, err := SchedulerAblation(0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var sRows, uRows int
	for _, r := range rows {
		sRows += r.ScheduledRows
		uRows += r.UnscheduledRows
	}
	if sRows > uRows {
		t.Errorf("constraint feeding must not increase pattern rows: %d vs %d", sRows, uRows)
	}
}

func TestMeasure(t *testing.T) {
	chars, words := measure("proc p1 read file f1")
	if chars != 16 || words != 5 {
		t.Errorf("measure = %d chars %d words", chars, words)
	}
	chars, words = measure("(p1:Process)-[e1:read]->(f1:File)")
	if words != 6 {
		t.Errorf("dense Cypher pattern should count 6 identifiers, got %d", words)
	}
	if chars != 33 {
		t.Errorf("chars = %d", chars)
	}
	if c, w := measure(""); c != 0 || w != 0 {
		t.Errorf("empty = %d %d", c, w)
	}
}
