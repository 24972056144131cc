package main

// Self-test at tiny size: every metric is printed with its unit on every
// workload, a corrupted reference trips the correctness check, an unknown
// workload is rejected, and a second seed gives the same workload shape.
// Run from perfbench/: go test .

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	// Workloads read repository files (the demo rule set) relative to the
	// checkout root, where the benchmark runs.
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

type printed struct {
	code   int
	meta   map[string]any
	result resultLine
}

// runTiny runs one workload at self-test size through the CLI entry point.
func runTiny(t *testing.T, args ...string) printed {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--tiny", "--seconds", "1", "--workdir", t.TempDir()}, args...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%v: exit %d, output %q, stderr %s", args, code, stdout.String(), stderr.String())
	}
	var p printed
	p.code = code
	var meta struct {
		Meta map[string]any `json:"meta"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &meta); err != nil {
		t.Fatalf("meta line: %v", err)
	}
	p.meta = meta.Meta
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p.result); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return p
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the program, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program has %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloadNames())
	}
}

func TestEveryMetricPrinted(t *testing.T) {
	for _, w := range workloadNames() {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w, trace), func(t *testing.T) {
				p := runTiny(t, "--workload", w, "--trace", fmt.Sprint(trace))
				if p.code != 0 || !p.result.Correct || p.result.Failed != 0 {
					t.Fatalf("exit %d correct %v failed %d: %v", p.code, p.result.Correct, p.result.Failed, p.meta["problems"])
				}
				if len(p.result.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(p.result.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := p.result.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: printed %v (%+v), want unit %s", d.name, ok, m, d.unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v", d.name, m.Value)
					}
					if trace == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

func TestCorruptedReferenceTrips(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			p := runTiny(t, "--workload", w, "--corrupt-reference")
			if p.code == 0 || p.result.Correct || p.meta["problems"] == nil {
				t.Fatalf("corrupted reference passed: exit %d correct %v", p.code, p.result.Correct)
			}
		})
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "no-such-workload"}, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("stderr %q", stderr.String())
	}
}

// TestSecondSeedSameShape shows a second seed generates inputs of the same
// shape (sizes within a few percent), so a claim can be rechecked on a
// seed not used while writing it.
func TestSecondSeedSameShape(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			a := runTiny(t, "--workload", w, "--seed", "1")
			b := runTiny(t, "--workload", w, "--seed", "2")
			sa, _ := a.meta["shape"].(map[string]any)
			sb, _ := b.meta["shape"].(map[string]any)
			if len(sa) == 0 || len(sa) != len(sb) {
				t.Fatalf("shapes %v vs %v", sa, sb)
			}
			for k, va := range sa {
				x, ok1 := va.(float64)
				y, ok2 := sb[k].(float64)
				if !ok1 || !ok2 || k == "hunts" || k == "distinct_texts" {
					continue // counts that depend on run speed
				}
				if math.Abs(x-y) > 0.05*math.Max(x, y) {
					t.Errorf("shape %s: seed 1 %v, seed 2 %v", k, x, y)
				}
			}
		})
	}
}
