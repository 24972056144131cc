package engine

import (
	"fmt"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/tbql"
)

// benchStore loads the generated data_leak case at the given scale.
func benchStore(b *testing.B, scale float64) *Store {
	b.Helper()
	gen, err := cases.ByID("data_leak").Generate(scale)
	if err != nil {
		b.Fatal(err)
	}
	store, err := NewStore(gen.Log)
	if err != nil {
		b.Fatal(err)
	}
	return store
}

func benchAnalyzed(b *testing.B) *tbql.Analyzed {
	b.Helper()
	q, err := tbql.Parse(dataLeakTBQL)
	if err != nil {
		b.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkExecuteScheduled measures the scheduled TBQL hot path
// (Section III-F / RQ4) on the data_leak case at scale 1.0.
func BenchmarkExecuteScheduled(b *testing.B) {
	store := benchStore(b, 1.0)
	en := &Engine{Store: store}
	a := benchAnalyzed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := en.Execute(nil, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteParallel measures the per-level parallel path on the
// same workload.
func BenchmarkExecuteParallel(b *testing.B) {
	store := benchStore(b, 1.0)
	en := &Engine{Store: store, Parallel: true}
	a := benchAnalyzed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := en.Execute(nil, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteUnscheduled is the scheduling ablation on the same
// workload (declaration order, no constraint feeding).
func BenchmarkExecuteUnscheduled(b *testing.B) {
	store := benchStore(b, 1.0)
	en := &Engine{Store: store, DisableScheduling: true}
	a := benchAnalyzed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := en.Execute(nil, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreLoadEngine measures NewStore: batch-loading the reduced
// log into the columnar relational backend and the graph arena.
func BenchmarkStoreLoadEngine(b *testing.B) {
	gen, err := cases.ByID("data_leak").Generate(1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewStore(gen.Log); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures the compilation spine itself on the data_leak
// query: "cold" lowers the analyzed query to IR and compiles every
// pattern's single runtime-pruned physical plan from a cold engine; "hit"
// measures the steady-state cost of reaching the compiled plans through
// the caches (what every execution pays before running a single data
// query). One plan now serves every extras shape the scheduler produces,
// so cold compile work no longer scales with the shapes a workload
// touches (previously up to eight lazily-compiled variants per pattern).
func BenchmarkCompile(b *testing.B) {
	store := benchStore(b, 1.0)
	a := benchAnalyzed(b)
	compileAll := func(en *Engine) {
		plan := en.planFor(a, nil)
		for i := range plan.pats {
			if plan.pats[i].usesGraph {
				continue
			}
			if _, err := plan.pats[i].prepared(en.Store, plan.bounds); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compileAll(&Engine{Store: store})
		}
	})
	b.Run("hit", func(b *testing.B) {
		en := &Engine{Store: store}
		compileAll(en)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			compileAll(en)
		}
	})
}

// fleetLog builds the trailing-window workload: a 4-host fleet of worker
// processes with mult×2500 actions of dense historical activity, a quiet
// ten-second gap, and a small burst of recent activity. The worker anchor
// matches events across the whole history, so the subject-index probes'
// posting lists span every historical event; only the trailing window's
// suffix of each list can match. extra records are appended after the
// fleet's own.
func fleetLog(tb testing.TB, mult int, extra ...audit.Record) *audit.Log {
	tb.Helper()
	sim := audit.NewSimulator(7, 1_700_000_000_000_000)
	var procs []audit.Proc
	for h := 0; h < 4; h++ {
		for w := 0; w < 2; w++ {
			procs = append(procs, audit.Proc{
				PID: 3000 + h*10 + w, Exe: fmt.Sprintf("/usr/bin/worker%d", w),
				User: "svc", Group: "svc", Host: fmt.Sprintf("host-%d", h),
			})
		}
	}
	emit := func(i int) {
		p := procs[i%len(procs)]
		if i%20 == 19 {
			sim.WriteFile(p, "/var/log/worker.log", 100)
		} else {
			sim.ReadFile(p, fmt.Sprintf("/srv/%s/data%d.bin", p.Host, i%4), 100)
		}
		sim.Advance(1500)
	}
	for i := 0; i < mult*2500; i++ {
		emit(i)
	}
	sim.Advance(10_000_000)
	for i := 0; i < 40; i++ {
		emit(i)
	}
	log, err := audit.ParseRecords(append(sim.Records(), extra...))
	if err != nil {
		tb.Fatal(err)
	}
	return log
}

// fleetWindowTBQL hunts read-then-log-write chains in the trailing
// window.
func fleetWindowTBQL(winSec int64) string {
	return fmt.Sprintf(`last %d second
proc p["%%worker%%"] read file f1 as evt1
proc p write file f2["%%worker.log%%"] as evt2
with evt1 before evt2
return distinct p, f1, f2`, winSec)
}

// BenchmarkWindowHunt measures the trailing-window fleet hunt on the 8×
// store: index probes binary-search their row-ordered postings past the
// window's start_time floor instead of filtering all history. Before
// timing, the rows are pinned to an untrimmed reference: the same fleet
// plus one late-arriving record stamped at the fleet's first instant (an
// unrelated process), which leaves start_time unsorted so no floor
// shortcut can fire.
func BenchmarkWindowHunt(b *testing.B) {
	const mult = 8
	store, err := NewStore(fleetLog(b, mult))
	if err != nil {
		b.Fatal(err)
	}
	late := audit.Record{Time: store.MinTime, Host: "host-9", Call: audit.SysRead, PID: 9999,
		Exe: "/usr/sbin/auditd", User: "root", Group: "root", FD: audit.FDFile, Path: "/var/log/audit.log", Bytes: 10}
	ref, err := NewStore(fleetLog(b, mult, late))
	if err != nil {
		b.Fatal(err)
	}
	q, err := tbql.Parse(fleetWindowTBQL(1))
	if err != nil {
		b.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		b.Fatal(err)
	}
	en := &Engine{Store: store}
	res, stats, err := en.Execute(nil, a)
	if err != nil {
		b.Fatal(err)
	}
	want, refStats, err := (&Engine{Store: ref}).Execute(nil, a)
	if err != nil {
		b.Fatal(err)
	}
	if len(want.Set.Rows) == 0 {
		b.Fatal("fleet hunt matched nothing; the benchmark is vacuous")
	}
	if got, w := fmt.Sprint(res.Set.Strings()), fmt.Sprint(want.Set.Strings()); got != w {
		b.Fatalf("trimmed rows differ from the untrimmed reference:\ngot  %s\nwant %s", got, w)
	}
	if stats.Rel.RowsScanned*4 > refStats.Rel.RowsScanned {
		b.Fatalf("window hunt scanned %d rows, the untrimmed reference %d: the posting trim did not fire",
			stats.Rel.RowsScanned, refStats.Rel.RowsScanned)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := en.Execute(nil, a); err != nil {
			b.Fatal(err)
		}
	}
}
