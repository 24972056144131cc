package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"

	"threatraptor"
	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/relational"
	"threatraptor/internal/stream"
	"threatraptor/internal/tbql"
)

// A workload builds its inputs at least minSetups times, and again while
// the builds so far took under setupBudget (at most maxSetups times);
// setup_s is the median build time, so work moved into set-up shows
// without one slow disk flush deciding the figure, and a set-up that takes
// a fraction of a second is timed often enough to be steady.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 4 * time.Second
)

// timeSetup runs build as described above, keeping the last result, and
// returns it with the median build time in seconds. Earlier results are
// released before the next build so only one copy is ever live.
func timeSetup[T any](build func(rep int) (T, error), release func(T)) (T, float64, error) {
	var (
		last  T
		secs  []float64
		spent time.Duration
	)
	for rep := 0; rep < maxSetups && (rep < minSetups || spent < setupBudget); rep++ {
		if rep > 0 {
			release(last)
			runtime.GC()
		}
		t0 := time.Now()
		v, err := build(rep)
		if err != nil {
			return last, 0, err
		}
		d := time.Since(t0)
		spent += d
		secs = append(secs, d.Seconds())
		last = v
	}
	return last, median(secs), nil
}

// persistChunk is the record count per IngestRecords call when a set-up
// streams a store into its data dir.
const persistChunk = 8192

// persist streams recs through a durable live session into dir and
// closes it, so the dir holds one committed segment generation. The
// returned System keeps serving hunts from the store it built. Set-up
// only: the WAL is not fsynced.
func persist(dir string, recs []audit.Record) (*threatraptor.System, error) {
	opts := threatraptor.DefaultOptions()
	opts.DataDir = dir
	opts.FsyncPolicy = "off"
	opts.SegmentEvery = 1 << 30
	sys := threatraptor.New(opts)
	live, err := sys.Live()
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(recs); i += persistChunk {
		end := min(i+persistChunk, len(recs))
		if _, err := live.IngestRecords(recs[i:end]); err != nil {
			return nil, fmt.Errorf("persist %s: %w", dir, err)
		}
	}
	if err := sys.Close(); err != nil {
		return nil, fmt.Errorf("persist %s: close: %w", dir, err)
	}
	return sys, nil
}

// reopenResult is one cold open of a data dir.
type reopenResult struct {
	took time.Duration // New + Live + first Hunt, wall clock
	cpu  time.Duration // the same, process CPU time
	rows uint64        // first hunt's row digest
	rs   stream.RecoveryStats
}

// reopen opens dir cold as a product deployment would — New, Live
// (segment restore + WAL replay), then the first Hunt — and closes it.
//
// The collector is paused while the open is timed: how much collection
// work falls inside one open depends on where the heap's last cycle left
// off, which made the figure swing by a third from run to run.
func reopen(opts threatraptor.Options, dir, query string, t *tracer) (reopenResult, error) {
	opts.DataDir = dir
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c0 := cpuTime()
	t0 := time.Now()
	root, req := t.op("op.reopen", t0)
	sys := threatraptor.New(opts)
	if _, err := sys.Live(); err != nil {
		return reopenResult{}, err
	}
	t1 := time.Now()
	t.add("segment.recover", root, req, t0, t1)
	res, _, err := sys.Hunt(nil, query)
	t2, cpu := time.Now(), cpuTime()-c0
	t.add("reopen.hunt", root, req, t1, t2)
	t.finish(root, t2)
	if err != nil {
		sys.Close()
		return reopenResult{}, err
	}
	r := reopenResult{took: t2.Sub(t0), cpu: cpu, rows: resultHash(res.Set), rs: sys.RecoveryStats()}
	return r, sys.Close()
}

// opTimes holds one op class's samples: wall-clock latency, and the CPU
// time the process spent while the op ran. With one client per closed
// loop that is the op's own work, helper goroutines and GC included; on
// live-ingest it also counts whatever the other goroutine ran meanwhile,
// which the median mostly leaves out.
type opTimes struct{ wall, cpu samples }

func (t *opTimes) add(wall, cpu time.Duration) {
	t.wall.add(wall)
	t.cpu.add(cpu)
}

func (t *opTimes) merge(o opTimes) {
	t.wall = append(t.wall, o.wall...)
	t.cpu = append(t.cpu, o.cpu...)
}

// latencies writes a workload's timing metrics for its timed phase. The
// end-to-end metrics are CPU times: the median CPU time of its hunt and
// aux ops, and the process CPU time over the whole phase per op. The
// wall-clock medians, each op's tail — p99 for hunts, auxQ for the aux op
// — with the sample counts, and the hunt rate go to the metadata.
func (o *outcome) latencies(hunt, aux opTimes, auxQ float64, elapsed, cpu time.Duration) {
	o.e2e["hunt_cpu_ms"] = hunt.cpu.quantile(0.5)
	o.e2e["aux_cpu_ms"] = aux.cpu.quantile(0.5)
	o.e2e["cpu_ms_per_op"] = ms(cpu) / float64(len(hunt.wall)+len(aux.wall))
	o.meta["hunts_per_s"] = float64(len(hunt.wall)) / elapsed.Seconds()
	o.meta["hunt_p50_ms"] = hunt.wall.quantile(0.5)
	o.meta["aux_p50_ms"] = aux.wall.quantile(0.5)
	hw, aw := hunt.wall, aux.wall
	o.meta["tails"] = map[string]any{
		"hunt_p99_ms": hw.quantile(0.99), "hunt_samples": len(hw), "hunt_beyond": hw.beyond(0.99),
		"aux_percentile": auxQ, "aux_tail_ms": aw.quantile(auxQ), "aux_samples": len(aw), "aux_beyond": aw.beyond(auxQ),
	}
}

// reopenStats collects a workload's cold opens of its data dirs.
type reopenStats struct {
	times                 opTimes
	opens, segs, replayed float64
}

func (s *reopenStats) count(r reopenResult) {
	s.opens++
	s.segs += float64(r.rs.Segments)
	s.replayed += float64(r.rs.ReplayedRecords)
}

// recovery writes the cold-open metrics: the median CPU time as the
// end-to-end metric, the wall-clock median in the metadata, and what the
// opens restored as per-layer counts.
func (o *outcome) recovery(s *reopenStats) {
	o.e2e["recover_cpu_ms"] = s.times.cpu.quantile(0.5)
	o.meta["recover_p50_ms"] = s.times.wall.quantile(0.5)
	o.layers["segment.segments"] = ratio(s.segs, s.opens)
	o.layers["segment.replayed_records"] = ratio(s.replayed, s.opens)
}

// cpuTime is the process's user and system CPU time. The kernel accounts
// it without the time the hypervisor stole, so on a shared VM it moves far
// less from run to run than wall-clock latency.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of every file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapDelta is the live heap's growth since a liveHeap reading.
func heapDelta(from uint64) float64 {
	return float64(int64(liveHeap()) - int64(from))
}

// wchar reads the process's written-bytes counter from /proc/self/io
// (every write syscall, page cache included).
func wchar() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("wchar: ")); ok {
			return strconv.ParseInt(string(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/io: no wchar line")
}

// storeEvents counts the events in a store's published snapshot.
func storeEvents(st *engine.Store) int {
	return len(st.Snapshot().Events)
}

// resultHash digests a result set independently of row order.
func resultHash(rs *relational.ResultSet) uint64 {
	if rs == nil {
		return 0
	}
	var h uint64
	for _, row := range rs.Rows {
		var x uint64 = 1469598103934665603
		for _, v := range row {
			x = (x ^ uint64(v.K)) * 1099511628211
			x = (x ^ uint64(v.I)) * 1099511628211
			for i := 0; i < len(v.S); i++ {
				x = (x ^ uint64(v.S[i])) * 1099511628211
			}
		}
		h += mix(x)
	}
	return h ^ uint64(len(rs.Rows))
}

// compiler is the traced run's stand-in for the engine's parse/analyze
// cache: each distinct text is compiled once per run, as the façade's
// cache would, and the compile is a "tbql" span.
type compiler struct {
	mu     sync.Mutex
	cache  map[string]*tbql.Analyzed
	issued map[string]bool
}

func newCompiler() *compiler {
	return &compiler{cache: make(map[string]*tbql.Analyzed), issued: make(map[string]bool)}
}

// compile returns src's analyzed form and whether src was issued before.
func (c *compiler) compile(t *tracer, parent int32, req int64, src string) (*tbql.Analyzed, bool, error) {
	c.mu.Lock()
	a, ok := c.cache[src]
	repeat := c.issued[src]
	c.issued[src] = true
	c.mu.Unlock()
	if ok {
		return a, repeat, nil
	}
	t0 := time.Now()
	q, err := tbql.Parse(src)
	if err == nil {
		a, err = tbql.Analyze(q)
	}
	t.add("tbql", parent, req, t0, time.Now())
	if err != nil {
		return nil, repeat, err
	}
	c.mu.Lock()
	c.cache[src] = a
	c.mu.Unlock()
	return a, repeat, nil
}

// layerCounts accumulates the work counts the traced run reads from the
// layers' returned stats. One per client goroutine; merged at the end.
type layerCounts struct {
	hunts, issued, repeats                 int64
	dataQueries, patternRows, joinBindings int64
	resultRows, empty                      int64
	relScanned, relLookups, relHashJoins   int64
	graphNodes, graphEdges, graphLookups   int64
	reports, iocs, relations, patterns     int64
	fuzzies, alignments                    int64
	tracedLat, plainLat                    samples
}

func (lc *layerCounts) addExec(st engine.Stats, res *engine.Result) {
	lc.hunts++
	lc.dataQueries += int64(st.DataQueries)
	lc.patternRows += int64(st.PatternRows)
	lc.joinBindings += int64(st.JoinBindings)
	if st.EmptyPatternID != "" {
		lc.empty++
	}
	if res != nil && res.Set != nil {
		lc.resultRows += int64(len(res.Set.Rows))
	}
	lc.relScanned += int64(st.Rel.RowsScanned)
	lc.relLookups += int64(st.Rel.IndexLookups)
	lc.relHashJoins += int64(st.Rel.HashJoinBuilds)
	lc.graphNodes += int64(st.Graph.NodesVisited)
	lc.graphEdges += int64(st.Graph.EdgesTraversed)
	lc.graphLookups += int64(st.Graph.IndexLookups)
}

func (lc *layerCounts) merge(o *layerCounts) {
	lc.hunts += o.hunts
	lc.issued += o.issued
	lc.repeats += o.repeats
	lc.dataQueries += o.dataQueries
	lc.patternRows += o.patternRows
	lc.joinBindings += o.joinBindings
	lc.resultRows += o.resultRows
	lc.empty += o.empty
	lc.relScanned += o.relScanned
	lc.relLookups += o.relLookups
	lc.relHashJoins += o.relHashJoins
	lc.graphNodes += o.graphNodes
	lc.graphEdges += o.graphEdges
	lc.graphLookups += o.graphLookups
	lc.reports += o.reports
	lc.iocs += o.iocs
	lc.relations += o.relations
	lc.patterns += o.patterns
	lc.fuzzies += o.fuzzies
	lc.alignments += o.alignments
	lc.tracedLat = append(lc.tracedLat, o.tracedLat...)
	lc.plainLat = append(lc.plainLat, o.plainLat...)
}

// tracedHunt runs one hunt split at the layers' public boundaries:
// tbql.Parse → tbql.Analyze (once per distinct text) → Engine.Execute.
func tracedHunt(t *tracer, parent int32, req int64, c *compiler, en *engine.Engine, src string, lc *layerCounts) (*engine.Result, *tbql.Analyzed, error) {
	a, repeat, err := c.compile(t, parent, req, src)
	lc.issued++
	if repeat {
		lc.repeats++
	}
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	res, st, err := en.Execute(nil, a)
	t.add("engine", parent, req, t0, time.Now())
	if err != nil {
		return nil, nil, err
	}
	lc.addExec(st, res)
	return res, a, nil
}

// fillLayers writes the per-layer metrics every workload shares: the
// trace's self times and coverage, and the hunt-path work counts.
func fillLayers(out *outcome, rep traceReport, lc *layerCounts) {
	L := out.layers
	hunts := float64(lc.hunts)
	L["extract.ms"] = rep.self["extract"].quantile(0.5)
	L["extract.iocs"] = ratio(float64(lc.iocs), float64(lc.reports))
	L["extract.relations"] = ratio(float64(lc.relations), float64(lc.reports))
	L["synth.ms"] = rep.self["synth"].quantile(0.5)
	L["synth.patterns"] = ratio(float64(lc.patterns), float64(lc.reports))
	var compile float64
	for _, v := range rep.dur["tbql"] {
		compile += v
	}
	L["tbql.compile_ms"] = ratio(compile, float64(lc.issued))
	L["tbql.repeat_share"] = ratio(float64(lc.repeats), float64(lc.issued))
	L["engine.execute_ms"] = rep.self["engine"].quantile(0.5)
	L["engine.data_queries"] = ratio(float64(lc.dataQueries), hunts)
	L["engine.pattern_rows"] = ratio(float64(lc.patternRows), hunts)
	L["engine.join_bindings"] = ratio(float64(lc.joinBindings), hunts)
	L["engine.rows_per_result"] = ratio(float64(lc.patternRows), float64(lc.resultRows))
	L["engine.empty_share"] = ratio(float64(lc.empty), hunts)
	L["relational.rows_scanned"] = ratio(float64(lc.relScanned), hunts)
	L["relational.index_lookups"] = ratio(float64(lc.relLookups), hunts)
	L["relational.hash_join_builds"] = ratio(float64(lc.relHashJoins), hunts)
	L["graphdb.nodes_visited"] = ratio(float64(lc.graphNodes), hunts)
	L["graphdb.edges_traversed"] = ratio(float64(lc.graphEdges), hunts)
	L["graphdb.index_lookups"] = ratio(float64(lc.graphLookups), hunts)
	L["provenance.build_ms"] = rep.self["provenance"].quantile(0.5)
	L["fuzzy.search_ms"] = rep.self["fuzzy"].quantile(0.5)
	L["fuzzy.alignments"] = ratio(float64(lc.alignments), float64(lc.fuzzies))
	L["segment.recover_ms"] = rep.dur["segment.recover"].quantile(0.5)
	L["trace.coverage"] = rep.coverage
	// Tracing overhead: traced and untraced hunts alternate on the same
	// clients, so their medians compare like with like.
	L["trace.overhead"] = ratio(lc.tracedLat.quantile(0.5), lc.plainLat.quantile(0.5)) - 1
	out.meta["trace_spans"] = rep.spans
	out.meta["trace_coverage_min"] = rep.coverage
	if rep.coverage < 0.9 {
		out.problem("trace: layer spans cover %.3f of op wall time, below 0.9", rep.coverage)
	}
}
