package main

// live-ingest: the write path, with reads beside writes.
//
// Why: the only workload that runs the stream, tactical and segment
// layers. One producer feeds the host-stamped fleet record stream
// open-loop — fixed-size chunks at a fixed record rate, each timed from
// its due time until IngestRecords returns, by which point its standing-
// query firings and incident updates have been delivered (the aux op).
// One hunter issues bounded-cost fleet-hunt templates on a fixed schedule,
// timed from due time (the hunt op). The session runs the product
// defaults — WAL fsync "always", a segment flush every 64 sealed batches —
// with the demo rule set, the 18 synthesized case queries as standing
// queries and one incident watch. Each flush today rewrites all history,
// so flush cost grows over the run. The closing phase closes the session
// and cold-opens its data dir several times, so a flush change that costs
// recovery shows.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"threatraptor"
	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/rules"
	"threatraptor/internal/stream"
	"threatraptor/internal/tactical"
)

const (
	liveHosts = 4
	liveScale = 1.0
	// liveChunk records go into each IngestRecords call, liveRate records
	// per second: under a quarter of the ~55k records/s the session
	// sustains closed-loop with this configuration on a 2-vCPU runner.
	// Nearer that rate, each segment flush's stall grew into a backlog
	// that made the figures swing from run to run.
	liveChunk = 500
	liveRate  = 12_500
	// liveHuntEvery is the hunter's schedule.
	liveHuntEvery = 20 * time.Millisecond
	liveFsync     = "always"
	liveSegEvery  = 64
	liveReopens   = 11
	// liveHuntBlocks blocks of the bounded-cost hunt mix make the
	// hunter's template pool.
	liveHuntBlocks = 60
	rulesPath      = "examples/rules/demo.json"
)

// ingestHooks tallies the façade's ingest-path callbacks (tactical rounds,
// WAL fsyncs, segment flushes). They run on the goroutine calling into the
// session — the producer, or the closer after it stopped — so a tracer set
// here records them as children of the chunk in flight.
type ingestHooks struct {
	t      *tracer
	parent int32
	req    int64

	rounds, fsyncs, flushes, flushFails int
	flushBytes                          int64
}

func (h *ingestHooks) span(name string, d time.Duration) {
	if h.t != nil && h.parent >= 0 {
		end := time.Now()
		h.t.add(name, h.parent, h.req, end.Add(-d), end)
	}
}

func (h *ingestHooks) options(o *threatraptor.Options) {
	o.OnTacticalRound = func(d time.Duration, _ tactical.RoundStats) {
		h.rounds++
		h.span("tactical", d)
	}
	o.OnWALFsync = func(d time.Duration) {
		h.fsyncs++
		h.span("segment.fsync", d)
	}
	o.OnSegmentFlush = func(st stream.FlushStats) {
		h.flushes++
		h.flushBytes += st.Bytes
		if st.Err != nil {
			h.flushFails++
		}
		h.span("segment.flush", st.Took)
	}
}

// liveRig is one set-up's session and inputs.
type liveRig struct {
	sys     *threatraptor.System
	live    *stream.Session
	subs    []*stream.Subscription
	inc     *stream.IncidentSub
	hooks   *ingestHooks
	dir     string
	pool    []audit.Record
	hosts   int
	ids     *hostIDs
	wrap    int64 // time shift added each time the stream replays the pool
	v       *vocab
	queries []string
}

// chunk fills buf with the i-th chunk of the stream: the pool replayed
// end to end, each replay shifted later by wrap and run by a fresh set of
// hosts, so replays never join with each other.
func (r *liveRig) chunk(i int, buf []audit.Record) []audit.Record {
	buf = buf[:0]
	n := len(r.pool)
	for j := 0; j < liveChunk; j++ {
		k := i*liveChunk + j
		rec := r.pool[k%n]
		if w := k / n; w > 0 {
			rec.Time += int64(w) * r.wrap
			r.ids.stamp(&rec, hostIndex(rec.Host)+w*r.hosts)
		}
		buf = append(buf, rec)
	}
	return buf
}

func liveOptions(set *rules.Set) threatraptor.Options {
	o := threatraptor.DefaultOptions()
	o.FsyncPolicy = liveFsync
	o.SegmentEvery = liveSegEvery
	o.Rules = set
	return o
}

func runLive(e *env) (*outcome, error) {
	out := newOutcome()
	hosts, scale := liveHosts, liveScale
	if e.tiny {
		hosts, scale = 2, 0.05
	}
	set, err := rules.LoadFile(rulesPath)
	if err != nil {
		return nil, err
	}
	heap0 := liveHeap()
	rig, setup, err := timeSetup(func(rep int) (*liveRig, error) {
		sims := simulateCases(scale)
		r := &liveRig{
			pool:  fleetRecords(hosts, sims),
			hosts: hosts,
			ids:   newHostIDs(),
			v:     buildVocab(sims, hosts),
			dir:   filepath.Join(e.dir, fmt.Sprintf("live-%d", rep)),
			hooks: &ingestHooks{parent: -1},
		}
		r.wrap = r.pool[len(r.pool)-1].Time - r.pool[0].Time + 5_000_000
		opts := liveOptions(set)
		opts.DataDir = r.dir
		r.hooks.options(&opts)
		r.sys = threatraptor.New(opts)
		if r.live, err = r.sys.Live(); err != nil {
			return nil, err
		}
		for _, s := range sims {
			q, err := r.sys.SynthesizeQuery(r.sys.ExtractBehaviorGraph(s.c.Report).Graph)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.c.ID, err)
			}
			sub, err := r.sys.Watch(q)
			if err != nil {
				return nil, fmt.Errorf("%s: watch: %w", s.c.ID, err)
			}
			r.queries = append(r.queries, q)
			r.subs = append(r.subs, sub)
		}
		r.inc, err = r.sys.WatchIncidents(0)
		return r, err
	}, func(r *liveRig) {
		r.sys.Close()
		os.RemoveAll(r.dir)
	})
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setup
	out.meta["scale"] = scale
	out.meta["fsync_policy"] = liveFsync
	out.meta["segment_every"] = liveSegEvery
	out.meta["chunk_records"] = liveChunk
	out.meta["hunt_every_ms"] = ms(liveHuntEvery)

	epoch := time.Now()
	cpu0 := cpuTime()
	var prodT, huntT *tracer
	if e.trace {
		prodT, huntT = newTracer(epoch, 1), newTracer(epoch, 2)
	}
	rig.hooks.t = prodT
	rate := liveRate
	if e.tiny {
		rate /= 10
	}
	out.meta["rate_records_per_s"] = rate
	period := time.Duration(float64(time.Second) * liveChunk / float64(rate))
	chunks := int(e.seconds / period)
	w0, err := wchar()
	if err != nil {
		return nil, err
	}

	// Producer: open loop; firings are drained between chunks.
	firings := make([]map[string]int, len(rig.subs))
	for i := range firings {
		firings[i] = make(map[string]int)
	}
	drain := func() {
		drainFirings(rig.subs, firings)
		for more := true; more; {
			select {
			case _, ok := <-rig.inc.C:
				more = ok
			default:
				more = false
			}
		}
	}
	var ingest opTimes
	var queue, genLate samples
	var parsed, sealed, fired int64
	prodOps := make(ops)
	var prodProblems []string
	var huntLat opTimes
	huntOps := make(ops)
	var huntProblems []string
	var lc layerCounts
	comp := newCompiler()
	traced := &engine.Engine{Store: rig.sys.Store()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]audit.Record, 0, liveChunk)
		var dropped int64
		for i := 0; i < chunks; i++ {
			buf = rig.chunk(i, buf)
			due := epoch.Add(time.Duration(i) * period)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
				genLate.add(time.Since(due))
			}
			start, c0 := time.Now(), cpuTime()
			root, req := prodT.op("op.chunk", due)
			prodT.add("stream.queue", root, req, due, start)
			// The session span is open while IngestRecords runs, so the
			// callbacks' tactical/fsync/flush spans nest under it.
			rig.hooks.parent, rig.hooks.req = prodT.begin("stream", root, req, start), req
			st, err := rig.live.IngestRecords(buf)
			end, dc := time.Now(), cpuTime()-c0
			prodT.finish(rig.hooks.parent, end)
			prodT.finish(root, end)
			rig.hooks.parent = -1
			ingest.add(end.Sub(due), dc)
			queue.add(start.Sub(due))
			parsed += int64(st.EventsParsed)
			sealed += int64(st.EventsSealed)
			fired += int64(st.Firings)
			drain()
			// A chunk fails if ingest errs, any match was dropped, or a
			// standing query was quarantined.
			var nd int64
			for _, sub := range rig.subs {
				nd += sub.Dropped()
				if sub.Quarantined() && err == nil {
					err = fmt.Errorf("standing query %d quarantined: %v", sub.ID, sub.Err())
				}
			}
			if nd > dropped && err == nil {
				err = fmt.Errorf("%d matches dropped", nd-dropped)
			}
			dropped = nd
			prodOps.get("chunk").done(err)
			if err != nil && len(prodProblems) < 5 {
				prodProblems = append(prodProblems, fmt.Sprintf("chunk %d: %v", i, err))
			}
		}
	}()

	// Hunter: fixed schedule over the same deadline; bounded-cost templates.
	deadline := epoch.Add(time.Duration(chunks) * period)
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool, block := rig.v.templatePool(liveHuntBlocks, true)
		is := newIssuer(pool, rig.v.hosts, e.seed*1_000_003+7, 0, block)
		for i := 0; ; i++ {
			due := epoch.Add(time.Duration(i) * liveHuntEvery)
			if !due.Before(deadline) {
				return
			}
			_, q := is.next()
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			t := huntT
			if i%2 == 1 {
				t = nil
			}
			c0 := cpuTime()
			var err error
			if t == nil {
				_, _, err = rig.sys.Hunt(nil, q)
			} else {
				root, req := t.op("op.hunt", due)
				t.add("hunt.queue", root, req, due, time.Now())
				_, _, err = tracedHunt(t, root, req, comp, traced, q, &lc)
				t.finish(root, time.Now())
			}
			d := time.Since(due)
			huntLat.add(d, cpuTime()-c0)
			if e.trace && t != nil {
				lc.tracedLat.add(d)
			} else if e.trace {
				lc.plainLat.add(d)
			}
			huntOps.get("hunt").done(err)
			if err != nil && len(huntProblems) < 5 {
				huntProblems = append(huntProblems, fmt.Sprintf("hunt %q: %v", q, err))
			}
		}
	}()
	wg.Wait()
	elapsed, cpu := time.Since(epoch), cpuTime()-cpu0
	rig.hooks.t = nil
	out.ops.merge(prodOps)
	out.ops.merge(huntOps)
	for _, p := range append(prodProblems, huntProblems...) {
		out.problem("%s", p)
	}

	// The reopen reference: what the live store answers once everything
	// ingested is sealed, just before Close.
	if _, err := rig.sys.FlushStream(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	drain()
	reopenQ := joinQuery(rig.v.hosts[0], rig.v.chains[0][:2])
	want, _, err := rig.sys.Hunt(nil, reopenQ)
	if err != nil {
		return nil, fmt.Errorf("reopen query: %w", err)
	}
	wantRows := resultHash(want.Set)
	if e.corrupt {
		wantRows++
	}
	if err := rig.sys.Close(); err != nil {
		out.problem("close: %v", err)
	}
	drain()
	w1, err := wchar()
	if err != nil {
		return nil, err
	}
	events := storeEvents(rig.sys.Store())
	disk, err := dirBytes(rig.dir)
	if err != nil {
		return nil, err
	}
	flushOps := out.ops.get("flush")
	flushOps.attempted += int64(rig.hooks.flushes)
	flushOps.failed += int64(rig.hooks.flushFails)
	out.latencies(huntLat, ingest, 0.98, elapsed, cpu)
	out.e2e["disk_bytes_per_event"] = float64(disk) / float64(events)
	out.meta["shape"] = map[string]any{
		"hosts": hosts, "pool_records": len(rig.pool), "records": chunks * liveChunk,
		"events": events, "standing_queries": len(rig.subs),
	}

	// Correctness 1: incremental incidents equal a one-shot analysis of
	// the final store.
	incs, err := rig.sys.Incidents()
	if err != nil {
		return nil, err
	}
	liveInc, err := tactical.MarshalIncidents(incs)
	if err != nil {
		return nil, err
	}
	batch, err := rig.sys.Analyze(set)
	if err != nil {
		return nil, err
	}
	oneShot, err := tactical.MarshalIncidents(batch)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(liveInc, oneShot) {
		out.problem("live incidents differ from a one-shot Analyze of the final store")
	}

	// Correctness 2: firings equal those of a non-durable in-memory session
	// fed the same chunks.
	refFirings, err := referenceFirings(rig, chunks)
	if err != nil {
		return nil, err
	}
	for i := range rig.subs {
		if !equalCounts(firings[i], refFirings[i]) {
			out.problem("standing query %d: firings differ from the in-memory reference session", i+1)
		}
	}
	rig.pool, refFirings, firings = nil, nil, nil
	out.e2e["heap_bytes_per_event"] = heapDelta(heap0) / float64(events)

	ts := rig.sys.TacticalStats()
	var dropped, resets int64
	for _, sub := range rig.subs {
		dropped += sub.Dropped()
		resets += sub.DedupResets()
	}

	// Closing phase: cold reopens of the data dir, with the live System
	// released so each open starts from a heap as small as a fresh
	// process's.
	rig.sys, rig.live, rig.subs, rig.inc, traced = nil, nil, nil, nil, nil
	var reopenT *tracer
	if e.trace {
		reopenT = newTracer(epoch, 3)
	}
	var rec reopenStats
	for i := 0; i < liveReopens; i++ {
		r, err := reopen(liveOptions(set), rig.dir, reopenQ, reopenT)
		out.ops.get("reopen").done(err)
		if err != nil {
			out.problem("reopen: %v", err)
			continue
		}
		if r.rows != wantRows {
			out.problem("reopen %d: first hunt differs from the live store's answer before Close", i)
		}
		rec.times.add(r.took, r.cpu)
		rec.count(r)
	}
	out.recovery(&rec)

	if e.trace {
		out.tracers = []*tracer{prodT, huntT, reopenT}
		rep := analyze(out.tracers)
		fillLayers(out, rep, &lc)
		L := out.layers
		L["stream.ingest_ms"] = rep.dur["stream"].quantile(0.5)
		L["stream.queue_ms"] = mean(queue)
		L["stream.self_ms"] = rep.self["stream"].quantile(0.5)
		L["stream.events_parsed"] = ratio(float64(parsed), float64(len(ingest.wall)))
		L["stream.events_sealed"] = ratio(float64(sealed), float64(len(ingest.wall)))
		L["stream.seal_ratio"] = ratio(float64(sealed), float64(parsed))
		L["stream.firings"] = float64(fired)
		L["stream.dropped"] = float64(dropped)
		L["stream.dedup_resets"] = float64(resets)
		L["stream.gen_late_ms"] = mean(genLate)
		L["tactical.round_ms"] = rep.dur["tactical"].quantile(0.5)
		L["tactical.rounds"] = float64(ts.Rounds)
		L["tactical.alerts"] = float64(ts.AlertsTagged)
		L["tactical.incidents"] = float64(ts.Incidents)
		L["segment.fsync_ms"] = rep.dur["segment.fsync"].quantile(0.5)
		L["segment.fsyncs"] = float64(rig.hooks.fsyncs)
		L["segment.flush_ms"] = rep.dur["segment.flush"].quantile(0.5)
		L["segment.flushes"] = float64(rig.hooks.flushes)
		L["segment.flush_bytes"] = ratio(float64(rig.hooks.flushBytes), float64(rig.hooks.flushes))
		L["segment.flush_failures"] = float64(rig.hooks.flushFails)
		L["segment.write_bytes_per_event"] = float64(w1-w0) / float64(events)
	}
	return out, nil
}

// referenceFirings feeds the same chunks to a non-durable in-memory
// session watching the same queries and returns each query's firings.
func referenceFirings(rig *liveRig, chunks int) ([]map[string]int, error) {
	sys := threatraptor.New(threatraptor.DefaultOptions())
	var subs []*stream.Subscription
	for _, q := range rig.queries {
		sub, err := sys.Watch(q)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	live, err := sys.Live()
	if err != nil {
		return nil, err
	}
	out := make([]map[string]int, len(subs))
	for i := range out {
		out[i] = make(map[string]int)
	}
	buf := make([]audit.Record, 0, liveChunk)
	for i := 0; i < chunks; i++ {
		buf = rig.chunk(i, buf)
		if _, err := live.IngestRecords(buf); err != nil {
			sys.Close()
			return nil, err
		}
		drainFirings(subs, out)
	}
	err = sys.Close()
	drainFirings(subs, out)
	return out, err
}

// drainFirings moves every match waiting on the subscriptions' channels
// into per-subscription counts, without blocking.
func drainFirings(subs []*stream.Subscription, into []map[string]int) {
	for i, sub := range subs {
		for more := true; more; {
			select {
			case m, ok := <-sub.C:
				if ok {
					into[i][matchKey(m)]++
				}
				more = ok
			default:
				more = false
			}
		}
	}
}

// matchKey renders a firing's row (and its batch, which both sessions
// number identically when fed the same chunks).
func matchKey(m stream.Match) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%v", m.Batch, m.Terminal)
	for _, v := range m.Row {
		b.WriteByte('|')
		b.WriteString(v.Key())
	}
	return b.String()
}

func equalCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

func mean(s samples) float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}
