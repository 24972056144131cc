package main

// osint-hunt: the paper's pipeline (Tables VI, VII and IX).
//
// Why: each request turns an OSCTI report into rows — extraction and
// synthesis do about half of the median request's work here and none
// anywhere else. The 18 case query texts repeat, so they fit the engine's
// 256-entry analyzed and plan caches: this is the cache-hit path. The
// large joins of tc_theia_4 and tc_trace_5 (5–15 ms) set the hunt tail.
// Every tenth request runs FuzzyHunt in Poirot mode (the aux op), the
// Table IX path whose provenance-graph rebuild dominates its cost.
//
// Set-up: every case's simulated stream is persisted into its own data
// dir through a durable session and served by its own System. Load: a
// closed loop cycling through the cases in a seeded order.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"threatraptor"
	"threatraptor/internal/engine"
	"threatraptor/internal/extract"
	"threatraptor/internal/fuzzy"
	"threatraptor/internal/provenance"
	"threatraptor/internal/synth"
	"threatraptor/internal/tbql"
)

const (
	osintScale = 4.0
	// Every osintFuzzyEvery-th request runs FuzzyHunt.
	osintFuzzyEvery = 10
	// osintReopens is how many rounds of cold opens the case data dirs get.
	osintReopens = 5
)

// osintCase is one case's System and the reference answers computed
// outside the timed region by a separate extract → synth → unscheduled
// engine path.
type osintCase struct {
	id, report string
	sys        *threatraptor.System
	dir        string
	events     int
	// traced is the traced run's engine over the System's store.
	traced *engine.Engine

	query      string // reference synthesized TBQL
	matched    uint64 // reference matched-event digest
	rows       uint64 // reference result-row digest (reopen check)
	alignments int    // reference Poirot-mode alignment count
	// roundTripDiffers is set when executing the synthesized AST and
	// executing its formatted-then-parsed text give different rows.
	roundTripDiffers bool
}

func runOsint(e *env) (*outcome, error) {
	out := newOutcome()
	scale := osintScale
	if e.tiny {
		scale = 0.05
	}
	heap0 := liveHeap()
	cs, setup, err := timeSetup(func(rep int) ([]*osintCase, error) {
		var cs []*osintCase
		for _, s := range simulateCases(scale) {
			dir := filepath.Join(e.dir, fmt.Sprintf("osint-%d", rep), s.c.ID)
			sys, err := persist(dir, s.recs)
			if err != nil {
				return nil, err
			}
			cs = append(cs, &osintCase{id: s.c.ID, report: s.c.Report, sys: sys, dir: dir})
		}
		return cs, nil
	}, func(cs []*osintCase) { os.RemoveAll(filepath.Dir(cs[0].dir)) })
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setup
	totalEvents := 0
	var roundTrip []string
	for _, c := range cs {
		c.events = storeEvents(c.sys.Store())
		totalEvents += c.events
		c.traced = &engine.Engine{Store: c.sys.Store()}
		if err := c.reference(); err != nil {
			return nil, fmt.Errorf("%s: reference: %w", c.id, err)
		}
		if c.roundTripDiffers {
			roundTrip = append(roundTrip, c.id)
		}
	}
	out.meta["format_roundtrip_differs"] = roundTrip
	if e.corrupt {
		cs[0].matched++
	}
	out.meta["scale"] = scale
	out.meta["shape"] = map[string]any{"cases": len(cs), "events": totalEvents, "fuzzy_share": 1.0 / osintFuzzyEvery}

	out.e2e["heap_bytes_per_event"] = heapDelta(heap0) / float64(totalEvents)

	// Warm-up: one request per case fills the caches the timed loop hits.
	for _, c := range cs {
		if _, _, err := c.sys.HuntOSCTI(nil, c.report); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", c.id, err)
		}
	}

	type client struct {
		hunt, fuzzy opTimes
		ops         ops
		lc          layerCounts
		t           *tracer
		problems    []string
	}
	epoch := time.Now()
	cpu0 := cpuTime()
	clients := make([]*client, e.clients)
	comp := newCompiler()
	var wg sync.WaitGroup
	deadline := epoch.Add(e.seconds)
	for k := range clients {
		cl := &client{ops: make(ops)}
		if e.trace {
			cl.t = newTracer(epoch, int64(k+1))
		}
		clients[k] = cl
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Report hunts cycle through the cases in a seeded order and
			// every osintFuzzyEvery-th request is a fuzzy hunt cycling
			// through them in a fixed order, so every run issues the same
			// mix; clients start at different offsets.
			order := rand.New(rand.NewSource(e.seed*1_000_003 + int64(k))).Perm(len(cs))
			hunts, fuzzies := k*len(cs)/len(clients), k*len(cs)/len(clients)
			for n := 0; time.Now().Before(deadline); n++ {
				fz := n%osintFuzzyEvery == osintFuzzyEvery-1
				var c *osintCase
				var i int // the request's index within its op class
				if fz {
					i = fuzzies
					c = cs[fuzzies%len(cs)]
					fuzzies++
				} else {
					i = hunts
					c = cs[order[hunts%len(cs)]]
					hunts++
				}
				// The traced run alternates traced and untraced passes over
				// the cases, so tracing overhead compares like with like.
				t := cl.t
				if i/len(cs)%2 == 1 {
					t = nil
				}
				t0, c0 := time.Now(), cpuTime()
				var err error
				var bad string
				if fz {
					var got int
					got, err = c.fuzzy(t, comp, &cl.lc)
					if err == nil && got != c.alignments {
						bad = fmt.Sprintf("%s: fuzzy alignments %d, reference %d", c.id, got, c.alignments)
					}
					cl.ops.get("fuzzy").done(err)
				} else {
					var q string
					var matched uint64
					q, matched, err = c.hunt(t, comp, &cl.lc)
					if err == nil && (q != c.query || matched != c.matched) {
						bad = fmt.Sprintf("%s: synthesized query or matched events differ from the reference", c.id)
					}
					cl.ops.get("hunt").done(err)
				}
				d := time.Since(t0)
				if fz {
					cl.fuzzy.add(d, cpuTime()-c0)
				} else {
					cl.hunt.add(d, cpuTime()-c0)
					if e.trace && t != nil {
						cl.lc.tracedLat.add(d)
					} else if e.trace {
						cl.lc.plainLat.add(d)
					}
				}
				if err != nil {
					bad = fmt.Sprintf("%s: %v", c.id, err)
				}
				if bad != "" && len(cl.problems) < 5 {
					cl.problems = append(cl.problems, bad)
				}
			}
		}(k)
	}
	wg.Wait()
	elapsed, cpu := time.Since(epoch), cpuTime()-cpu0

	var hunt, fz opTimes
	var lc layerCounts
	for _, cl := range clients {
		hunt.merge(cl.hunt)
		fz.merge(cl.fuzzy)
		out.ops.merge(cl.ops)
		lc.merge(&cl.lc)
		out.tracers = append(out.tracers, cl.t)
		for _, p := range cl.problems {
			out.problem("%s", p)
		}
	}
	out.latencies(hunt, fz, 0.95, elapsed, cpu)

	// Cold opens of every case's data dir: the first hunt must return the
	// rows the serving System returns. The serving Systems are released
	// first, so each open starts from a heap as small as a fresh process's.
	for _, c := range cs {
		c.sys, c.traced = nil, nil
	}
	reopenT := newTracer(epoch, 0)
	if !e.trace {
		reopenT = nil
	}
	var disk int64
	for _, c := range cs {
		n, err := dirBytes(c.dir)
		if err != nil {
			return nil, err
		}
		disk += n
	}
	// A round reopens every case once; its sample is the mean open time
	// per store.
	var rec reopenStats
	for round := 0; round < osintReopens; round++ {
		var took, cpu time.Duration
		for _, c := range cs {
			r, err := reopen(threatraptor.DefaultOptions(), c.dir, c.query, reopenT)
			out.ops.get("reopen").done(err)
			if err != nil {
				out.problem("%s: reopen: %v", c.id, err)
				continue
			}
			if r.rows != c.rows {
				out.problem("%s: reopened store's first hunt differs from the serving store's", c.id)
			}
			took += r.took
			cpu += r.cpu
			rec.count(r)
		}
		n := time.Duration(len(cs))
		rec.times.add(took/n, cpu/n)
	}
	out.tracers = append(out.tracers, reopenT)
	out.recovery(&rec)
	out.e2e["disk_bytes_per_event"] = float64(disk) / float64(totalEvents)

	if e.trace {
		fillLayers(out, analyze(out.tracers), &lc)
	}
	return out, nil
}

// reference computes the case's answers by a path that shares no cache
// with the System: a fresh extractor, synthesis, and the unscheduled
// engine (the paper's scheduling ablation); fuzzy alignments from a
// setup-time search over a freshly built provenance graph.
func (c *osintCase) reference() error {
	res := extract.New(extract.Options{IOCProtection: true}).Extract(c.report)
	q, _, err := synth.Synthesize(res.Graph, synth.Options{Mode: synth.ModeEventPatterns})
	if err != nil {
		return err
	}
	// The System hunts the synthesized text, so the reference executes the
	// text too (re-parsed), not the synthesizer's AST.
	c.query = tbql.Format(q)
	parsed, err := tbql.Parse(c.query)
	if err != nil {
		return err
	}
	a, err := tbql.Analyze(parsed)
	if err != nil {
		return err
	}
	unscheduled := &engine.Engine{Store: c.sys.Store(), DisableScheduling: true}
	ref, _, err := unscheduled.Execute(nil, a)
	if err != nil {
		return err
	}
	c.matched = idsHash(ref.MatchedEvents)
	c.rows = resultHash(ref.Set)
	// Whether the text still means what the synthesizer built: a
	// difference is reported in the run's metadata, not as a failure of
	// the System under test.
	if ast, err := tbql.Analyze(q); err == nil {
		if r, _, err := unscheduled.Execute(nil, ast); err == nil && resultHash(r.Set) != c.rows {
			c.roundTripDiffers = true
		}
	}
	qg, err := fuzzy.FromTBQL(a)
	if err != nil {
		return err
	}
	snap := c.sys.Store().Snapshot()
	prov := provenance.BuildFrom(snap.Entities, snap.Events)
	c.alignments = len(fuzzy.NewSearcher(prov, qg, fuzzy.DefaultOptions(fuzzy.ModeFirstAcceptable)).Search())
	return nil
}

// hunt runs report → rows. Untraced (t == nil) it is one HuntOSCTI call;
// traced, the same work split at the layers' public boundaries.
func (c *osintCase) hunt(t *tracer, comp *compiler, lc *layerCounts) (string, uint64, error) {
	if t == nil {
		q, res, err := c.sys.HuntOSCTI(nil, c.report)
		if err != nil {
			return "", 0, err
		}
		return q, idsHash(res.MatchedEvents), nil
	}
	t0 := time.Now()
	root, req := t.op("op.report", t0)
	defer func() { t.finish(root, time.Now()) }()
	ex := c.sys.ExtractBehaviorGraph(c.report)
	t1 := time.Now()
	t.add("extract", root, req, t0, t1)
	q, err := c.sys.SynthesizeQuery(ex.Graph)
	t2 := time.Now()
	t.add("synth", root, req, t1, t2)
	if err != nil {
		return "", 0, err
	}
	lc.reports++
	lc.iocs += int64(len(ex.IOCs))
	lc.relations += int64(len(ex.Triplets))
	res, a, err := tracedHunt(t, root, req, comp, c.traced, q, lc)
	if err != nil {
		return "", 0, err
	}
	lc.patterns += int64(len(a.Query.Patterns))
	return q, idsHash(res.MatchedEvents), nil
}

// fuzzy runs the case's query in Poirot mode. Traced, the provenance
// build and the alignment search are separate spans.
func (c *osintCase) fuzzy(t *tracer, comp *compiler, lc *layerCounts) (int, error) {
	if t == nil {
		als, err := c.sys.FuzzyHunt(nil, c.query, false)
		return len(als), err
	}
	t0 := time.Now()
	root, req := t.op("op.fuzzy", t0)
	defer func() { t.finish(root, time.Now()) }()
	a, _, err := comp.compile(t, root, req, c.query)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	snap := c.sys.Store().Snapshot()
	prov := provenance.BuildFrom(snap.Entities, snap.Events)
	t2 := time.Now()
	t.add("provenance", root, req, t1, t2)
	qg, err := fuzzy.FromTBQL(a)
	if err != nil {
		return 0, err
	}
	als := fuzzy.NewSearcher(prov, qg, fuzzy.DefaultOptions(fuzzy.ModeFirstAcceptable)).Search()
	for _, al := range als {
		for i := range qg.Nodes {
			if al.NodeMap[i] != 0 {
				_ = prov.DefaultName(al.NodeMap[i])
			}
		}
	}
	t.add("fuzzy", root, req, t2, time.Now())
	lc.fuzzies++
	lc.alignments += int64(len(als))
	return len(als), nil
}
