package main

// fleet-hunt: analyst ad-hoc hunting over a multi-host store.
//
// Why: a closed loop of parametrized TBQL templates — host-pinned event
// patterns with LIKE and IN, trailing `last N second` windows, 2–4
// pattern temporal joins, `->[op]` length-1 paths, `~>(1~k)` var-length
// paths (the aux op) and a pattern that matches nothing — over a store
// far larger than CPU cache. The mix has far more distinct texts than the
// engine's 256-entry caches hold, so tbql compile runs on most hunts
// (the cache-miss path), and engine, relational and graphdb do the rest.
// No NLP and no ingest run while timing; window-bounded access paths and
// the compile path show here and nowhere else.
//
// Set-up: every case is replayed on fleetHosts hosts, stamped with
// Record.Host and shifted in time, and the merged stream is persisted into
// one data dir through a durable session.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"threatraptor"
	"threatraptor/internal/engine"
)

const (
	fleetHosts = 8
	fleetScale = 1.0
	// fleetChecks caps how many distinct texts a run checks against the
	// unscheduled engine (a seeded sample; every text issued twice is
	// also checked against its own first answer).
	fleetChecks  = 400
	fleetReopens = 11
	// fleetPoolBlocks blocks of the hunt mix make the template pool every
	// run cycles through: more than a run issues, and far more distinct
	// texts than the engine's 256-entry caches hold.
	fleetPoolBlocks = 100
)

func runFleet(e *env) (*outcome, error) {
	out := newOutcome()
	hosts, scale := fleetHosts, fleetScale
	if e.tiny {
		hosts, scale = 2, 0.05
	}
	type fleet struct {
		sys  *threatraptor.System
		dir  string
		v    *vocab
		recs int
	}
	heap0 := liveHeap()
	f, setup, err := timeSetup(func(rep int) (fleet, error) {
		sims := simulateCases(scale)
		recs := fleetRecords(hosts, sims)
		dir := filepath.Join(e.dir, fmt.Sprintf("fleet-%d", rep))
		sys, err := persist(dir, recs)
		return fleet{sys: sys, dir: dir, v: buildVocab(sims, hosts), recs: len(recs)}, err
	}, func(f fleet) { os.RemoveAll(f.dir) })
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setup
	events := storeEvents(f.sys.Store())
	traced := &engine.Engine{Store: f.sys.Store()}
	reopenQ := joinQuery(f.v.hosts[0], f.v.chains[0][:2])
	out.meta["scale"] = scale
	out.e2e["heap_bytes_per_event"] = heapDelta(heap0) / float64(events)

	pool, block := f.v.templatePool(fleetPoolBlocks, false)
	// Warm-up: untimed hunts from a different seed stream.
	warm := newIssuer(pool, f.v.hosts, -e.seed, 0, block)
	for i := 0; i < 2*block; i++ {
		_, q := warm.next()
		if _, _, err := f.sys.Hunt(nil, q); err != nil {
			return nil, fmt.Errorf("warm-up %q: %w", q, err)
		}
	}

	type answer struct {
		kind string
		rows uint64
	}
	type client struct {
		hunt, aux opTimes
		ops       ops
		lc        layerCounts
		t         *tracer
		answers   map[string]answer
		problems  []string
		kinds     map[string]samples
	}
	epoch := time.Now()
	cpu0 := cpuTime()
	clients := make([]*client, e.clients)
	comp := newCompiler()
	var wg sync.WaitGroup
	deadline := epoch.Add(e.seconds)
	for k := range clients {
		cl := &client{ops: make(ops), answers: make(map[string]answer), kinds: make(map[string]samples)}
		if e.trace {
			cl.t = newTracer(epoch, int64(k+1))
		}
		clients[k] = cl
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			is := newIssuer(pool, f.v.hosts, e.seed*1_000_003+int64(k), k*len(pool)/len(clients), block)
			for n := 0; time.Now().Before(deadline); n++ {
				kind, q := is.next()
				t := cl.t
				if n%2 == 1 {
					t = nil
				}
				t0, c0 := time.Now(), cpuTime()
				var res *engine.Result
				var err error
				if t == nil {
					res, _, err = f.sys.Hunt(nil, q)
				} else {
					root, req := t.op("op.hunt", t0)
					res, _, err = tracedHunt(t, root, req, comp, traced, q, &cl.lc)
					t.finish(root, time.Now())
				}
				d, dc := time.Since(t0), cpuTime()-c0
				cl.ops.get("hunt").done(err)
				if kind == kVarLen {
					cl.aux.add(d, dc)
				} else {
					cl.hunt.add(d, dc)
				}
				if e.trace && t != nil {
					cl.lc.tracedLat.add(d)
				} else if e.trace {
					cl.lc.plainLat.add(d)
				}
				cl.kinds[kind] = append(cl.kinds[kind], ms(d))
				if err != nil {
					if len(cl.problems) < 5 {
						cl.problems = append(cl.problems, fmt.Sprintf("hunt %q: %v", q, err))
					}
					continue
				}
				h := resultHash(res.Set)
				if prev, ok := cl.answers[q]; ok && prev.rows != h && len(cl.problems) < 5 {
					cl.problems = append(cl.problems, fmt.Sprintf("hunt %q: answer changed between issues", q))
				}
				cl.answers[q] = answer{kind, h}
			}
		}(k)
	}
	wg.Wait()
	elapsed, cpu := time.Since(epoch), cpuTime()-cpu0

	var hunt, aux opTimes
	var lc layerCounts
	answers := make(map[string]answer)
	kinds := make(map[string]samples)
	issued := 0
	for _, cl := range clients {
		hunt.merge(cl.hunt)
		aux.merge(cl.aux)
		out.ops.merge(cl.ops)
		lc.merge(&cl.lc)
		out.tracers = append(out.tracers, cl.t)
		for _, p := range cl.problems {
			out.problem("%s", p)
		}
		for q, a := range cl.answers {
			if prev, ok := answers[q]; ok && prev.rows != a.rows {
				out.problem("hunt %q: clients got different answers", q)
			}
			answers[q] = a
		}
		for k, s := range cl.kinds {
			kinds[k] = append(kinds[k], s...)
			issued += len(s)
		}
	}
	out.latencies(hunt, aux, 0.95, elapsed, cpu)
	out.meta["shape"] = map[string]any{
		"hosts": hosts, "records": f.recs, "events": events,
		"distinct_texts": len(answers), "hunts": issued, "kinds": kindSummary(kinds, issued),
	}

	// Correctness: a seeded sample of the distinct texts, re-run on the
	// unscheduled engine (no pruning order, no constraint feeding).
	texts := make([]string, 0, len(answers))
	for q := range answers {
		texts = append(texts, q)
	}
	sort.Strings(texts)
	rand.New(rand.NewSource(e.seed)).Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	if len(texts) > fleetChecks {
		texts = texts[:fleetChecks]
	}
	ref := &engine.Engine{Store: f.sys.Store(), DisableScheduling: true}
	for _, q := range texts {
		a, _, err := newCompiler().compile(nil, -1, 0, q)
		if err != nil {
			return nil, err
		}
		res, _, err := ref.Execute(nil, a)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", q, err)
		}
		if answers[q].rows != resultHash(res.Set) {
			out.problem("hunt %q: rows differ from the unscheduled engine's", q)
		}
	}
	out.meta["checked_texts"] = len(texts)

	// Cold opens of the fleet data dir.
	want, _, err := f.sys.Hunt(nil, reopenQ)
	if err != nil {
		return nil, fmt.Errorf("reopen query: %w", err)
	}
	wantRows := resultHash(want.Set)
	if e.corrupt {
		wantRows++
	}
	f.sys, traced, ref = nil, nil, nil
	var reopenT *tracer
	if e.trace {
		reopenT = newTracer(epoch, 0)
	}
	var rec reopenStats
	for i := 0; i < fleetReopens; i++ {
		r, err := reopen(threatraptor.DefaultOptions(), f.dir, reopenQ, reopenT)
		out.ops.get("reopen").done(err)
		if err != nil {
			out.problem("reopen: %v", err)
			continue
		}
		if r.rows != wantRows {
			out.problem("reopened store's first hunt differs from the serving store's")
		}
		rec.times.add(r.took, r.cpu)
		rec.count(r)
	}
	out.tracers = append(out.tracers, reopenT)
	disk, err := dirBytes(f.dir)
	if err != nil {
		return nil, err
	}
	out.recovery(&rec)
	out.e2e["disk_bytes_per_event"] = float64(disk) / float64(events)

	if e.trace {
		fillLayers(out, analyze(out.tracers), &lc)
	}
	return out, nil
}

// kindSummary gives each template kind's share of the hunts issued and
// its latency median and p99 in ms.
func kindSummary(kinds map[string]samples, total int) map[string][3]float64 {
	out := make(map[string][3]float64, len(kinds))
	for k, s := range kinds {
		out[k] = [3]float64{ratio(float64(len(s)), float64(total)), s.quantile(0.5), s.quantile(0.99)}
	}
	return out
}
