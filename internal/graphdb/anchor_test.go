package graphdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"threatraptor/internal/relational"
)

// Differential tests for property-index anchors: the same graph is built
// with and without the (Process, exename), (File, name), (NetConn, dstip)
// indexes the engine declares, and every path query must return the same
// rows in the same order from both. An index anchor may only change how
// much work the matcher does.

var (
	anchorExes  = []string{"/bin/tar", "/usr/bin/curl", "/bin/bzip2", "/usr/bin/gpg", "/usr/bin/ssh", "/bin/sh"}
	anchorFiles = []string{"/etc/passwd", "/tmp/upload.tar", "/tmp/upload", "/var/log/syslog", "/home/u/.ssh/id_rsa"}
	anchorIPs   = []string{"192.168.29.128", "10.0.0.12", "8.8.8.8"}
	anchorOps   = []string{"read", "write", "execute", "connect", "send"}
	anchorHosts = []string{"h0", "h1", "h2"}
)

type fixtureNode struct {
	id    int64
	label string
	props Props
}

type fixtureEdge struct {
	from, to int64
	op       string
	start    int64
}

// anchorFixture is a fleet-like audit graph in insertion order: processes
// with a host and an executable, files with a host and a name, network
// connections with a destination IP, and event edges from processes.
type anchorFixture struct {
	nodes []fixtureNode
	edges []fixtureEdge
}

// newAnchorFixture draws n nodes and about 2n edges. Dense fixtures use
// the engine's IDs 1..n in order; sparse ones insert scattered IDs out of
// order, so every label list loses its sortedness (labelUnsorted).
func newAnchorFixture(rng *rand.Rand, n int, sparse bool) *anchorFixture {
	f := &anchorFixture{}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i) + 1
	}
	if sparse {
		perm := rng.Perm(10 * n)
		for i := range ids {
			ids[i] = int64(perm[i]) + 1
		}
	}
	var procs, others []int64
	for _, id := range ids {
		host := str(anchorHosts[rng.Intn(len(anchorHosts))])
		switch rng.Intn(3) {
		case 0:
			f.nodes = append(f.nodes, fixtureNode{id, "Process", Props{
				"exename": str(anchorExes[rng.Intn(len(anchorExes))]), "host": host}})
			procs = append(procs, id)
		case 1:
			f.nodes = append(f.nodes, fixtureNode{id, "File", Props{
				"name": str(anchorFiles[rng.Intn(len(anchorFiles))]), "host": host}})
			others = append(others, id)
		default:
			f.nodes = append(f.nodes, fixtureNode{id, "NetConn", Props{
				"dstip": str(anchorIPs[rng.Intn(len(anchorIPs))])}})
			others = append(others, id)
		}
	}
	for i := 0; i < 2*n; i++ {
		to := others[rng.Intn(len(others))]
		if rng.Intn(4) == 0 {
			to = procs[rng.Intn(len(procs))]
		}
		f.edges = append(f.edges, fixtureEdge{
			from: procs[rng.Intn(len(procs))], to: to,
			op:    anchorOps[rng.Intn(len(anchorOps))],
			start: int64(1000*i + rng.Intn(3000)), // some edges out of time order
		})
	}
	return f
}

// declareAnchorIndexes creates the property indexes the engine declares.
func declareAnchorIndexes(g *Graph) {
	g.CreateIndex("Process", "exename")
	g.CreateIndex("File", "name")
	g.CreateIndex("NetConn", "dstip")
}

// addNodes and addEdges replay fixture elements into a graph.
func addNodes(g *Graph, nodes []fixtureNode) {
	for _, n := range nodes {
		g.AddNodeWithID(n.id, n.label, n.props)
	}
}

func addEdges(t testing.TB, g *Graph, edges []fixtureEdge) {
	for _, e := range edges {
		if _, err := g.AddEventEdge(e.from, e.to, e.op, 0, e.start, e.start+5, 10); err != nil {
			t.Fatal(err)
		}
	}
}

// build replays the fixture, with the indexes declared before the nodes
// (maintained per insert) or after them (built in one pass), or not at
// all.
func (f *anchorFixture) build(t testing.TB, indexed, indexFirst bool) *Graph {
	g := NewGraph()
	if indexed && indexFirst {
		declareAnchorIndexes(g)
	}
	addNodes(g, f.nodes)
	if indexed && !indexFirst {
		declareAnchorIndexes(g)
	}
	addEdges(t, g, f.edges)
	return g
}

// anchorQueries are fleet-style hunts as the engine lowers them: length-1
// paths and variable-length paths with host-pinned equality and LIKE
// entities, in both operand orders, plus the inline property form.
func anchorQueries() []string {
	var qs []string
	for i, exe := range anchorExes {
		host := anchorHosts[i%len(anchorHosts)]
		file := anchorFiles[i%len(anchorFiles)]
		ip := anchorIPs[i%len(anchorIPs)]
		qs = append(qs,
			fmt.Sprintf(`MATCH (s:Process)-[e:read|write]->(o:File) WHERE s.host = '%s' AND s.exename = '%s' AND o.name LIKE '%%tmp%%' RETURN e.id, s.id, o.id, e.start_time`, host, exe),
			fmt.Sprintf(`MATCH (s:Process)-[e:read]->(o:File) WHERE '%s' = s.exename AND o.host = '%s' AND o.name = '%s' RETURN e.id, s.id, o.id`, exe, host, file),
			fmt.Sprintf(`MATCH (s:Process)-[e:connect|send]->(o:NetConn) WHERE s.exename = '%s' AND o.dstip = '%s' RETURN e.id, s.id, o.id`, exe, ip),
			fmt.Sprintf(`MATCH (s:Process {exename: '%s'})-[e]->(o) RETURN e.id, s.id, o.id`, exe),
			fmt.Sprintf(`MATCH (s:Process)-[e:write]->(o:File) WHERE s.exename LIKE '%%%s' AND o.name = '%s' RETURN e.id, s.id, o.id`, exe[len(exe)-3:], file),
			fmt.Sprintf(`MATCH (o:File)<-[e:read|write]-(s:Process) WHERE o.name = '%s' AND o.host = '%s' RETURN e.id, s.id, o.id`, file, host),
			fmt.Sprintf(`MATCH (o:NetConn)<-[e:connect]-(s:Process) WHERE o.dstip = '%s' AND s.host = '%s' RETURN e.id, s.id, o.id`, ip, host),
			fmt.Sprintf(`MATCH (s:Process)-[*0..2]-(m)-[e:read]->(o:File) WHERE s.exename = '%s' AND s.host = '%s' AND o.name LIKE '%%/%%' RETURN e.id, s.id, o.id`, exe, host),
			fmt.Sprintf(`MATCH (s:Process)-[*1..2]-(o:File) WHERE s.exename = '%s' AND o.name = '%s' RETURN DISTINCT s.id, o.id`, exe, file),
			fmt.Sprintf(`MATCH (s:Process)-[*1..2]-(o:NetConn) WHERE s.exename LIKE '%%bin%%' AND o.dstip = '%s' RETURN DISTINCT s.id, o.id`, ip),
		)
	}
	return append(qs,
		`MATCH (s:Process)-[e]->(o:File) WHERE s.exename = '/opt/absent/bin/agent' RETURN e.id, s.id, o.id`,
		`MATCH (s:Process)-[e]->(o:File) WHERE s.exename = '/bin/tar' OR s.exename = '/bin/sh' RETURN e.id, s.id, o.id`,
	)
}

// anchorRun executes src against g (pinned to v when non-nil).
func anchorRun(t testing.TB, g *Graph, v *View, src string) ([][]string, ExecStats) {
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	var params *ExecParams
	if v != nil {
		params = &ExecParams{View: v}
	}
	rs, stats, err := g.ExecWith(q, params)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return rs.Strings(), stats
}

// sameAnchorRows runs every anchor query on both graphs and requires the
// same rows in the same order; it returns the indexed side's total index
// lookups.
func sameAnchorRows(t testing.TB, label string, indexed, plain *Graph, vi, vp *View) int {
	t.Helper()
	lookups := 0
	for _, src := range anchorQueries() {
		got, gs := anchorRun(t, indexed, vi, src)
		want, ws := anchorRun(t, plain, vp, src)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s\n indexed %d rows %v\n plain   %d rows %v", label, src, len(got), got, len(want), want)
		}
		if gs.NodesVisited > ws.NodesVisited {
			t.Errorf("%s: %s: the index anchor visited %d nodes, the label scan %d", label, src, gs.NodesVisited, ws.NodesVisited)
		}
		lookups += gs.IndexLookups
	}
	return lookups
}

// TestIndexAnchorMatchesLabelScan covers the live graph, dense and sparse
// (out-of-order IDs), with indexes built before and after the nodes.
func TestIndexAnchorMatchesLabelScan(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		for _, indexFirst := range []bool{false, true} {
			f := newAnchorFixture(rand.New(rand.NewSource(11)), 600, sparse)
			indexed := f.build(t, true, indexFirst)
			plain := f.build(t, false, false)
			if indexed.labelUnsorted["Process"] != sparse {
				t.Fatalf("sparse=%v: Process list unsorted=%v", sparse, indexed.labelUnsorted["Process"])
			}
			label := fmt.Sprintf("live sparse=%v indexFirst=%v", sparse, indexFirst)
			if sameAnchorRows(t, label, indexed, plain, nil, nil) == 0 {
				t.Fatalf("%s: no query anchored on an index", label)
			}
		}
	}
}

// TestIndexAnchorInView pins the anchor on snapshot views: views captured
// before further inserts answer from the captured nodes only, with the
// index lists trimmed (dense) or filtered (sparse) to the capture.
func TestIndexAnchorInView(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		f := newAnchorFixture(rand.New(rand.NewSource(12)), 800, sparse)
		half := len(f.nodes) / 2
		var early, late []fixtureEdge
		for _, e := range f.edges {
			if indexOfNode(f.nodes[:half], e.from) >= 0 && indexOfNode(f.nodes[:half], e.to) >= 0 {
				early = append(early, e)
			} else {
				late = append(late, e)
			}
		}
		first := &anchorFixture{nodes: f.nodes[:half], edges: early}
		indexed := first.build(t, true, false)
		plain := first.build(t, false, false)
		var vi, vp View
		vi.Capture(indexed)
		vp.Capture(plain)
		before := map[string][][]string{}
		for _, src := range anchorQueries() {
			before[src], _ = anchorRun(t, plain, nil, src)
		}
		// The rest of the fixture lands after the capture.
		for _, g := range []*Graph{indexed, plain} {
			addNodes(g, f.nodes[half:])
			addEdges(t, g, late)
		}
		label := fmt.Sprintf("view sparse=%v", sparse)
		if sameAnchorRows(t, label, indexed, plain, &vi, &vp) == 0 {
			t.Fatalf("%s: no query anchored on an index", label)
		}
		for _, src := range anchorQueries() {
			if got, _ := anchorRun(t, indexed, &vi, src); !reflect.DeepEqual(got, before[src]) {
				t.Fatalf("%s: %s: view saw post-capture inserts\n got  %v\n want %v", label, src, got, before[src])
			}
		}
		sameAnchorRows(t, "live after "+label, indexed, plain, nil, nil)
	}
}

func indexOfNode(nodes []fixtureNode, id int64) int {
	for i := range nodes {
		if nodes[i].id == id {
			return i
		}
	}
	return -1
}

// restoreFixture rebuilds a dense fixture the way a segment restore does:
// bag-less nodes resolved through a PropResolver, the edge arena and CSR
// adjacency adopted from a dump, and the indexes declared lazily.
func restoreFixture(t testing.TB, f *anchorFixture) *Graph {
	src := f.build(t, false, false)
	labels := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		if n.id != int64(i)+1 {
			t.Fatal("restore needs a dense fixture")
		}
		labels[i] = n.label
	}
	g := NewGraph()
	if err := g.RestoreNodes(labels, func(id int64, key string) (Value, bool) {
		v, ok := f.nodes[id-1].props[key]
		return v, ok
	}); err != nil {
		t.Fatal(err)
	}
	m := len(src.edges)
	evID, from, to := make([]int64, m), make([]int64, m), make([]int64, m)
	start, end, amount := make([]int64, m), make([]int64, m), make([]int64, m)
	types := make([]string, m)
	for i := range src.edges {
		e := &src.edges[i]
		evID[i], from[i], to[i] = e.evID, e.From, e.To
		start[i], end[i], amount[i], types[i] = e.startTime, e.endTime, e.amount, e.Type
	}
	if err := g.RestoreEventEdges(evID, from, to, start, end, amount, types); err != nil {
		t.Fatal(err)
	}
	if err := g.RestoreAdjacency(src.DumpAdjacency()); err != nil {
		t.Fatal(err)
	}
	g.RestorePropIndexLazy("Process", "exename")
	g.RestorePropIndexLazy("File", "name")
	g.RestorePropIndexLazy("NetConn", "dstip")
	return g
}

// propIndexBuilt reports whether the (label, prop) index is materialized.
func propIndexBuilt(g *Graph, label, prop string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.propIndex[label][prop]
	return ok
}

// TestIndexAnchorRestoredLazy: a restored graph keeps its indexes
// declared but unbuilt until the first path query probes them, and then
// answers exactly like an unindexed graph.
func TestIndexAnchorRestoredLazy(t *testing.T) {
	f := newAnchorFixture(rand.New(rand.NewSource(13)), 700, false)
	restored := restoreFixture(t, f)
	plain := f.build(t, false, false)
	if propIndexBuilt(restored, "Process", "exename") {
		t.Fatal("restore built the lazy index")
	}
	// A query with no indexed equality leaves the index unbuilt.
	anchorRun(t, restored, nil, `MATCH (s:Process)-[e]->(o:File) WHERE s.exename LIKE '%tar%' RETURN e.id`)
	if propIndexBuilt(restored, "Process", "exename") {
		t.Fatal("a LIKE anchor built the lazy index")
	}
	if sameAnchorRows(t, "restored", restored, plain, nil, nil) == 0 {
		t.Fatal("restored: no query anchored on an index")
	}
	for _, p := range [][2]string{{"Process", "exename"}, {"File", "name"}, {"NetConn", "dstip"}} {
		if !propIndexBuilt(restored, p[0], p[1]) {
			t.Fatalf("the first probe did not build the lazy (%s, %s) index", p[0], p[1])
		}
	}
}

// TestIndexAnchorRestoredLazyConcurrent: hunts pinned to a view of a
// restored graph build the lazy indexes from their own goroutines while
// the writer keeps inserting nodes and edges (run under -race). Every
// hunt must answer exactly as the unindexed graph did at the capture.
func TestIndexAnchorRestoredLazyConcurrent(t *testing.T) {
	f := newAnchorFixture(rand.New(rand.NewSource(14)), 600, false)
	restored := restoreFixture(t, f)
	plain := f.build(t, false, false)
	queries := anchorQueries()
	want := make([][][]string, len(queries))
	for i, src := range queries {
		want[i], _ = anchorRun(t, plain, nil, src)
	}
	var v View
	v.Capture(restored)

	more := newAnchorFixture(rand.New(rand.NewSource(15)), 400, false)
	for i := range more.nodes {
		more.nodes[i].id += int64(len(f.nodes))
	}
	for i := range more.edges {
		more.edges[i].from += int64(len(f.nodes))
		more.edges[i].to += int64(len(f.nodes))
	}

	const hunters = 3
	var wg sync.WaitGroup
	start := make(chan struct{})
	for h := 0; h < hunters; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			<-start
			for k := range queries {
				i := (k + h*len(queries)/hunters) % len(queries)
				q, err := ParseQuery(queries[i])
				if err != nil {
					t.Error(err)
					return
				}
				rs, _, err := restored.ExecWith(q, &ExecParams{View: &v})
				if err != nil {
					t.Error(err)
					return
				}
				if got := rs.Strings(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s: pinned hunt diverged\n got  %v\n want %v", queries[i], got, want[i])
					return
				}
			}
		}(h)
	}
	close(start)
	for i, n := range more.nodes {
		if i%50 == 0 {
			restored.ReserveNodes(50)
		}
		restored.AddNodeWithID(n.id, n.label, n.props)
	}
	restored.ReserveEdges(len(more.edges))
	addEdges(t, restored, more.edges)
	wg.Wait()
	if !propIndexBuilt(restored, "Process", "exename") {
		t.Fatal("no hunt built the lazy index")
	}
}

// TestIndexProbeFallsBackOnMixedKinds: Value.Equal matches the string
// '42' with the int 42, but an index probe is an exact key lookup. A
// literal whose equality class spans kinds (an int, or a numeric string)
// must anchor on the label scan, in the inline and the WHERE form alike.
func TestIndexProbeFallsBackOnMixedKinds(t *testing.T) {
	build := func(indexed bool) *Graph {
		g := NewGraph()
		if indexed {
			g.CreateIndex("P", "pid")
		}
		for _, v := range []Value{num(42), str("42"), str("x42"), num(7), str("+42"), str("042")} {
			g.AddNode("P", Props{"pid": v})
		}
		return g
	}
	indexed, plain := build(true), build(false)
	for _, src := range []string{
		`MATCH (n:P {pid: '42'}) RETURN n`,
		`MATCH (n:P {pid: 42}) RETURN n`,
		`MATCH (n:P {pid: 'x42'}) RETURN n`,
		`MATCH (n:P) WHERE n.pid = '42' RETURN n`,
		`MATCH (n:P) WHERE '42' = n.pid RETURN n`,
		`MATCH (n:P) WHERE n.pid = 42 RETURN n`,
		`MATCH (n:P) WHERE n.pid = '042' RETURN n`,
		`MATCH (n:P) WHERE n.pid = 'x42' RETURN n`,
	} {
		got, _ := anchorRun(t, indexed, nil, src)
		want, _ := anchorRun(t, plain, nil, src)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: indexed %v, unindexed %v", src, got, want)
		}
	}
	if got, _ := anchorRun(t, indexed, nil, `MATCH (n:P {pid: '42'}) RETURN n`); len(got) != 2 {
		t.Errorf("'42' must equal the int 42 and the string '42': got %v", got)
	}
	if got, _ := anchorRun(t, indexed, nil, `MATCH (n:P {pid: 42}) RETURN n`); len(got) != 4 {
		t.Errorf("42 must equal the strings '42', '+42', '042' and the int 42: got %v", got)
	}
	if _, stats := anchorRun(t, indexed, nil, `MATCH (n:P) WHERE n.pid = 'x42' RETURN n`); stats.IndexLookups != 1 {
		t.Errorf("a non-numeric string literal must anchor on the index: %+v", stats)
	}
}

// BenchmarkPathAnchor compares anchoring a length-1 path hunt on the
// (Process, exename) index with anchoring it on the label scan a LIKE
// entity needs, over 32k process nodes (one in 1024 matches).
func BenchmarkPathAnchor(b *testing.B) {
	const procs = 32 << 10
	g := NewGraph()
	files := make([]int64, 64)
	for i := range files {
		files[i] = g.AddNode("File", Props{"name": relational.Str(fmt.Sprintf("/tmp/f%d", i))})
	}
	for i := 0; i < procs; i++ {
		p := g.AddNode("Process", Props{"exename": relational.Str(fmt.Sprintf("/usr/bin/tool%d", i%1024))})
		if _, err := g.AddEventEdge(p, files[i%len(files)], "read", int64(i)+1, int64(i), int64(i)+1, 1); err != nil {
			b.Fatal(err)
		}
	}
	declareAnchorIndexes(g)
	for _, bc := range []struct{ name, where string }{
		{"indexed-eq", `s.exename = '/usr/bin/tool7'`},
		{"like", `s.exename LIKE '/usr/bin/tool7'`},
	} {
		q, err := ParseQuery(`MATCH (s:Process)-[e:read]->(o:File) WHERE ` + bc.where + ` RETURN e.id, s.id, o.id`)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, _, err := g.Exec(q)
				if err != nil {
					b.Fatal(err)
				}
				if rs.Len() != procs/1024 {
					b.Fatalf("rows = %d", rs.Len())
				}
			}
		})
	}
}
