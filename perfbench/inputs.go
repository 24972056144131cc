package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
)

// simCase is one benchmark case's simulated record stream. Each case's
// simulator seed is fixed, so the stream is the same for every workload
// seed; the workload seed decides how cases are replayed and queried.
type simCase struct {
	c                      *cases.Case
	recs                   []audit.Record
	attackStart, attackEnd int
}

func simulateCases(scale float64) []simCase {
	var out []simCase
	for _, c := range cases.All() {
		recs, a, b := c.Simulate(scale)
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
		out = append(out, simCase{c: c, recs: recs, attackStart: a, attackEnd: b})
	}
	return out
}

// fleetRecords replays every case once on each of `hosts` machines: each
// host runs the cases in its own order with its own gaps, stamps its
// records with its name, and the hosts' streams interleave in time. The
// result is time-ordered, as a fleet collector would forward it. The
// layout does not depend on the workload seed: every seed measures the
// same store, and the seed varies what is asked of it.
func fleetRecords(hosts int, sims []simCase) []audit.Record {
	type segment struct {
		sim   int
		shift int64
	}
	const base = int64(1_700_000_000_000_000)
	plans := make([][]segment, hosts)
	total := 0
	for h := range plans {
		rng := rand.New(rand.NewSource(int64(h) + 1))
		at := base + rng.Int63n(20_000_000)
		for _, i := range rng.Perm(len(sims)) {
			recs := sims[i].recs
			plans[h] = append(plans[h], segment{sim: i, shift: at - recs[0].Time})
			at += recs[len(recs)-1].Time - recs[0].Time + 1_000_000 + rng.Int63n(2_000_000)
			total += len(recs)
		}
	}
	ids := newHostIDs()
	// k-way merge over the hosts' cursors (segment, record).
	seg := make([]int, hosts)
	pos := make([]int, hosts)
	out := make([]audit.Record, 0, total)
	for len(out) < total {
		best, bestT := -1, int64(0)
		for h := 0; h < hosts; h++ {
			if seg[h] == len(plans[h]) {
				continue
			}
			s := plans[h][seg[h]]
			t := sims[s.sim].recs[pos[h]].Time + s.shift
			if best < 0 || t < bestT {
				best, bestT = h, t
			}
		}
		s := plans[best][seg[best]]
		r := sims[s.sim].recs[pos[best]]
		r.Time = bestT
		ids.stamp(&r, best)
		out = append(out, r)
		if pos[best]++; pos[best] == len(sims[s.sim].recs) {
			seg[best]++
			pos[best] = 0
		}
	}
	return out
}

// hostIDs gives each replay host its own identity: a name, and source
// addresses of its own. Processes and files are host-scoped already, but
// a connection is identified by its 5-tuple alone, so without distinct
// source addresses every host's replay of an attack would share one
// connection entity and multi-pattern joins would combine replays across
// hosts.
type hostIDs struct {
	names []string
	src   map[[2]string]string
}

func newHostIDs() *hostIDs { return &hostIDs{src: make(map[[2]string]string)} }

func hostName(i int) string { return fmt.Sprintf("host-%02d", i) }

// hostIndex inverts hostName.
func hostIndex(name string) int {
	var i int
	fmt.Sscanf(name, "host-%d", &i)
	return i
}

// stamp moves r onto host i.
func (ids *hostIDs) stamp(r *audit.Record, i int) {
	for len(ids.names) <= i {
		ids.names = append(ids.names, hostName(len(ids.names)))
	}
	r.Host = ids.names[i]
	if r.SrcIP == "" {
		return
	}
	last := r.SrcIP[strings.LastIndexByte(r.SrcIP, '.')+1:]
	key := [2]string{r.Host, last}
	ip, ok := ids.src[key]
	if !ok {
		ip = fmt.Sprintf("10.%d.%d.%s", 100+i/256, i%256, last)
		ids.src[key] = ip
	}
	r.SrcIP = ip
}

// step is one attack record seen as a TBQL pattern.
type step struct {
	exe, op, kind, obj string
}

// stepOf maps a record to its TBQL operation and object (false for
// records no pattern names).
func stepOf(r *audit.Record) (step, bool) {
	s := step{exe: r.Exe}
	switch r.FD {
	case audit.FDFile:
		s.kind, s.obj = "file", r.Path
		switch r.Call {
		case audit.SysRead, audit.SysReadv:
			s.op = "read"
		case audit.SysWrite, audit.SysWritev:
			s.op = "write"
		case audit.SysExecve:
			s.op = "execute"
		case audit.SysRename:
			s.op = "rename"
		}
	case audit.FDProc:
		s.kind, s.obj = "proc", r.ChildExe
		if r.Call == audit.SysExecve || r.Call == audit.SysFork || r.Call == audit.SysClone {
			s.op = "start"
		}
	case audit.FDIPv4:
		s.kind, s.obj = "ip", r.DstIP
		switch r.Call {
		case audit.SysConnect:
			s.op = "connect"
		case audit.SysRead, audit.SysReadv, audit.SysRecvfrom, audit.SysRecvmsg:
			s.op = "receive"
		case audit.SysWrite, audit.SysWritev, audit.SysSendto:
			s.op = "send"
		}
	}
	ok := s.op != "" && s.obj != "" && s.exe != "" && !strings.ContainsAny(s.exe+s.obj, `"%\`)
	return s, ok
}

// vocab is what the hunt templates draw their parameters from.
type vocab struct {
	hosts []string
	// benignExes run in most cases' background noise; files are the
	// benign file names they touch.
	benignExes, files []string
	// chains are each case's distinct attack steps, in order of first
	// occurrence.
	chains [][]step
}

func buildVocab(sims []simCase, hosts int) *vocab {
	v := &vocab{}
	for h := 0; h < hosts; h++ {
		v.hosts = append(v.hosts, hostName(h))
	}
	exeCases := make(map[string]int)
	fileCases := make(map[string]int)
	attackExe := make(map[string]bool)
	for _, s := range sims {
		seenExe := make(map[string]bool)
		seenFile := make(map[string]bool)
		for i := range s.recs {
			r := &s.recs[i]
			if i >= s.attackStart && i < s.attackEnd {
				attackExe[r.Exe] = true
				continue
			}
			seenExe[r.Exe] = true
			if r.FD == audit.FDFile {
				if j := strings.LastIndexByte(r.Path, '/'); j >= 0 {
					seenFile[r.Path[j:]] = true
				}
			}
		}
		for e := range seenExe {
			exeCases[e]++
		}
		for f := range seenFile {
			fileCases[f]++
		}
		var chain []step
		seen := make(map[step]bool)
		for i := s.attackStart; i < s.attackEnd; i++ {
			st, ok := stepOf(&s.recs[i])
			// A process starting its own image would make a self-loop
			// pattern; a repeated step would make a join of a pattern
			// with itself.
			if ok && !(st.kind == "proc" && st.obj == st.exe) && !seen[st] {
				seen[st] = true
				chain = append(chain, st)
			}
		}
		// Windows-path chains drop out (a backslash would need escaping).
		if len(chain) >= 2 {
			v.chains = append(v.chains, chain)
		}
	}
	for e, n := range exeCases {
		if 2*n >= len(sims) && !attackExe[e] && !strings.ContainsAny(e, `"%\`) {
			v.benignExes = append(v.benignExes, e)
		}
	}
	for f, n := range fileCases {
		if 2*n >= len(sims) && !strings.ContainsAny(f, `"%\`) {
			v.files = append(v.files, f)
		}
	}
	sort.Strings(v.benignExes)
	sort.Strings(v.files)
	return v
}

// Hunt template kinds. varlen is the aux op class of fleet-hunt.
const (
	kEventLike = "event-like"
	kEventIn   = "event-in"
	kWindow    = "window"
	kJoin      = "join"
	kPath1     = "path1"
	kVarLen    = "varlen"
	kEmpty     = "empty"
)

// mixBlock is one block of the ad-hoc hunt mix: how many hunts of each
// template kind every 21 hunts issue.
var mixBlock = []struct {
	kind string
	n    int
}{
	{kEventLike, 5}, {kEventIn, 3}, {kWindow, 3}, {kJoin, 4},
	{kPath1, 2}, {kVarLen, 3}, {kEmpty, 1},
}

// template is one parametrized hunt; text renders it pinned to a host.
type template struct {
	kind string
	text func(host string) string
}

// templatePool draws blocks of the mix from a fixed stream, so every run
// and every seed cycles through the same query shapes in the same
// proportions; the seed varies hosts and order (see issuer). With
// noVarLen the var-length kind is left out (the live hunter keeps to
// bounded-cost templates).
func (v *vocab) templatePool(blocks int, noVarLen bool) (pool []template, block int) {
	rng := rand.New(rand.NewSource(1))
	for b := 0; b < blocks; b++ {
		for _, m := range mixBlock {
			if noVarLen && m.kind == kVarLen {
				continue
			}
			for i := 0; i < m.n; i++ {
				pool = append(pool, v.draw(rng, m.kind))
			}
		}
	}
	return pool, len(pool) / blocks
}

func (v *vocab) draw(rng *rand.Rand, kind string) template {
	exe := func() string { return v.benignExes[rng.Intn(len(v.benignExes))] }
	file := func() string { return v.files[rng.Intn(len(v.files))] }
	chain := v.chains[rng.Intn(len(v.chains))]
	rw := []string{"read", "write"}[rng.Intn(2)]
	t := template{kind: kind}
	switch kind {
	case kEventLike:
		x, f := exe(), file()
		t.text = func(h string) string {
			return fmt.Sprintf(`proc p[host = "%s" && exename = "%%%s"] %s file f["%%%s"] return distinct p, f`, h, x, rw, f)
		}
	case kEventIn:
		x, y, f := exe(), exe(), file()
		t.text = func(h string) string {
			return fmt.Sprintf(`proc p[host = "%s" && exename in ("%s", "%s")] %s file f["%%%s"] return distinct p, f`, h, x, y, rw, f)
		}
	case kWindow:
		x, n := exe(), 5+rng.Intn(120)
		t.text = func(h string) string {
			return fmt.Sprintf(`last %d second proc p[host = "%s" && exename = "%%%s"] read || write file f return distinct p, f`, n, h, x)
		}
	case kJoin:
		n := min(2+rng.Intn(3), len(chain))
		at := rng.Intn(len(chain) - n + 1)
		t.text = func(h string) string { return joinQuery(h, chain[at:at+n]) }
	case kPath1:
		st := chain[rng.Intn(len(chain))]
		t.text = func(h string) string {
			return fmt.Sprintf(`%s ->[%s] %s return distinct p, o`, entity("proc", "p", st.exe, h), st.op, entity(st.kind, "o", st.obj, h))
		}
	case kVarLen:
		i := rng.Intn(len(chain))
		j := i + rng.Intn(len(chain)-i)
		k := 2 + rng.Intn(2)
		t.text = func(h string) string {
			return fmt.Sprintf(`%s ~>(1~%d) %s return distinct p, o`, entity("proc", "p", chain[i].exe, h), k, entity(chain[j].kind, "o", chain[j].obj, h))
		}
	default:
		n := rng.Intn(1_000_000)
		t.text = func(h string) string {
			return fmt.Sprintf(`proc p[host = "%s" && exename = "%%/opt/absent-%d/bin/agent"] %s file f return distinct p, f`, h, n, rw)
		}
	}
	return t
}

// issuer hands one client its hunts: it walks the template pool from an
// offset, block by block, in a seeded order within each block, pinning
// each hunt to a seeded host.
type issuer struct {
	pool  []template
	hosts []string
	rng   *rand.Rand
	block int // templates per block
	pos   int
	order []int
}

func newIssuer(pool []template, hosts []string, seed int64, offset, block int) *issuer {
	return &issuer{pool: pool, hosts: hosts, rng: rand.New(rand.NewSource(seed)), block: block, pos: offset - offset%block}
}

func (is *issuer) next() (kind, text string) {
	i := is.pos % len(is.pool)
	if i%is.block == 0 {
		is.order = is.rng.Perm(is.block)
	}
	t := is.pool[i-i%is.block+is.order[i%is.block]]
	is.pos++
	return t.kind, t.text(is.hosts[is.rng.Intn(len(is.hosts))])
}

// entity declares a TBQL entity pinned by its exact IOC value, and to
// host when the kind is host-scoped (processes and files).
func entity(kind, v, val, host string) string {
	switch kind {
	case "proc":
		return fmt.Sprintf(`proc %s[host = "%s" && exename = "%s"]`, v, host, val)
	case "file":
		return fmt.Sprintf(`file %s[host = "%s" && name = "%s"]`, v, host, val)
	default:
		return fmt.Sprintf(`ip %s[dstip = "%s"]`, v, val)
	}
}

// joinQuery renders consecutive attack steps as a temporal join on one
// host: one pattern per step, entities shared by value, events ordered
// by `before`.
func joinQuery(host string, steps []step) string {
	vars := make(map[string]string)
	var b strings.Builder
	var ret []string
	ref := func(kind, val string) string {
		key := kind + "\x00" + val
		if v, ok := vars[key]; ok {
			return kind + " " + v
		}
		v := fmt.Sprintf("%s%d", kind[:1], len(vars)+1)
		vars[key] = v
		ret = append(ret, v)
		return entity(kind, v, val, host)
	}
	for i, s := range steps {
		subj := ref("proc", s.exe)
		fmt.Fprintf(&b, "%s %s %s as evt%d\n", subj, s.op, ref(s.kind, s.obj), i+1)
	}
	if len(steps) > 1 {
		b.WriteString("with ")
		for i := 1; i < len(steps); i++ {
			if i > 1 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "evt%d before evt%d", i, i+1)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "return distinct %s", strings.Join(ret, ", "))
	return b.String()
}
