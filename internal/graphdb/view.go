package graphdb

// Snapshot-isolated reads over the append-only graph arenas.
//
// The graph has exactly one writer (the engine's append path) and many
// concurrent readers (hunts pinned to a published snapshot). Node and edge
// arenas are append-only — rollback only removes elements a published view
// never covered — so a view does not copy element data. Capturing a view
// freezes the node and edge slice headers at their current lengths and
// publishes the two adjacency directions as chunked copy-on-write arrays
// (adjChunkSize inner-list headers per chunk): only chunks whose
// neighborhoods changed since the previous publish are re-cloned, so a
// capture costs O(touched chunks) instead of O(nodes). The cloned
// inner-list headers are frozen, and because Capture sorts dirty lists
// first (copy-on-write: ensureAdjSorted swaps in freshly sorted arrays
// rather than sorting in place), every captured list is time-sorted and
// contains exactly the pre-capture edges. The writer's later appends land
// beyond the captured lengths or relocate the backing arrays (prefix
// preserved), so view reads touch no memory the writer mutates.
//
// The shared map structures (nodeIdx, byLabel, propIndex, labelUnsorted)
// are probed under the graph's RWMutex, which the writer takes for map
// mutations; list results are trimmed (sorted lists) or filtered (copies)
// to the view's node-ID high-water mark. Concurrent views assume node IDs
// are inserted in increasing order — the engine mirrors dense ascending
// entity IDs, so views over engine stores additionally resolve nodes with
// a direct offset computation instead of a map probe.
type View struct {
	g     *Graph
	nodes []Node
	edges []Edge
	// out and in are the published chunked adjacency copies: chunk
	// ni>>adjChunkShift holds node offset ni's inner-list header at slot
	// ni&(adjChunkSize-1). Clean chunks are shared across captures.
	out [][][]int32
	in  [][][]int32
	// maxNodeID is the node-ID high-water mark at capture: IDs above it
	// were assigned after the view and are filtered out of index probes.
	maxNodeID int64
	// dense records that node IDs were arena offset + 1 at capture, making
	// node resolution a bounds check instead of a locked map probe.
	dense bool
}

// Capture fills v with an immutable view of g taken at the current arena
// lengths. It must be called from the writer (or otherwise mutually
// excluded with appends); the view may then be queried from any goroutine
// concurrently with further appends, via ExecParams.View.
func (v *View) Capture(g *Graph) {
	g.ensureAdjSorted()
	v.g = g
	v.nodes = g.nodes
	v.edges = g.edges
	v.out, v.in = g.publishAdj()
	v.maxNodeID = g.nextNode
	v.dense = g.idsDense
}

// NumNodes and NumEdges report the captured arena sizes.
func (v *View) NumNodes() int { return len(v.nodes) }
func (v *View) NumEdges() int { return len(v.edges) }

// node resolves a node ID inside the view, or nil when the ID is unknown
// or was assigned after the capture.
func (v *View) node(id int64) *Node {
	off, ok := v.nodeOffset(id)
	if !ok {
		return nil
	}
	return &v.nodes[off]
}

// nodeOffset resolves a node ID to its arena offset inside the view.
func (v *View) nodeOffset(id int64) (int32, bool) {
	if v.dense {
		if id < 1 || id > int64(len(v.nodes)) {
			return 0, false
		}
		return int32(id - 1), true
	}
	v.g.mu.RLock()
	off, ok := v.g.nodeIdx[id]
	v.g.mu.RUnlock()
	if !ok && id >= 1 && id <= int64(v.g.idxBase) {
		// Restored dense prefix: never in nodeIdx, offset computed.
		off, ok = int32(id-1), true
	}
	if !ok || int(off) >= len(v.nodes) {
		return 0, false
	}
	return off, true
}

// outOffsets and inOffsets return the captured adjacency of a node.
func (v *View) outOffsets(id int64) []int32 {
	off, ok := v.nodeOffset(id)
	if !ok {
		return nil
	}
	return v.out[off>>adjChunkShift][off&(adjChunkSize-1)]
}

func (v *View) inOffsets(id int64) []int32 {
	off, ok := v.nodeOffset(id)
	if !ok {
		return nil
	}
	return v.in[off>>adjChunkShift][off&(adjChunkSize-1)]
}

// labelIDs returns the view's node IDs for a label.
func (v *View) labelIDs(label string) []int64 {
	g := v.g
	g.mu.RLock()
	defer g.mu.RUnlock()
	return v.visibleLocked(label, g.byLabel[label])
}

// visibleLocked restricts l, the label's byLabel list or a subsequence of
// it (as every property-index list is), to the IDs the view captured.
// While the label's list is ascending, so is l, and l trims to its captured
// prefix in place (the returned header is immutable after unlock);
// otherwise l filters into a fresh slice. Callers hold g.mu.
func (v *View) visibleLocked(label string, l []int64) []int64 {
	if !v.g.labelUnsorted[label] {
		return trimSortedIDs(l, v.maxNodeID)
	}
	out := make([]int64, 0, len(l))
	for _, id := range l {
		if id <= v.maxNodeID {
			out = append(out, id)
		}
	}
	return out
}

// sortedLabelIDs is the view-mode counterpart of Graph.sortedLabelIDs:
// the label's ascending ID list trimmed to the capture, or ok=false when
// the label is ambiguous under case folding or its list lost sortedness.
func (v *View) sortedLabelIDs(label string) ([]int64, bool) {
	g := v.g
	g.mu.RLock()
	defer g.mu.RUnlock()
	found, ok := g.resolveLabelLocked(label)
	if !ok || g.labelUnsorted[found] {
		return nil, false
	}
	return trimSortedIDs(g.byLabel[found], v.maxNodeID), true
}

// lookupIndexed probes a property index inside the view.
func (v *View) lookupIndexed(label, prop string, val Value) ([]int64, bool) {
	g := v.g
	g.ensurePropIndex(label, prop)
	g.mu.RLock()
	defer g.mu.RUnlock()
	l, ok := g.indexListLocked(label, prop, val)
	if !ok {
		return nil, false
	}
	return v.visibleLocked(label, l), true
}

// allNodeIDs returns every captured node ID in insertion order.
func (v *View) allNodeIDs() []int64 {
	out := make([]int64, len(v.nodes))
	for i := range v.nodes {
		out[i] = v.nodes[i].ID
	}
	return out
}

// trimSortedIDs returns the prefix of an ascending ID list whose entries
// are <= maxID.
func trimSortedIDs(l []int64, maxID int64) []int64 {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid] <= maxID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return l[:lo]
}
