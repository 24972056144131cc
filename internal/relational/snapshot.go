package relational

// Snapshot-isolated reads over append-only tables.
//
// The storage layer has exactly one writer (the engine's AppendBatch) and
// many concurrent readers (hunts pinned to a published snapshot). Because
// tables are append-only — rows are only ever added at the tail, and the
// crash-consistency rollback only ever removes rows the snapshot never
// covered — a snapshot does not copy row data. Capturing a table copies
// the Table struct and its []col slice: the column slice *headers* (ints,
// strs, codes, null, dict.vals) are frozen at their capture-time lengths,
// and the writer's subsequent appends either write beyond those lengths or
// reallocate the backing arrays (which preserves the prefix). Either way
// the captured prefix is immutable, so readers touch no memory the writer
// mutates. The remaining shared structures — hash-index maps and the null
// bitmaps' boundary words — are handled separately: index probes from a
// snapshot go through the index's RWMutex and trim positions to the
// snapshot's row count, and bitmap words are written/read atomically.
type Snap struct {
	n    int
	live [maxSnapTables]*Table
	tabs [maxSnapTables]Table
}

// maxSnapTables bounds how many tables one snapshot covers. The engine's
// store has two (entities, events); the headroom is for future schemas.
const maxSnapTables = 4

// Capture fills s with an immutable view of every table in db, taken at
// the current row counts. It must be called from the writer (or otherwise
// mutually excluded with appends); the returned snapshot may then be read
// from any goroutine concurrently with further appends.
func (s *Snap) Capture(db *DB) {
	s.n = 0
	for _, t := range db.tables {
		if s.n == maxSnapTables {
			// More tables than a snapshot can hold: the extras resolve to
			// their live versions (correct only for single-writer reads).
			break
		}
		s.live[s.n] = t
		t.snapInto(&s.tabs[s.n])
		s.n++
	}
}

// Table resolves a live table to its captured copy, or returns the live
// table itself when the snapshot does not cover it.
func (s *Snap) Table(live *Table) *Table {
	for i := 0; i < s.n; i++ {
		if s.live[i] == live {
			return &s.tabs[i]
		}
	}
	return live
}

// Rows returns the captured row count of a live table (its own Len when
// the snapshot does not cover it).
func (s *Snap) Rows(live *Table) int { return s.Table(live).Len() }

// snapInto writes a frozen copy of t into dst. The col structs are copied
// by value — at capture time every column vector's length equals the row
// count, so the copied headers bound exactly the captured rows — and
// dictionary-encoded columns freeze the decode slice (dvals) so snapshot
// reads never touch the live dictionary's growing vals slice or code map.
func (t *Table) snapInto(dst *Table) {
	*dst = *t
	dst.snapshot = true
	dst.cols = make([]col, len(t.cols))
	copy(dst.cols, t.cols)
	for i := range dst.cols {
		c := &dst.cols[i]
		if c.dict != nil {
			// A nil dvals means "live column" to decode and dictVals, so
			// an empty dictionary freezes as a non-nil empty slice.
			c.dvals = c.dict.vals
			if c.dvals == nil {
				c.dvals = []string{}
			}
		}
	}
}
