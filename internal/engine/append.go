package engine

// This file is the live append path: sealed event batches and newly
// interned entities are appended into both storage backends in place.
// Hash indexes and the graph's adjacency stay correct incrementally —
// relational inserts feed existing indexes row by row, graph appends keep
// the time-sorted adjacency order when events arrive in order and mark
// only the touched neighborhoods dirty when they do not — so ingest cost
// is proportional to the batch, never to the store.

import (
	"fmt"
	"runtime/debug"

	"threatraptor/internal/audit"
	"threatraptor/internal/faultinject"
	"threatraptor/internal/relational"
)

// AppendBatch appends newly interned entities and sealed (immutable)
// events to the relational backend, the graph backend, and the store's
// log. Events must carry 0 IDs or their final IDs; 0 IDs are assigned from
// the store's dense sequence. Entities must not already be stored (the
// caller tracks novelty, e.g. with audit.EntityTable.Since), and events
// may only reference stored or batch-new entities.
//
// AppendBatch is atomic: it either applies the whole batch or leaves the
// store exactly as it was. Contract violations are caught by an up-front
// validation pass before anything mutates; a failure (or panic) past that
// point rolls both backends back to their pre-append marks — table rows
// and index tails truncate, graph arenas and adjacency tails pop, and the
// event-ID sequence rewinds so a retried batch derives the same IDs. Time
// bounds and their epoch publish last, only on success. A panic mid-append
// resurfaces as a typed *InternalError after the rollback.
//
// AppendBatch is not safe to run concurrently with queries; the stream
// session serializes writers against readers.
func (s *Store) AppendBatch(entities []*audit.Entity, events []audit.Event) (err error) {
	entTbl := s.Rel.Table("entities")
	evTbl := s.Rel.Table("events")
	if entTbl == nil || evTbl == nil {
		return fmt.Errorf("engine: store tables missing")
	}

	// Validate the whole batch before touching either backend.
	batchNew := make(map[int64]bool, len(entities))
	for _, e := range entities {
		if s.Graph.Node(e.ID) != nil {
			return fmt.Errorf("engine: append: entity %d already stored", e.ID)
		}
		batchNew[e.ID] = true
	}
	for i := range events {
		ev := &events[i]
		for _, id := range [2]int64{ev.SubjectID, ev.ObjectID} {
			if !batchNew[id] && s.Graph.Node(id) == nil {
				return fmt.Errorf("engine: append: event references unknown entity %d", id)
			}
		}
	}

	// Pre-append marks: everything below must be unwound on failure.
	entMark := entTbl.Len()
	evMark := evTbl.Len()
	gMark := s.Graph.Mark()
	logMark := len(s.Log.Events)
	idMark := s.nextEventID
	opMark := len(s.opBatches)
	defer func() {
		r := recover()
		if r == nil && err == nil {
			return
		}
		// Roll back in reverse append order so every unwind pops tails.
		s.opBatches = s.opBatches[:opMark]
		s.Log.Events = s.Log.Events[:logMark]
		s.Graph.Rollback(gMark)
		evTbl.TruncateRows(evMark)
		entTbl.TruncateRows(entMark)
		s.nextEventID = idMark
		// IDs assigned into the caller's events this attempt stay: the
		// rewound sequence re-derives the same IDs on retry.
		if r != nil {
			err = &InternalError{Query: "append batch", Panic: r, Stack: debug.Stack()}
		}
	}()

	if len(entities) > 0 {
		if err := faultinject.Hit(FaultAppendEntitiesRel); err != nil {
			return err
		}
		w := len(entTbl.Schema)
		rows := make([][]relational.Value, len(entities))
		slab := make([]relational.Value, len(entities)*w)
		for i, e := range entities {
			rows[i] = entityRow(e, slab[i*w:(i+1)*w:(i+1)*w])
		}
		if err := entTbl.InsertBatch(rows); err != nil {
			return err
		}
		if err := faultinject.Hit(FaultAppendEntitiesGraph); err != nil {
			return err
		}
		s.Graph.ReserveNodes(len(entities))
		for _, e := range entities {
			s.Graph.AddNodeWithID(e.ID, labelOf(e.Kind), entityProps(e))
		}
	}

	if len(events) == 0 {
		s.publishSnapshot()
		return nil
	}
	// Time bounds (and their epoch) move only after both backends accept
	// the batch, so cached window-sensitive plans can never observe moved
	// bounds without an invalidating epoch bump.
	newMin, newMax := s.MinTime, s.MaxTime
	w := len(evTbl.Schema)
	rows := make([][]relational.Value, len(events))
	slab := make([]relational.Value, len(events)*w)
	var opMask uint32
	for i := range events {
		ev := &events[i]
		opMask |= ev.Op.Bit()
		if ev.ID == 0 {
			ev.ID = s.nextEventID
			s.nextEventID++
		} else if ev.ID >= s.nextEventID {
			s.nextEventID = ev.ID + 1
		}
		row := slab[i*w : (i+1)*w : (i+1)*w]
		row[0] = relational.Int(ev.ID)
		row[1] = relational.Int(ev.SubjectID)
		row[2] = relational.Int(ev.ObjectID)
		row[3] = relational.Str(ev.Op.String())
		row[4] = relational.Int(ev.StartTime)
		row[5] = relational.Int(ev.EndTime)
		row[6] = relational.Int(ev.DataAmount)
		row[7] = relational.Int(int64(ev.FailureCode))
		rows[i] = row
		if newMin == 0 || ev.StartTime < newMin {
			newMin = ev.StartTime
		}
		if ev.EndTime > newMax {
			newMax = ev.EndTime
		}
	}
	if err := faultinject.Hit(FaultAppendEventsRel); err != nil {
		return err
	}
	if err := evTbl.InsertBatch(rows); err != nil {
		return err
	}
	if err := faultinject.Hit(FaultAppendEventsGraph); err != nil {
		return err
	}
	s.Graph.ReserveEdges(len(events))
	for i := range events {
		ev := &events[i]
		// Event edges use the columnar attribute fields — no per-edge
		// property map is allocated on the ingest path.
		if _, err := s.Graph.AddEventEdge(ev.SubjectID, ev.ObjectID, ev.Op.String(),
			ev.ID, ev.StartTime, ev.EndTime, ev.DataAmount); err != nil {
			return fmt.Errorf("engine: append event %d: %w", ev.ID, err)
		}
	}
	if err := faultinject.Hit(FaultAppendLog); err != nil {
		return err
	}
	s.Log.Events = append(s.Log.Events, events...)
	s.opBatches = append(s.opBatches, batchOps{startID: events[0].ID, mask: opMask})
	if newMin != s.MinTime || newMax != s.MaxTime {
		s.MinTime, s.MaxTime = newMin, newMax
		s.epoch++
	}
	// Publish the new snapshot last: a batch becomes visible to concurrent
	// readers all at once, or (on any failure above) not at all — readers
	// keep the previous snapshot, which the rollback left fully intact.
	s.publishSnapshot()
	return nil
}
