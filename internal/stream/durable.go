package stream

// Durable sessions: the WAL + segment + manifest layer (internal/segment)
// wired into the live ingestion path.
//
// Write path: every sealed batch is framed into the WAL *before* it is
// applied to the in-memory store, under the same write lock, with the
// same replay-on-failure contract appends already have — a WAL error
// stashes the sealed events exactly like a failed append, and the retry
// rewrites the frame under the same commit sequence (replay keeps the
// last of an equal-seq run, so the retried superset wins). The committed
// sequence advances only after the in-memory apply succeeds.
//
// Flush path: every SegmentEvery sealed batches (and on clean Close) the
// store is dumped as one columnar image, written as a checksummed segment
// file, and one manifest commit names it and the WAL replay floor. The
// manifest rename is the only commit point: a crash or error anywhere
// before it leaves the old generation fully intact, and an orphaned
// segment file is never referenced and is swept later. Flush errors never
// fail ingestion; they surface through OnSegmentFlush and the WAL simply
// keeps growing until a flush succeeds.
//
// Recovery (OpenDurable): read the manifest, validate and decode the
// global segment, rebuild the store by direct arena restoration, then
// replay the WAL tail above the floor. A torn tail is truncated silently
// (the expected shape of a crash mid-append); mid-file corruption refuses
// startup unless RecoverCorrupt degrades to the last consistent prefix.
// A data directory written by the removed sharded mode also lists
// per-partition segments; they are skipped (the global image already
// holds every event and entity), never written again, and swept with the
// old generation by the next flush.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/segment"
)

// Durability configures the crash-safe storage layer of a session opened
// with OpenDurable. The zero value (empty Dir) means "not durable".
type Durability struct {
	// Dir is the data directory holding the WAL, segment files, and
	// manifest. Created if absent.
	Dir string
	// Fsync is the WAL fsync policy: segment.FsyncAlways (default — every
	// appended frame is durable before the batch applies), FsyncBatch
	// (fsync only at segment-flush boundaries and Close), or FsyncOff.
	Fsync string
	// SegmentEvery flushes a segment generation every N sealed batches
	// (default 64). Clean Close always flushes.
	SegmentEvery int
	// RecoverCorrupt opts into degraded recovery: mid-file WAL corruption
	// truncates to the last consistent prefix (reported in RecoveryStats)
	// instead of refusing startup. Segment and manifest corruption always
	// refuse — there is no prefix to degrade to.
	RecoverCorrupt bool
	// OnWALFsync, when set, observes every WAL fsync duration (metrics).
	OnWALFsync func(time.Duration)
	// OnSegmentFlush, when set, observes every segment flush attempt,
	// successful or not (metrics).
	OnSegmentFlush func(FlushStats)
}

func (d Durability) withDefaults() (Durability, error) {
	if d.Fsync == "" {
		d.Fsync = segment.FsyncAlways
	}
	if !segment.ValidFsyncPolicy(d.Fsync) {
		return d, fmt.Errorf("stream: unknown fsync policy %q (want always, batch, or off)", d.Fsync)
	}
	if d.SegmentEvery <= 0 {
		d.SegmentEvery = 64
	}
	return d, nil
}

// FlushStats summarizes one segment flush attempt.
type FlushStats struct {
	// ManifestSeq is the committed flush generation (0 when Err is set).
	ManifestSeq int64
	// Segments is how many segment files the generation holds (1 on
	// success).
	Segments int
	// Bytes is the total encoded size of the generation.
	Bytes int64
	// Took is the wall time of the whole flush.
	Took time.Duration
	// Err is the failure, if any; the previous generation stays live.
	Err error
}

// RecoveryStats reports what OpenDurable found and rebuilt.
type RecoveryStats struct {
	// Recovered is true when a committed manifest existed (segments were
	// loaded); false for a first start (possibly with a WAL-only replay).
	Recovered bool
	// ManifestSeq is the recovered flush generation.
	ManifestSeq int64
	// Segments is how many segment files were validated and restored
	// (1 when Recovered).
	Segments int
	// WALFloor is the manifest's replay floor (frames at or below it were
	// skipped).
	WALFloor uint64
	// ReplayedRecords / ReplayedEvents / ReplayedEntities count the WAL
	// tail applied on top of the segments.
	ReplayedRecords  int
	ReplayedEvents   int
	ReplayedEntities int
	// TornTailTruncated is true when a partial final frame was discarded
	// (crash during append — expected, not corruption).
	TornTailTruncated bool
	// DroppedFrames counts consistent-looking data discarded past a
	// mid-file corruption under RecoverCorrupt (always 0 without it).
	DroppedFrames int
}

// durable is a session's durability state. All fields are guarded by the
// session write lock.
type durable struct {
	cfg         Durability
	wal         *segment.WAL
	seq         uint64 // last batch sequence applied in memory
	manifestSeq int64  // last committed flush generation
	sinceFlush  int    // sealed batches since the last committed flush
}

// logBatch frames the batch into the WAL before the in-memory apply. The
// frame carries seq+1; seq itself advances only after the apply succeeds,
// so a failure anywhere here (or in the apply) retries under the same
// sequence.
func (d *durable) logBatch(entities []*audit.Entity, events []audit.Event) error {
	if err := d.wal.Append(segment.EncodeRecord(d.seq+1, entities, events)); err != nil {
		return err
	}
	if d.cfg.Fsync == segment.FsyncAlways {
		t0 := time.Now()
		if err := d.wal.Sync(); err != nil {
			return err
		}
		if d.cfg.OnWALFsync != nil {
			d.cfg.OnWALFsync(time.Since(t0))
		}
	}
	return nil
}

// flushSegmentsLocked dumps the store as one segment generation and
// commits it. Errors leave the previous generation (and the whole WAL)
// intact and are reported only through OnSegmentFlush — a failed flush
// must not fail ingestion.
func (s *Session) flushSegmentsLocked() error {
	d := s.dur
	t0 := time.Now()
	report := func(st FlushStats) error {
		st.Took = time.Since(t0)
		if d.cfg.OnSegmentFlush != nil {
			d.cfg.OnSegmentFlush(st)
		}
		return st.Err
	}
	// Under the batch fsync policy the frames since the last flush have
	// never been synced; make them durable first, so even a flush that
	// fails past this point leaves every applied batch recoverable.
	if d.cfg.Fsync != segment.FsyncOff {
		ft := time.Now()
		if err := d.wal.Sync(); err != nil {
			return report(FlushStats{Err: err})
		}
		if d.cfg.OnWALFsync != nil {
			d.cfg.OnWALFsync(time.Since(ft))
		}
	}
	gen := d.manifestSeq + 1
	name := segment.SegmentFileName(gen, segment.RoleGlobal)
	bytes, err := segment.WriteSegment(d.cfg.Dir, name, engine.DumpImage(s.store))
	if err != nil {
		// A partly written file is unreferenced garbage; the next
		// successful flush sweeps it.
		return report(FlushStats{Err: err})
	}
	m := &segment.Manifest{
		Seq:      gen,
		WALFloor: d.seq,
		Segments: []segment.SegmentRef{{Role: segment.RoleGlobal, File: name}},
	}
	if err := segment.WriteManifest(d.cfg.Dir, m); err != nil {
		return report(FlushStats{Err: err})
	}
	// Committed: every applied batch is covered by the new generation
	// (floor == seq), so the whole WAL is garbage-collectable.
	d.manifestSeq = gen
	d.sinceFlush = 0
	if err := d.wal.Truncate(0); err != nil {
		// Not a consistency problem — stale frames at or below the floor
		// are skipped on replay — but worth surfacing.
		return report(FlushStats{ManifestSeq: gen, Segments: 1, Bytes: bytes, Err: err})
	}
	_ = segment.RemoveStale(d.cfg.Dir, m)
	return report(FlushStats{ManifestSeq: gen, Segments: 1, Bytes: bytes})
}

// OpenDurable opens a crash-safe session over cfg.Durability.Dir. When
// the directory holds a committed manifest, the store is rebuilt from its
// global segment (with a fresh engine over it) and the WAL tail above the
// manifest floor is replayed; otherwise fresh supplies an empty (or
// preloaded) store and its engine, and any leftover WAL from a crash
// before the first flush is replayed onto it. The session's Store and
// Engine return whichever pair it opened over.
//
// Corruption semantics: a damaged manifest or segment always refuses
// startup (*segment.CorruptError); a torn WAL tail is truncated silently;
// mid-file WAL corruption refuses startup unless Durability.RecoverCorrupt,
// which degrades to the last consistent prefix and reports the loss in
// RecoveryStats.
func OpenDurable(cfg Config, fresh func() (*engine.Store, *engine.Engine, error)) (*Session, RecoveryStats, error) {
	var rs RecoveryStats
	dcfg, err := cfg.Durability.withDefaults()
	if err != nil {
		return nil, rs, err
	}
	if dcfg.Dir == "" {
		return nil, rs, fmt.Errorf("stream: OpenDurable needs Durability.Dir")
	}
	if err := os.MkdirAll(dcfg.Dir, 0o755); err != nil {
		return nil, rs, err
	}

	var store *engine.Store
	var en *engine.Engine
	var floor uint64
	var manifestSeq int64
	if segment.Exists(dcfg.Dir) {
		m, err := segment.ReadManifest(dcfg.Dir)
		if err != nil {
			return nil, rs, err
		}
		if store, err = openGlobalSegment(dcfg.Dir, m); err != nil {
			return nil, rs, err
		}
		en = &engine.Engine{Store: store}
		rs.Recovered = true
		rs.ManifestSeq, rs.Segments, rs.WALFloor = m.Seq, 1, m.WALFloor
		floor, manifestSeq = m.WALFloor, m.Seq
	} else if store, en, err = fresh(); err != nil {
		return nil, rs, err
	}

	// Replay the WAL tail. The records re-enter through the same
	// AppendBatch path live ingestion uses, so IDs, indexes, adjacency,
	// and snapshots come out exactly as they would have without the crash.
	seq := floor
	data, err := segment.ReadWAL(dcfg.Dir)
	if err != nil {
		return nil, rs, err
	}
	truncateAt := int64(-1)
	if len(data) > 0 {
		res, err := segment.ScanFrames(data, floor, dcfg.RecoverCorrupt)
		if err != nil {
			return nil, rs, err
		}
		truncateAt = res.TruncateAt
		rs.TornTailTruncated = res.TornTail
		rs.DroppedFrames = res.Dropped
		for _, rec := range res.Records {
			for _, e := range rec.Entities {
				if err := store.Log.Entities.AdoptNew(e); err != nil {
					return nil, rs, fmt.Errorf("stream: wal replay seq %d: %w", rec.Seq, err)
				}
			}
			if err := store.AppendBatch(rec.Entities, rec.Events); err != nil {
				return nil, rs, fmt.Errorf("stream: wal replay seq %d: %w", rec.Seq, err)
			}
			rs.ReplayedRecords++
			rs.ReplayedEvents += len(rec.Events)
			rs.ReplayedEntities += len(rec.Entities)
			seq = rec.Seq
		}
	}

	wal, err := segment.OpenWAL(dcfg.Dir)
	if err != nil {
		return nil, rs, err
	}
	if truncateAt >= 0 {
		if err := wal.Truncate(truncateAt); err != nil {
			wal.Close()
			return nil, rs, err
		}
	}

	// The session proper starts only now: the store already holds the
	// recovered state, so New's entity frontier and tactical catch-up
	// round see it exactly like a preloaded store.
	s := New(store, en, cfg)
	s.dur = &durable{
		cfg:         dcfg,
		wal:         wal,
		seq:         seq,
		manifestSeq: manifestSeq,
	}
	return s, rs, nil
}

// openGlobalSegment validates, decodes and restores the manifest's global
// segment. Other roles (the partitions of a data directory written by the
// removed sharded mode) are not read.
func openGlobalSegment(dir string, m *segment.Manifest) (*engine.Store, error) {
	for _, ref := range m.Segments {
		if ref.Role != segment.RoleGlobal {
			continue
		}
		img, err := segment.OpenSegment(filepath.Join(dir, ref.File))
		if err != nil {
			return nil, err
		}
		return engine.OpenStore(img)
	}
	return nil, &segment.CorruptError{File: filepath.Join(dir, segment.ManifestFileName),
		Reason: fmt.Sprintf("manifest names no %q segment", segment.RoleGlobal)}
}
