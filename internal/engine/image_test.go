package engine

import (
	"fmt"
	"reflect"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
	"threatraptor/internal/segment"
)

// roundTripStore dumps s to segment bytes, decodes them, and opens a
// fresh store from the image — the full durability round trip minus the
// filesystem.
func roundTripStore(t testing.TB, s *Store) *Store {
	t.Helper()
	img := DumpImage(s)
	got, err := segment.DecodeSegment(segment.Encode(img))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	s2, err := OpenStore(got)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s2
}

// assertStoresEquivalent compares the externally observable state of two
// stores: the event log, the ID frontier, the time bounds, and the
// results of the data_leak hunt over every execution path.
func assertStoresEquivalent(t *testing.T, want, got *Store) {
	t.Helper()
	if !reflect.DeepEqual(want.Log.Events, got.Log.Events) {
		t.Fatalf("event logs differ: %d vs %d events", len(want.Log.Events), len(got.Log.Events))
	}
	if want.nextEventID != got.nextEventID {
		t.Fatalf("nextEventID %d vs %d", want.nextEventID, got.nextEventID)
	}
	if want.MinTime != got.MinTime || want.MaxTime != got.MaxTime {
		t.Fatalf("bounds [%d,%d] vs [%d,%d]", want.MinTime, want.MaxTime, got.MinTime, got.MaxTime)
	}
	if w, g := want.Log.Entities.Len(), got.Log.Entities.Len(); w != g {
		t.Fatalf("entity counts %d vs %d", w, g)
	}
	for id := int64(1); id <= int64(want.Log.Entities.Len()); id++ {
		w, g := want.Log.Entities.Lookup(id), got.Log.Entities.Lookup(id)
		if w.Key() != g.Key() {
			t.Fatalf("entity %d key %q vs %q", id, w.Key(), g.Key())
		}
	}
	a := analyzed(t, dataLeakTBQL)
	resW, _, err := (&Engine{Store: want}).Execute(nil, a)
	if err != nil {
		t.Fatalf("execute original: %v", err)
	}
	resG, _, err := (&Engine{Store: got}).Execute(nil, a)
	if err != nil {
		t.Fatalf("execute restored: %v", err)
	}
	if fmt.Sprintf("%v", resW.Set) != fmt.Sprintf("%v", resG.Set) {
		t.Fatalf("scheduled results differ:\n%v\nvs\n%v", resW.Set, resG.Set)
	}
	if !reflect.DeepEqual(resW.MatchedEvents, resG.MatchedEvents) {
		t.Fatalf("matched events differ")
	}
	rsW, _, err := (&Engine{Store: want}).ExecuteMonolithicCypher(nil, a)
	if err != nil {
		t.Fatalf("cypher original: %v", err)
	}
	rsG, _, err := (&Engine{Store: got}).ExecuteMonolithicCypher(nil, a)
	if err != nil {
		t.Fatalf("cypher restored: %v", err)
	}
	if fmt.Sprintf("%v", rsW) != fmt.Sprintf("%v", rsG) {
		t.Fatalf("graph-path results differ:\n%v\nvs\n%v", rsW, rsG)
	}
}

func TestOpenStoreRoundTrip(t *testing.T) {
	gen, err := cases.ByID("data_leak").Generate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewStore(gen.Log)
	if err != nil {
		t.Fatal(err)
	}
	s2 := roundTripStore(t, s1)
	assertStoresEquivalent(t, s1, s2)
}

// TestOpenStoreThenAppend verifies a restored store accepts live appends
// exactly like the original: adopted columns relocate instead of
// clobbering shared buffers, restored indexes and adjacency extend, and
// new entities intern through the lazily hydrated table.
func TestOpenStoreThenAppend(t *testing.T) {
	gen, err := cases.ByID("data_leak").Generate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewStore(gen.Log)
	if err != nil {
		t.Fatal(err)
	}
	s2 := roundTripStore(t, s1)

	appendSame := func(s *Store) {
		t.Helper()
		tbl := s.Log.Entities
		p := tbl.InternProcessOn("hostZ", 9999, "/bin/tar", "mallory", "users", "tar cf /tmp/x /etc/passwd")
		f := tbl.InternFileOn("hostZ", "/etc/passwd", "root", "root")
		base := s.MaxTime + 1000
		evs := []audit.Event{
			{SubjectID: p.ID, ObjectID: f.ID, Op: audit.OpRead, StartTime: base, EndTime: base + 5, DataAmount: 123},
			{SubjectID: p.ID, ObjectID: f.ID, Op: audit.OpWrite, StartTime: base + 10, EndTime: base + 11},
		}
		if err := s.AppendBatch([]*audit.Entity{p, f}, evs); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	appendSame(s1)
	appendSame(s2)
	assertStoresEquivalent(t, s1, s2)

	// And a second round trip after the append captures the appended state.
	s3 := roundTripStore(t, s2)
	assertStoresEquivalent(t, s1, s3)
}

// BenchmarkStoreOpenSegment measures the segment-restore path —
// checksum-validated decode plus arena adoption — which must beat
// BenchmarkStoreLoadEngine (reloading the same log through the insert
// paths) by a wide margin: that gap is what bounds recovery time.
func BenchmarkStoreOpenSegment(b *testing.B) {
	gen, err := cases.ByID("data_leak").Generate(1.0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStore(gen.Log)
	if err != nil {
		b.Fatal(err)
	}
	data := segment.Encode(DumpImage(s))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := segment.DecodeSegment(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := OpenStore(img); err != nil {
			b.Fatal(err)
		}
	}
}
