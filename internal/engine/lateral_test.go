package engine

import (
	"reflect"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/cases"
)

// lateralTBQL hunts the lateral_movement extra case across the fleet: the
// ssh connect happens on host-a, the sshd receive and the scp exfil on
// host-b, and the two halves of the pivot meet at the shared NetConn
// entity (5-tuple identity is host-agnostic), so the temporal join crosses
// hosts through one entity.
const lateralTBQL = `proc p1["%/usr/bin/ssh%"] connect ip i1["10.0.0.12"] as evt1
proc p2["%/usr/sbin/sshd%"] receive ip i1 as evt2
proc p3["%/usr/bin/scp%"] connect ip i2["203.0.113.50"] as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, i1, p2, p3, i2`

// TestLateralMovementCrossHostPivot pins the cross-host join: one row, the
// whole pivot chain, with the connect on host-a and the receive on host-b
// matched through the same NetConn entity.
func TestLateralMovementCrossHostPivot(t *testing.T) {
	c := cases.ByID("lateral_movement")
	if c == nil {
		t.Fatal("lateral_movement case missing (cases.Extras)")
	}
	gen, err := c.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(gen.Log)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := (&Engine{Store: store}).Execute(nil, analyzed(t, lateralTBQL))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"/usr/bin/ssh", "10.0.0.12", "/usr/sbin/sshd", "/usr/bin/scp", "203.0.113.50"}}
	if got := res.Set.Strings(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %q, want %q", got, want)
	}
	// The pivot's two halves: the same NetConn object, subjects on
	// different hosts.
	hostsByOp := map[audit.OpType]string{}
	objByOp := map[audit.OpType]int64{}
	for id := range res.MatchedEvents {
		ev := store.Log.Events[id-1]
		if ev.ID != id {
			t.Fatalf("event %d stored at offset of %d", ev.ID, id)
		}
		subj := store.Log.Entities.Lookup(ev.SubjectID)
		if subj.Proc.ExeName == "/usr/bin/scp" {
			continue
		}
		hostsByOp[ev.Op], objByOp[ev.Op] = subj.Proc.Host, ev.ObjectID
	}
	if hostsByOp[audit.OpConnect] != "host-a" || hostsByOp[audit.OpReceive] != "host-b" {
		t.Fatalf("pivot hosts = %v, want connect on host-a and receive on host-b", hostsByOp)
	}
	if objByOp[audit.OpConnect] != objByOp[audit.OpReceive] {
		t.Fatalf("connect and receive hit different entities %d and %d", objByOp[audit.OpConnect], objByOp[audit.OpReceive])
	}
}
