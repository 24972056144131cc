package relational

import (
	"fmt"
	"sort"
	"strconv"
	"testing"
)

// trimTestDB builds table t with an ascending id column whose values are
// not row positions (id = 1000 + 3*row), so a trim that confused values
// with positions would show, plus indexed name and size columns whose
// posting lists span the whole table. Table k holds two of the names, as
// the outer side of a join-keyed probe into t.
func trimTestDB(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()
	k, err := db.CreateTable("k", Schema{{Name: "name", Kind: KindString}})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.InsertBatch([][]Value{{Str("/bin/tar")}, {Str("/tmp/x")}}); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", Schema{
		{Name: "id", Kind: KindInt},
		{Name: "name", Kind: KindString},
		{Name: "size", Kind: KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"name", "size"} {
		if err := tbl.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = trimTestRow(i)
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return db
}

var trimNames = []string{"/bin/tar", "/bin/cp", "/tmp/x", "/etc/passwd", "/tmp/upload.tar"}

func trimTestRow(i int) []Value {
	return []Value{Int(int64(1000 + 3*i)), Str(trimNames[i%len(trimNames)]), Int(int64(i % 97))}
}

func sortedIDs(t *testing.T, ids []string) []int64 {
	t.Helper()
	out := make([]int64, len(ids))
	for i, s := range ids {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestProbeTrimMatchesReference pins the posting trim: an index probe on a
// level with an active scan floor over an ascending column binary-searches
// its row-ordered postings past the floor, and must return exactly the
// brute-force oracle's rows. When the trim fires, the probe visits only the
// in-window postings (RowsScanned equals the result count, since the key
// and the floor are the only conjuncts); on an unsorted column it must not
// fire and every posting is visited.
func TestProbeTrimMatchesReference(t *testing.T) {
	const n = 3000
	// Row 745 has id 3235 and name /bin/tar (745 % 5 == 0), and row 973
	// has id 3919 and size 3 (973 % 97 == 3): the floors below land
	// exactly on a posting, so an off-by-one trim drops a matching row.
	cases := []struct {
		name   string
		sql    string // executed statement
		ref    string // the same predicate with literal bounds, for the oracle
		params Params
		snap   bool // capture a snapshot, then append more matching rows
		late   bool // append out-of-order ids first: the trim must not fire
		outer  int  // rows the outer levels scan (table k) besides the postings
	}{
		{name: "literal floor inside a posting list",
			sql: "SELECT id FROM t WHERE name = '/bin/tar' AND id >= 3235"},
		{name: "exclusive floor",
			sql: "SELECT id FROM t WHERE name = '/bin/tar' AND id > 3232"},
		{name: "key-list probe",
			sql: "SELECT id FROM t WHERE name IN ('/bin/tar', '/tmp/x') AND id >= 5000"},
		{name: "parameter-list probe, parameter floor",
			sql:    "SELECT id FROM t WHERE size IN $0 AND id >= $2",
			ref:    "SELECT id FROM t WHERE size IN (3, 50, 96) AND id >= 3919",
			params: Params{Lists: [MaxParamSlots][]int64{0: {3, 50, 96}}, Ints: [MaxParamSlots]int64{2: 3919}}},
		{name: "parameter-list probe, exclusive parameter floor",
			sql:    "SELECT id FROM t WHERE size IN $0 AND id > $2",
			ref:    "SELECT id FROM t WHERE size IN (3, 50) AND id > 3916",
			params: Params{Lists: [MaxParamSlots][]int64{0: {3, 50}}, Ints: [MaxParamSlots]int64{2: 3916}}},
		{name: "join-keyed probe",
			sql:   "SELECT t.id FROM k, t WHERE t.name = k.name AND t.id >= 5000",
			ref:   "SELECT id FROM t WHERE name IN ('/bin/tar', '/tmp/x') AND id >= 5000",
			outer: 2},
		{name: "floor above every row",
			sql: "SELECT id FROM t WHERE name = '/bin/tar' AND id >= 99999"},
		{name: "snapshot before further appends",
			sql: "SELECT id FROM t WHERE name = '/bin/tar' AND id >= 3235", snap: true},
		{name: "snapshot, parameter-list probe",
			sql:    "SELECT id FROM t WHERE size IN $0 AND id > $2",
			ref:    "SELECT id FROM t WHERE size IN (3, 50) AND id > 4000",
			params: Params{Lists: [MaxParamSlots][]int64{0: {3, 50}}, Ints: [MaxParamSlots]int64{2: 4000}},
			snap:   true},
		{name: "unsorted column",
			sql: "SELECT id FROM t WHERE name = '/bin/tar' AND id >= 3235", late: true},
		{name: "unsorted column, parameter floor",
			sql:    "SELECT id FROM t WHERE size IN $0 AND id >= $2",
			ref:    "SELECT id FROM t WHERE size IN (0, 3) AND id >= 6001",
			params: Params{Lists: [MaxParamSlots][]int64{0: {0, 3}}, Ints: [MaxParamSlots]int64{2: 6001}},
			late:   true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := trimTestDB(t, n)
			tbl := db.Table("t")
			if tc.late {
				// Out-of-order ids on every key: one below the floors, one
				// above them, so the unsorted column's filter has work.
				for _, row := range [][]Value{
					{Int(1003), Str("/bin/tar"), Int(0)},
					{Int(7000), Str("/bin/tar"), Int(0)},
					{Int(1006), Str("/bin/tar"), Int(3)},
				} {
					if err := tbl.Insert(row); err != nil {
						t.Fatal(err)
					}
				}
			}
			ref := tc.ref
			if ref == "" {
				ref = tc.sql
			}
			want := sortedIDs(t, oracleSelectIDs(t, db, ref))
			stmt, err := ParseSelect(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := db.Prepare(stmt)
			if err != nil {
				t.Fatal(err)
			}
			params := tc.params
			if tc.snap {
				var s Snap
				s.Capture(db)
				params.Snap = &s
				// Later appends extend every posting list past the
				// snapshot's rows; the snapshot must not see them.
				for i := n; i < n+200; i++ {
					if err := tbl.Insert(trimTestRow(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			rs, stats, err := pr.Query(&params)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, row := range rs.Rows {
				got = append(got, row[0].String())
			}
			if g := sortedIDs(t, got); fmt.Sprint(g) != fmt.Sprint(want) {
				t.Fatalf("rows differ from the reference:\ngot  %v\nwant %v", g, want)
			}
			if stats.IndexLookups == 0 {
				t.Fatalf("no index probe ran; the case does not exercise the trim")
			}
			if tc.late {
				if stats.RowsScanned <= len(want) {
					t.Fatalf("unsorted column: scanned %d postings for %d rows; the trim fired",
						stats.RowsScanned, len(want))
				}
			} else if stats.RowsScanned != len(want)+tc.outer {
				t.Fatalf("scanned %d rows, want only the %d in-window postings (+%d outer)",
					stats.RowsScanned, len(want), tc.outer)
			}
		})
	}
}
