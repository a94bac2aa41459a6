package vstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func testSchema() Schema {
	return Schema{
		Name: "T",
		Cols: []Column{
			{Name: "ID", Type: TypeInt64, NotNull: true},
			{Name: "NAME", Type: TypeText},
			{Name: "SCORE", Type: TypeFloat64},
			{Name: "DATA", Type: TypeBytes},
			{Name: "PAYLOAD", Type: TypeBlob},
			{Name: "WHEN", Type: TypeTime},
			{Name: "RANK", Type: TypeInt64, NotNull: true},
		},
		Indexes: []IndexSpec{{Name: "BY_RANK", Cols: []string{"RANK"}}},
	}
}

func createTestTable(t *testing.T, db *DB) *Table {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(tx, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func sampleRow(id int64, name string, rank int64, payload []byte) []Value {
	pk := NullV(TypeInt64)
	if id != 0 {
		pk = Int64(id)
	}
	return []Value{
		pk,
		Text(name),
		Float64V(float64(rank) * 1.5),
		BytesV([]byte{1, 2, 3}),
		Blob(payload),
		TimeV(time.Unix(1600000000, 0).UTC()),
		Int64(rank),
	}
}

func TestTableInsertGetRoundTrip(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)

	tx, _ := db.Begin()
	payload := bytes.Repeat([]byte("cbvr!"), 4000) // multi-page blob
	pk, err := tbl.Insert(tx, sampleRow(0, "first", 7, payload))
	if err != nil {
		t.Fatal(err)
	}
	if pk != 1 {
		t.Errorf("auto pk = %d, want 1", pk)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	row, ok, err := tbl.Get(nil, pk)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if row[1].Str != "first" || row[2].Float != 10.5 || row[6].Int != 7 {
		t.Errorf("row mismatch: %+v", row)
	}
	if !row[5].Time.Equal(time.Unix(1600000000, 0)) {
		t.Errorf("time mismatch: %v", row[5].Time)
	}
	got, err := db.ReadBlob(nil, row[4].Blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("blob mismatch: %d bytes vs %d", len(got), len(payload))
	}
}

func TestTableAutoPKSequence(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	for i := 1; i <= 5; i++ {
		pk, err := tbl.Insert(tx, sampleRow(0, fmt.Sprintf("r%d", i), int64(i), nil))
		if err != nil {
			t.Fatal(err)
		}
		if pk != int64(i) {
			t.Errorf("pk %d, want %d", pk, i)
		}
	}
	// Explicit pk then auto continues after it.
	if _, err := tbl.Insert(tx, sampleRow(100, "explicit", 6, nil)); err != nil {
		t.Fatal(err)
	}
	pk, err := tbl.Insert(tx, sampleRow(0, "after", 7, nil))
	if err != nil {
		t.Fatal(err)
	}
	if pk != 101 {
		t.Errorf("pk after explicit 100 = %d, want 101", pk)
	}
	tx.Commit()
}

func TestTableDuplicatePK(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	if _, err := tbl.Insert(tx, sampleRow(9, "a", 1, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(tx, sampleRow(9, "b", 2, nil)); err == nil {
		t.Error("duplicate pk should fail")
	}
	tx.Commit()
}

func TestTableUpdate(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	pk, err := tbl.Insert(tx, sampleRow(0, "before", 1, []byte("old-blob")))
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx2, _ := db.Begin()
	row, _, _ := tbl.Get(tx2, pk)
	row[1] = Text("after-update-with-a-much-longer-name-to-force-relocation-" + string(bytes.Repeat([]byte("x"), 500)))
	row[4] = Blob([]byte("new-blob"))
	row[6] = Int64(42)
	if err := tbl.Update(tx2, pk, row); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	got, ok, err := tbl.Get(nil, pk)
	if err != nil || !ok {
		t.Fatalf("get after update: %v", err)
	}
	if got[6].Int != 42 {
		t.Errorf("rank not updated: %d", got[6].Int)
	}
	b, _ := db.ReadBlob(nil, got[4].Blob)
	if string(b) != "new-blob" {
		t.Errorf("blob not updated: %q", b)
	}
	// Secondary index reflects the new rank.
	lo, hi, _ := IndexPrefixRange([]int64{42})
	var found []int64
	tbl.IndexScan(nil, "BY_RANK", lo, hi, func(pk int64) (bool, error) {
		found = append(found, pk)
		return true, nil
	})
	if len(found) != 1 || found[0] != pk {
		t.Errorf("index after update: %v", found)
	}
	lo, hi, _ = IndexPrefixRange([]int64{1})
	count := 0
	tbl.IndexScan(nil, "BY_RANK", lo, hi, func(int64) (bool, error) { count++; return true, nil })
	if count != 0 {
		t.Errorf("stale index entry under old rank: %d", count)
	}
}

func TestTableDelete(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	pk1, _ := tbl.Insert(tx, sampleRow(0, "keep", 1, []byte("blob1")))
	pk2, _ := tbl.Insert(tx, sampleRow(0, "drop", 2, []byte("blob2")))
	tx.Commit()

	tx2, _ := db.Begin()
	ok, err := tbl.Delete(tx2, pk2)
	if err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	ok, err = tbl.Delete(tx2, 999)
	if err != nil || ok {
		t.Fatalf("delete missing: ok=%v err=%v", ok, err)
	}
	tx2.Commit()

	if _, ok, _ := tbl.Get(nil, pk2); ok {
		t.Error("deleted row still readable")
	}
	if _, ok, _ := tbl.Get(nil, pk1); !ok {
		t.Error("sibling row lost")
	}
	n, _ := tbl.Count(nil)
	if n != 1 {
		t.Errorf("count = %d, want 1", n)
	}
}

func TestTableScanOrder(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	rng := rand.New(rand.NewSource(5))
	want := rng.Perm(200)
	for _, id := range want {
		if _, err := tbl.Insert(tx, sampleRow(int64(id)+1, "x", 3, nil)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	prev := int64(0)
	n := 0
	err := tbl.Scan(nil, func(pk int64, row []Value) (bool, error) {
		if pk <= prev {
			t.Fatalf("scan out of order: %d after %d", pk, prev)
		}
		prev = pk
		n++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Errorf("scanned %d rows, want 200", n)
	}
}

func TestTableNullHandling(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	row := sampleRow(0, "n", 1, nil)
	row[1] = NullV(TypeText)
	row[2] = NullV(TypeFloat64)
	row[3] = NullV(TypeBytes)
	row[4] = NullV(TypeBlob)
	row[5] = NullV(TypeTime)
	pk, err := tbl.Insert(tx, row)
	if err != nil {
		t.Fatal(err)
	}
	// NOT NULL violation.
	bad := sampleRow(0, "bad", 2, nil)
	bad[6] = NullV(TypeInt64)
	if _, err := tbl.Insert(tx, bad); err == nil {
		t.Error("NOT NULL violation not caught")
	}
	tx.Commit()
	got, ok, err := tbl.Get(nil, pk)
	if err != nil || !ok {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if !got[i].Null {
			t.Errorf("column %d should be NULL", i)
		}
	}
}

func TestTableTypeMismatch(t *testing.T) {
	db := openTestDB(t, nil)
	tbl := createTestTable(t, db)
	tx, _ := db.Begin()
	defer tx.Commit()
	row := sampleRow(0, "x", 1, nil)
	row[2] = Text("not-a-float")
	if _, err := tbl.Insert(tx, row); err == nil {
		t.Error("type mismatch not caught")
	}
	if _, err := tbl.Insert(tx, row[:3]); err == nil {
		t.Error("arity mismatch not caught")
	}
}

func TestPackIndexKeyBounds(t *testing.T) {
	if _, err := PackIndexKey([]int64{256}, 1); err == nil {
		t.Error("column value 256 should be rejected")
	}
	if _, err := PackIndexKey([]int64{-1}, 1); err == nil {
		t.Error("negative column value should be rejected")
	}
	if _, err := PackIndexKey([]int64{1, 2, 3, 4}, 1); err == nil {
		t.Error("too many columns should be rejected")
	}
	if _, err := PackIndexKey([]int64{1}, maxIndexPK+1); err == nil {
		t.Error("oversized pk should be rejected")
	}
}

// PackIndexKey ordering property: keys group by column values first, pk
// second, so a prefix range covers exactly one column-value combination.
func TestPackIndexKeyOrderingProperty(t *testing.T) {
	f := func(a, b uint8, pk1, pk2 uint32) bool {
		k1, err1 := PackIndexKey([]int64{int64(a)}, int64(pk1))
		k2, err2 := PackIndexKey([]int64{int64(b)}, int64(pk2))
		if err1 != nil || err2 != nil {
			return false
		}
		if a != b {
			return (a < b) == (k1 < k2)
		}
		if pk1 != pk2 {
			return (pk1 < pk2) == (k1 < k2)
		}
		return k1 == k2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Row codec round-trip property over random content.
func TestRowCodecRoundTripProperty(t *testing.T) {
	schema := testSchema()
	f := func(name string, score float64, data []byte, rank uint8, nanos int64) bool {
		row := []Value{
			Int64(1),
			Text(name),
			Float64V(score),
			BytesV(data),
			Value{Type: TypeBlob, Blob: BlobRef{First: 3, Len: 17}},
			TimeV(time.Unix(0, nanos).UTC()),
			Int64(int64(rank)),
		}
		enc, err := encodeRow(&schema, row)
		if err != nil {
			return false
		}
		dec, err := decodeRow(&schema, enc)
		if err != nil {
			return false
		}
		return dec[1].Str == name &&
			(dec[2].Float == score || (score != score && dec[2].Float != dec[2].Float)) &&
			bytes.Equal(dec[3].Bytes, data) &&
			dec[4].Blob == row[4].Blob &&
			dec[5].Time.UnixNano() == nanos &&
			dec[6].Int == int64(rank)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSchemaValidation(t *testing.T) {
	cases := []Schema{
		{},          // no name
		{Name: "X"}, // no cols
		{Name: "X", Cols: []Column{{Name: "A", Type: TypeText}}},                               // non-int pk
		{Name: "X", Cols: []Column{{Name: "A", Type: TypeInt64}, {Name: "A", Type: TypeText}}}, // dup col
		{Name: "X", Cols: []Column{{Name: "A", Type: TypeInt64}},
			Indexes: []IndexSpec{{Name: "I", Cols: []string{"B"}}}}, // unknown index col
		{Name: "X", Cols: []Column{{Name: "A", Type: TypeInt64}, {Name: "B", Type: TypeText}},
			Indexes: []IndexSpec{{Name: "I", Cols: []string{"B"}}}}, // non-int index col
	}
	for i, s := range cases {
		if err := s.validate(); err == nil {
			t.Errorf("case %d: invalid schema accepted", i)
		}
	}
	good := testSchema()
	if err := good.validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestCreateTableDuplicate(t *testing.T) {
	db := openTestDB(t, nil)
	createTestTable(t, db)
	tx, _ := db.Begin()
	defer tx.Abort()
	if _, err := db.CreateTable(tx, testSchema()); err == nil {
		t.Error("duplicate table creation should fail")
	}
}

func TestTablePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/p.db"
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	tbl, err := db.CreateTable(tx, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	pk, err := tbl.Insert(tx, sampleRow(0, "persist", 3, []byte("blob-persists")))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	row, ok, err := tbl2.Get(nil, pk)
	if err != nil || !ok {
		t.Fatalf("row lost across reopen: ok=%v err=%v", ok, err)
	}
	if row[1].Str != "persist" {
		t.Errorf("name = %q", row[1].Str)
	}
	b, err := db2.ReadBlob(nil, row[4].Blob)
	if err != nil || string(b) != "blob-persists" {
		t.Errorf("blob = %q err=%v", b, err)
	}
}

// TestStatsCountPageIO pins the page I/O counters: a checkpoint writes
// the committed pages to the data file and moves PageWrites, and a read
// on a freshly opened store (cold buffer pool) fetches pages from the
// data file and moves PageReads.
func TestStatsCountPageIO(t *testing.T) {
	path := t.TempDir() + "/io.db"
	db, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	tbl, err := db.CreateTable(tx, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	pk, err := tbl.Insert(tx, sampleRow(0, "io", 1, bytes.Repeat([]byte{7}, 3*PageSize)))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().PageWrites
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := db.Stats().PageWrites; after <= before {
		t.Errorf("checkpoint left PageWrites at %d (was %d)", after, before)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	before = db2.Stats().PageReads
	row, ok, err := tbl2.Get(nil, pk)
	if err != nil || !ok {
		t.Fatalf("row lost across reopen: ok=%v err=%v", ok, err)
	}
	if _, err := db2.ReadBlob(nil, row[4].Blob); err != nil {
		t.Fatal(err)
	}
	if after := db2.Stats().PageReads; after <= before {
		t.Errorf("cold read left PageReads at %d (was %d)", after, before)
	}
}
