package store

import (
	"errors"
	"testing"
	"time"
)

func newTestStore(t *testing.T, tables ...string) *Store {
	t.Helper()
	s := New()
	for _, name := range tables {
		if err := s.CreateTable(name); err != nil {
			t.Fatalf("CreateTable(%q): %v", name, err)
		}
	}
	return s
}

func mustInsert(t *testing.T, s *Store, table string, r Record) int64 {
	t.Helper()
	var id int64
	err := s.Update(func(tx *Tx) error {
		var err error
		id, err = tx.Insert(table, r)
		return err
	})
	if err != nil {
		t.Fatalf("insert into %s: %v", table, err)
	}
	return id
}

func TestCreateTableDuplicate(t *testing.T) {
	s := newTestStore(t, "sample")
	if err := s.CreateTable("sample"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate CreateTable: got %v, want ErrExists", err)
	}
}

func TestCreateTableEmptyName(t *testing.T) {
	s := New()
	if err := s.CreateTable(""); err == nil {
		t.Fatal("CreateTable(\"\") succeeded, want error")
	}
}

func TestInsertAssignsSerialIDs(t *testing.T) {
	s := newTestStore(t, "sample")
	for want := int64(1); want <= 5; want++ {
		id := mustInsert(t, s, "sample", Record{"name": "s"})
		if id != want {
			t.Fatalf("insert #%d: got id %d", want, id)
		}
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := newTestStore(t, "sample")
	id := mustInsert(t, s, "sample", Record{"name": "alpha", "tags": []string{"a"}})
	r1, err := s.Get("sample", id)
	if err != nil {
		t.Fatal(err)
	}
	r1["name"] = "mutated"
	r1.Strings("tags")[0] = "z"
	r2, err := s.Get("sample", id)
	if err != nil {
		t.Fatal(err)
	}
	if r2.String("name") != "alpha" {
		t.Errorf("record aliased: name = %q", r2.String("name"))
	}
	if r2.Strings("tags")[0] != "a" {
		t.Errorf("slice aliased: tags[0] = %q", r2.Strings("tags")[0])
	}
}

func TestInsertDoesNotAliasInput(t *testing.T) {
	s := newTestStore(t, "sample")
	in := Record{"name": "alpha", "refs": []int64{1, 2}}
	id := mustInsert(t, s, "sample", in)
	in["name"] = "mutated"
	in.IDs("refs")[0] = 99
	r, err := s.Get("sample", id)
	if err != nil {
		t.Fatal(err)
	}
	if r.String("name") != "alpha" || r.IDs("refs")[0] != 1 {
		t.Errorf("stored record aliases caller input: %v", r)
	}
}

func TestGetMissing(t *testing.T) {
	s := newTestStore(t, "sample")
	if _, err := s.Get("sample", 42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if _, err := s.Get("nosuch", 1); !errors.Is(err, ErrNoTable) {
		t.Fatalf("got %v, want ErrNoTable", err)
	}
}

func TestPutReplacesRecord(t *testing.T) {
	s := newTestStore(t, "sample")
	id := mustInsert(t, s, "sample", Record{"name": "old", "extra": "keep?"})
	err := s.Update(func(tx *Tx) error {
		return tx.Put("sample", id, Record{"name": "new"})
	})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := s.Get("sample", id)
	if r.String("name") != "new" {
		t.Errorf("name = %q, want new", r.String("name"))
	}
	if _, ok := r["extra"]; ok {
		t.Error("Put should fully replace the record; extra survived")
	}
	if r.ID() != id {
		t.Errorf("id = %d, want %d", r.ID(), id)
	}
}

func TestPutMissing(t *testing.T) {
	s := newTestStore(t, "sample")
	err := s.Update(func(tx *Tx) error {
		return tx.Put("sample", 7, Record{"name": "x"})
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestDelete(t *testing.T) {
	s := newTestStore(t, "sample")
	id := mustInsert(t, s, "sample", Record{"name": "gone"})
	if err := s.Update(func(tx *Tx) error { return tx.Delete("sample", id) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("sample", id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: got %v, want ErrNotFound", err)
	}
	err := s.Update(func(tx *Tx) error { return tx.Delete("sample", id) })
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
}

func TestRollbackDiscardsWrites(t *testing.T) {
	s := newTestStore(t, "sample")
	boom := errors.New("boom")
	err := s.Update(func(tx *Tx) error {
		if _, err := tx.Insert("sample", Record{"name": "phantom"}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if n := s.Count("sample"); n != 0 {
		t.Errorf("count after rollback = %d, want 0", n)
	}
	// IDs are not burned by rolled-back transactions.
	id := mustInsert(t, s, "sample", Record{"name": "real"})
	if id != 1 {
		t.Errorf("first committed id = %d, want 1", id)
	}
}

func TestReadOnlyTxRejectsWrites(t *testing.T) {
	s := newTestStore(t, "sample")
	id := mustInsert(t, s, "sample", Record{"name": "x"})
	err := s.View(func(tx *Tx) error {
		if _, err := tx.Insert("sample", Record{}); !errors.Is(err, ErrReadOnly) {
			t.Errorf("Insert in View: %v, want ErrReadOnly", err)
		}
		if err := tx.Put("sample", id, Record{}); !errors.Is(err, ErrReadOnly) {
			t.Errorf("Put in View: %v, want ErrReadOnly", err)
		}
		if err := tx.Delete("sample", id); !errors.Is(err, ErrReadOnly) {
			t.Errorf("Delete in View: %v, want ErrReadOnly", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTxSeesOwnWrites(t *testing.T) {
	s := newTestStore(t, "sample")
	err := s.Update(func(tx *Tx) error {
		id, err := tx.Insert("sample", Record{"name": "pending"})
		if err != nil {
			return err
		}
		r, err := tx.Get("sample", id)
		if err != nil {
			return err
		}
		if r.String("name") != "pending" {
			t.Errorf("tx read of own write: %v", r)
		}
		if n := tx.Count("sample"); n != 1 {
			t.Errorf("tx count = %d, want 1", n)
		}
		if err := tx.Delete("sample", id); err != nil {
			return err
		}
		if _, err := tx.Get("sample", id); !errors.Is(err, ErrNotFound) {
			t.Errorf("tx read of own delete: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnsupportedValueType(t *testing.T) {
	s := newTestStore(t, "sample")
	err := s.Update(func(tx *Tx) error {
		_, err := tx.Insert("sample", Record{"bad": struct{}{}})
		return err
	})
	if !errors.Is(err, ErrBadValue) {
		t.Fatalf("got %v, want ErrBadValue", err)
	}
	// int (not int64) is also rejected, guarding against silent truncation.
	err = s.Update(func(tx *Tx) error {
		_, err := tx.Insert("sample", Record{"n": 5})
		return err
	})
	if !errors.Is(err, ErrBadValue) {
		t.Fatalf("plain int: got %v, want ErrBadValue", err)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	s := newTestStore(t, "sample")
	for i := 0; i < 10; i++ {
		mustInsert(t, s, "sample", Record{"n": int64(i)})
	}
	var ids []int64
	err := s.View(func(tx *Tx) error {
		ids = queryIDs(t, tx, Query{Table: "sample", Limit: 4})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("early stop failed: visited %d", len(ids))
	}
	for i, id := range ids {
		if id != int64(i+1) {
			t.Fatalf("scan order: ids = %v", ids)
		}
	}
}

func TestScanSeesOverlay(t *testing.T) {
	s := newTestStore(t, "sample")
	a := mustInsert(t, s, "sample", Record{"name": "a"})
	b := mustInsert(t, s, "sample", Record{"name": "b"})
	err := s.Update(func(tx *Tx) error {
		if err := tx.Delete("sample", a); err != nil {
			return err
		}
		if err := tx.Put("sample", b, Record{"name": "b2"}); err != nil {
			return err
		}
		if _, err := tx.Insert("sample", Record{"name": "c"}); err != nil {
			return err
		}
		var names []string
		rows, err := tx.Query(Query{Table: "sample"})
		if err != nil {
			return err
		}
		for rows.Next() {
			names = append(names, rows.Record().String("name"))
		}
		if err := rows.Err(); err != nil {
			return err
		}
		checkAgainstOracle(t, tx, "sample", "overlay")
		if len(names) != 2 || names[0] != "b2" || names[1] != "c" {
			t.Errorf("overlay scan = %v, want [b2 c]", names)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimeRoundTrip(t *testing.T) {
	s := newTestStore(t, "sample")
	now := time.Date(2010, 1, 15, 9, 30, 0, 0, time.UTC)
	id := mustInsert(t, s, "sample", Record{"created": now})
	r, _ := s.Get("sample", id)
	if !r.Time("created").Equal(now) {
		t.Errorf("time round trip: %v", r.Time("created"))
	}
}

func TestClosedStore(t *testing.T) {
	s := newTestStore(t, "sample")
	s.Close()
	if err := s.Update(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Update on closed store: %v", err)
	}
	if err := s.View(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("View on closed store: %v", err)
	}
	if err := s.CreateTable("x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateTable on closed store: %v", err)
	}
}

func TestCommitSeqAdvances(t *testing.T) {
	s := newTestStore(t, "sample")
	before := s.CommitSeq()
	mustInsert(t, s, "sample", Record{})
	if got := s.CommitSeq(); got != before+1 {
		t.Errorf("CommitSeq = %d, want %d", got, before+1)
	}
	// Read-only transactions do not advance the sequence.
	_ = s.View(func(tx *Tx) error { return nil })
	if got := s.CommitSeq(); got != before+1 {
		t.Errorf("CommitSeq after View = %d, want %d", got, before+1)
	}
}

func TestRecordAccessors(t *testing.T) {
	r := Record{
		"s": "str", "i": int64(7), "f": 2.5, "b": true,
		"t":  time.Unix(100, 0),
		"li": []int64{1, 2}, "ls": []string{"x"},
	}
	if r.String("s") != "str" || r.Int("i") != 7 || r.Float("f") != 2.5 || !r.Bool("b") {
		t.Error("scalar accessors failed")
	}
	if !r.Time("t").Equal(time.Unix(100, 0)) {
		t.Error("time accessor failed")
	}
	if len(r.IDs("li")) != 2 || len(r.Strings("ls")) != 1 {
		t.Error("slice accessors failed")
	}
	// Wrong-type and missing keys return zero values.
	if r.String("i") != "" || r.Int("s") != 0 || r.Int("missing") != 0 {
		t.Error("accessor zero-value behaviour failed")
	}
}

func TestEnsureTableIdempotent(t *testing.T) {
	s := New()
	s.EnsureTable("x")
	mustInsert(t, s, "x", Record{"a": "b"})
	s.EnsureTable("x") // must not wipe existing data
	if s.Count("x") != 1 {
		t.Error("EnsureTable reset the table")
	}
	if !s.HasTable("x") || s.HasTable("y") {
		t.Error("HasTable wrong")
	}
}

func TestTablesSorted(t *testing.T) {
	s := newTestStore(t, "zebra", "alpha", "mid")
	got := s.Tables()
	want := []string{"alpha", "mid", "zebra"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tables() = %v, want %v", got, want)
		}
	}
}
