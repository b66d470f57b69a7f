package store

import (
	"strconv"
	"testing"
)

// benchStore builds a table with n committed rows (ids 1..n), an indexed
// "grp" field with ~n/16 rows per group, and a few representative fields.
func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	s := New()
	if err := s.CreateTable("t"); err != nil {
		b.Fatal(err)
	}
	if err := s.CreateIndex("t", "grp", false); err != nil {
		b.Fatal(err)
	}
	err := s.Update(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			if _, err := tx.Insert("t", Record{
				"name": "row-" + strconv.Itoa(i),
				"grp":  "g" + strconv.Itoa(i%16),
				"n":    int64(i),
				"tags": []string{"alpha", "beta"},
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkTxGet(b *testing.B) {
	s := benchStore(b, 1024)
	b.ResetTimer()
	_ = s.View(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			if _, err := tx.Get("t", int64(i%1024)+1); err != nil {
				b.Fatal(err)
			}
		}
		return nil
	})
}

func BenchmarkTxGetRef(b *testing.B) {
	s := benchStore(b, 1024)
	b.ResetTimer()
	_ = s.View(func(tx *Tx) error {
		for i := 0; i < b.N; i++ {
			if _, err := tx.GetRef("t", int64(i%1024)+1); err != nil {
				b.Fatal(err)
			}
		}
		return nil
	})
}
