package search

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/store"
)

// ExportCSV writes search results to w as CSV — the paper's "search results
// can be exported into files". Columns: kind, id, score, name (when the hit
// record has a name field).
func (s *Service) ExportCSV(w io.Writer, hits []Hit) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "id", "score", "name"}); err != nil {
		return err
	}
	st := s.rg.Store()
	// One read transaction for all hits; names are extracted from shared
	// record references without cloning.
	names := make([]string, len(hits))
	_ = st.View(func(tx *store.Tx) error {
		for i, h := range hits {
			if !st.HasTable(h.Kind) {
				continue
			}
			if r, err := tx.GetRef(h.Kind, h.ID); err == nil {
				names[i] = r.String("name")
				if names[i] == "" {
					names[i] = r.String("value") // annotation terms
				}
			}
		}
		return nil
	})
	for i, h := range hits {
		rec := []string{
			h.Kind,
			strconv.FormatInt(h.ID, 10),
			strconv.FormatFloat(h.Score, 'f', 2, 64),
			names[i],
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportRecordsCSV writes full records of one kind to w: the generic object
// export used by the admin screens. Fields are emitted in sorted order for
// determinism.
func (s *Service) ExportRecordsCSV(w io.Writer, kind string, ids []int64) error {
	st := s.rg.Store()
	if !st.HasTable(kind) {
		return fmt.Errorf("search: unknown kind %q", kind)
	}
	// Gather the union of fields over the exported rows. The rows are
	// read in one transaction; they stay valid snapshots for the write
	// loop below because stored rows are immutable.
	fieldSet := make(map[string]bool)
	records := make([]store.Row, 0, len(ids))
	err := st.View(func(tx *store.Tx) error {
		for _, id := range ids {
			r, err := tx.GetRef(kind, id)
			if err != nil {
				return err
			}
			r.Range(func(k string, _ any) bool {
				fieldSet[k] = true
				return true
			})
			records = append(records, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fields := make([]string, 0, len(fieldSet))
	for f := range fieldSet {
		fields = append(fields, f)
	}
	sort.Strings(fields)

	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"id"}, fields...)); err != nil {
		return err
	}
	for _, r := range records {
		row := make([]string, 0, len(fields)+1)
		row = append(row, strconv.FormatInt(r.ID(), 10))
		for _, f := range fields {
			row = append(row, fmt.Sprint(r.Get(f)))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
