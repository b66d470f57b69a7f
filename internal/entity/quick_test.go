package entity

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/events"
	"repro/internal/store"
)

// TestQuickLinkGraphConsistency: after any random sequence of creates,
// reference updates and deletes, the link table agrees exactly with the
// reference fields of the live records, in both directions.
func TestQuickLinkGraphConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rg := NewRegistry(store.New(), events.NewBus())
		if err := rg.Register(Kind{
			Name: "node",
			Fields: []Field{
				{Name: "name", Type: String, Required: true},
				{Name: "parent", Type: Ref, RefKind: "node"},
				{Name: "peers", Type: RefList, RefKind: "node"},
			},
		}); err != nil {
			return false
		}
		var live []int64
		for op := 0; op < 60; op++ {
			switch rng.Intn(4) {
			case 0, 1: // create, possibly with references
				_ = rg.Store().Update(func(tx *store.Tx) error {
					values := map[string]any{"name": fmt.Sprintf("n%d", op)}
					if len(live) > 0 && rng.Intn(2) == 0 {
						values["parent"] = live[rng.Intn(len(live))]
					}
					if len(live) > 1 && rng.Intn(2) == 0 {
						values["peers"] = []int64{
							live[rng.Intn(len(live))], live[rng.Intn(len(live))],
						}
					}
					id, err := rg.Create(tx, "node", "q", values)
					if err != nil {
						return nil
					}
					live = append(live, id)
					return nil
				})
			case 2: // rewire a random node
				if len(live) == 0 {
					continue
				}
				target := live[rng.Intn(len(live))]
				_ = rg.Store().Update(func(tx *store.Tx) error {
					values := map[string]any{}
					if rng.Intn(2) == 0 {
						values["parent"] = live[rng.Intn(len(live))]
					} else {
						values["parent"] = int64(0) // clear
					}
					return rg.Update(tx, "node", target, "q", values)
				})
			case 3: // delete an unreferenced node (Delete refuses otherwise)
				if len(live) == 0 {
					continue
				}
				idx := rng.Intn(len(live))
				id := live[idx]
				err := rg.Store().Update(func(tx *store.Tx) error {
					return rg.Delete(tx, "node", id, "q")
				})
				if err == nil {
					live = append(live[:idx], live[idx+1:]...)
				}
			}
		}
		// Verify: for every live record, Outgoing matches its fields, and
		// every outgoing edge appears in the target's Incoming.
		ok := true
		_ = rg.Store().View(func(tx *store.Tx) error {
			return scanAll(tx, "node", func(r store.Row) bool {
				want := map[string]int{}
				if p := r.Int("parent"); p != 0 {
					want[fmt.Sprintf("parent->%d", p)]++
				}
				for _, p := range r.IDs("peers") {
					if p != 0 {
						want[fmt.Sprintf("peers->%d", p)]++
					}
				}
				out, err := rg.Outgoing(tx, "node", r.ID())
				if err != nil {
					ok = false
					return false
				}
				got := map[string]int{}
				for _, e := range out {
					got[fmt.Sprintf("%s->%d", e.Field, e.ToID)]++
					// Reverse direction contains this edge.
					in, err := rg.Incoming(tx, "node", e.ToID)
					if err != nil {
						ok = false
						return false
					}
					found := false
					for _, ie := range in {
						if ie.FromID == r.ID() && ie.Field == e.Field {
							found = true
							break
						}
					}
					if !found {
						ok = false
						return false
					}
				}
				if len(got) != len(want) {
					ok = false
					return false
				}
				for k, n := range want {
					if got[k] != n {
						ok = false
						return false
					}
				}
				return true
			})
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// scanAll visits the table's rows in id order until fn returns false.
func scanAll(tx *store.Tx, table string, fn func(store.Row) bool) error {
	rows, err := tx.Query(store.Query{Table: table})
	if err != nil {
		return err
	}
	for rows.Next() && fn(rows.Record()) {
	}
	return rows.Err()
}
