package entity

import (
	"sort"

	"repro/internal/store"
)

// LinkEdge is one edge of the entity link graph.
type LinkEdge struct {
	// FromKind/FromID identify the referring entity.
	FromKind string
	FromID   int64
	// Field is the reference field on the referring entity.
	Field string
	// ToKind/ToID identify the referenced entity.
	ToKind string
	ToID   int64
}

// Outgoing returns the entities that (kind,id) refers to, i.e. the edges
// following its reference fields, sorted deterministically.
func (rg *Registry) Outgoing(tx *store.Tx, kind string, id int64) ([]LinkEdge, error) {
	return rg.edges(tx, "from", kind, id)
}

// Incoming returns the entities referring to (kind,id) — the reverse
// direction that makes bidirectional browsing possible.
func (rg *Registry) Incoming(tx *store.Tx, kind string, id int64) ([]LinkEdge, error) {
	return rg.edges(tx, "to", kind, id)
}

func (rg *Registry) edges(tx *store.Tx, side, kind string, id int64) ([]LinkEdge, error) {
	rows, err := tx.Query(store.Query{Table: linksTable, Where: []store.Pred{store.Eq(side, linkKey(kind, id))}})
	if err != nil {
		return nil, err
	}
	out := []LinkEdge{} // non-nil: the portal encodes it as [] rather than null
	for rows.Next() {
		// Zero-copy read: the edge struct is built from extracted values, so
		// the shared record is never retained or mutated.
		l := rows.Record()
		fk, fid, ok1 := parseLinkKey(l.String("from"))
		tk, tid, ok2 := parseLinkKey(l.String("to"))
		if !ok1 || !ok2 {
			continue
		}
		out = append(out, LinkEdge{
			FromKind: fk, FromID: fid, Field: l.String("field"),
			ToKind: tk, ToID: tid,
		})
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.FromKind != b.FromKind {
			return a.FromKind < b.FromKind
		}
		if a.FromID != b.FromID {
			return a.FromID < b.FromID
		}
		if a.Field != b.Field {
			return a.Field < b.Field
		}
		if a.ToKind != b.ToKind {
			return a.ToKind < b.ToKind
		}
		return a.ToID < b.ToID
	})
	return out, nil
}

// Neighbors returns both directions of the link graph around (kind,id):
// everything the entity references and everything referencing it. This is
// the primitive behind the portal's networked browse view.
func (rg *Registry) Neighbors(tx *store.Tx, kind string, id int64) (outgoing, incoming []LinkEdge, err error) {
	outgoing, err = rg.Outgoing(tx, kind, id)
	if err != nil {
		return nil, nil, err
	}
	incoming, err = rg.Incoming(tx, kind, id)
	if err != nil {
		return nil, nil, err
	}
	return outgoing, incoming, nil
}

// ReferrerIDs returns the ids of entities of fromKind whose reference field
// points at (kind,id). It is the common "find all samples of this project"
// navigation helper.
func (rg *Registry) ReferrerIDs(tx *store.Tx, kind string, id int64, fromKind, field string) ([]int64, error) {
	in, err := rg.Incoming(tx, kind, id)
	if err != nil {
		return nil, err
	}
	var out []int64
	seen := make(map[int64]bool)
	for _, e := range in {
		if e.FromKind == fromKind && (field == "" || e.Field == field) && !seen[e.FromID] {
			seen[e.FromID] = true
			out = append(out, e.FromID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
