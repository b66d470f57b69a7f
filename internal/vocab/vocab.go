// Package vocab implements B-Fabric's annotation management: extensible
// controlled vocabularies whose terms are created by users, reviewed and
// released by experts, automatically checked for similarly-written
// duplicates, and merged with transparent re-association of every object
// referring to the losing spelling (Figures 2 and 4–7 of the paper).
package vocab

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/entity"
	"repro/internal/events"
	"repro/internal/store"
)

// Term states.
const (
	// StatePending marks a user-created term awaiting expert review.
	StatePending = "pending"
	// StateReleased marks an expert-approved term.
	StateReleased = "released"
)

// termsTable is the store table holding all vocabulary terms.
const termsTable = "annotation"

// Term is one entry of a controlled vocabulary.
type Term struct {
	ID         int64
	Vocabulary string
	Value      string
	State      string
	CreatedBy  string
	ReviewedBy string
	// Description is free-text documentation of the term.
	Description string
}

// Candidate is a merge recommendation produced by the similarity detector.
type Candidate struct {
	Term  Term
	Score float64
}

// Service owns vocabulary terms and the merge machinery. It needs the
// entity registry to find and rewrite records referring to merged terms.
type Service struct {
	rg *entity.Registry
	// annotatedFields maps kind -> fields constrained by a vocabulary.
	annotatedFields map[string][]entity.Field
	// threshold is the similarity score above which merges are recommended.
	threshold float64
}

// Sentinel errors.
var (
	// ErrDuplicate is returned when adding a term that already exists
	// (exact match) in the vocabulary.
	ErrDuplicate = errors.New("term already exists")
	// ErrUnknownVocabulary is returned for unregistered vocabulary names.
	ErrUnknownVocabulary = errors.New("unknown vocabulary")
	// ErrStateConflict is returned for invalid lifecycle transitions.
	ErrStateConflict = errors.New("invalid term state transition")
	// ErrCrossVocabulary is returned when merging terms of different
	// vocabularies.
	ErrCrossVocabulary = errors.New("terms belong to different vocabularies")
)

// New creates the vocabulary service over the given registry. The
// annotatedFields map (kind -> vocabulary-constrained fields) tells the
// merge machinery where terms are referenced; it typically comes from
// model.AnnotatedFields.
func New(rg *entity.Registry, annotatedFields map[string][]entity.Field) *Service {
	s := rg.Store()
	s.EnsureTable(termsTable)
	// Composite uniqueness over (vocabulary, value) via a derived key field.
	if !s.HasTable(termsTable + "_marker") {
		_ = s.CreateIndex(termsTable, "key", true)
		_ = s.CreateIndex(termsTable, "vocabulary", false)
		_ = s.CreateIndex(termsTable, "state", false)
		s.EnsureTable(termsTable + "_marker")
	}
	return &Service{
		rg:              rg,
		annotatedFields: annotatedFields,
		threshold:       DefaultSimilarityThreshold,
	}
}

// SetThreshold overrides the similarity recommendation threshold.
func (sv *Service) SetThreshold(th float64) { sv.threshold = th }

func termKey(vocabulary, value string) string {
	return vocabulary + "\x00" + strings.ToLower(strings.TrimSpace(value))
}

func termFromRecord(r store.Row) Term {
	return Term{
		ID:          r.ID(),
		Vocabulary:  r.String("vocabulary"),
		Value:       r.String("value"),
		State:       r.String("state"),
		CreatedBy:   r.String("created_by"),
		ReviewedBy:  r.String("reviewed_by"),
		Description: r.String("description"),
	}
}

// AddTerm creates a new term. Terms created by experts or marked released
// explicitly skip review; otherwise the term enters the pending state and
// an annotation.created event is published, which the task engine turns
// into a review task for the experts (Figure 8).
func (sv *Service) AddTerm(tx *store.Tx, actor, vocabulary, value string, released bool) (Term, error) {
	value = strings.TrimSpace(value)
	if vocabulary == "" || value == "" {
		return Term{}, fmt.Errorf("vocab: empty vocabulary or value")
	}
	state := StatePending
	reviewedBy := ""
	if released {
		state = StateReleased
		reviewedBy = actor
	}
	rec := store.Record{
		"vocabulary":  vocabulary,
		"value":       value,
		"key":         termKey(vocabulary, value),
		"state":       state,
		"created_by":  actor,
		"reviewed_by": reviewedBy,
	}
	id, err := tx.Insert(termsTable, rec)
	if err != nil {
		if errors.Is(err, store.ErrUnique) {
			return Term{}, fmt.Errorf("vocab: %s/%s: %w", vocabulary, value, ErrDuplicate)
		}
		return Term{}, err
	}
	t := Term{ID: id, Vocabulary: vocabulary, Value: value, State: state, CreatedBy: actor, ReviewedBy: reviewedBy}
	sv.rg.Bus().Publish(events.Event{
		Topic: "annotation.created", Kind: termsTable, ID: id, Actor: actor, Tx: tx,
		Payload: map[string]any{"vocabulary": vocabulary, "value": value, "state": state},
	})
	return t, nil
}

// Get returns the term with the given id.
func (sv *Service) Get(tx *store.Tx, id int64) (Term, error) {
	r, err := tx.GetRef(termsTable, id)
	if err != nil {
		return Term{}, err
	}
	return termFromRecord(r), nil
}

// Lookup finds a term by vocabulary and (case-insensitive) value.
func (sv *Service) Lookup(tx *store.Tx, vocabulary, value string) (Term, error) {
	rows, err := tx.Query(store.Query{Table: termsTable, Where: []store.Pred{store.Eq("key", termKey(vocabulary, value))}, Limit: 1})
	if err != nil {
		return Term{}, err
	}
	if !rows.Next() {
		if err := rows.Err(); err != nil {
			return Term{}, err
		}
		return Term{}, fmt.Errorf("vocab: %s term %q: %w", vocabulary, value, store.ErrNotFound)
	}
	return termFromRecord(rows.Record()), nil
}

// Terms returns all terms of a vocabulary, optionally filtered by state
// (empty state = all), sorted by value. This backs the drop-down menus.
func (sv *Service) Terms(tx *store.Tx, vocabulary, state string) ([]Term, error) {
	where := []store.Pred{store.Eq("vocabulary", vocabulary)}
	if state != "" {
		where = append(where, store.Eq("state", state))
	}
	out, err := queryTerms(tx, where...)
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out, nil
}

// Pending returns every pending term across all vocabularies — the expert's
// review queue.
func (sv *Service) Pending(tx *store.Tx) ([]Term, error) {
	return queryTerms(tx, store.Eq("state", StatePending))
}

// queryTerms returns the terms matching every predicate, in id order.
func queryTerms(tx *store.Tx, where ...store.Pred) ([]Term, error) {
	rows, err := tx.Query(store.Query{Table: termsTable, Where: where})
	if err != nil {
		return nil, err
	}
	out := []Term{} // non-nil: the portal encodes an empty list as []
	for rows.Next() {
		out = append(out, termFromRecord(rows.Record()))
	}
	return out, rows.Err()
}

// Release approves a pending term (Figure 4). Releasing an already-released
// term fails with ErrStateConflict.
func (sv *Service) Release(tx *store.Tx, actor string, id int64) error {
	r, err := tx.Get(termsTable, id)
	if err != nil {
		return err
	}
	if r.String("state") != StatePending {
		return fmt.Errorf("vocab: term %d is %q: %w", id, r.String("state"), ErrStateConflict)
	}
	r["state"] = StateReleased
	r["reviewed_by"] = actor
	if err := tx.Put(termsTable, id, r); err != nil {
		return err
	}
	sv.rg.Bus().Publish(events.Event{
		Topic: "annotation.released", Kind: termsTable, ID: id, Actor: actor, Tx: tx,
		Payload: map[string]any{"vocabulary": r.String("vocabulary"), "value": r.String("value")},
	})
	return nil
}

// Exists reports whether a value is a known term of the vocabulary
// (pending or released). The service layer uses it to validate annotation
// fields on entity creation.
func (sv *Service) Exists(tx *store.Tx, vocabulary, value string) bool {
	_, err := sv.Lookup(tx, vocabulary, value)
	return err == nil
}

// Similar scans the vocabulary for terms similar to value, returning
// candidates scoring at or above the service threshold, best first. The
// exact (case-insensitive) match is excluded: it is a duplicate, not a
// merge candidate.
//
// The scan is zero-copy (term records are read by reference and only their
// string values extracted) and amortizes the query side of the similarity
// computation across all comparisons via a Scorer. Run inside a View it is
// also wait-free under write load: the whole comparison loop reads the
// transaction's pinned MVCC version, so bulk term imports never stall a
// similarity check and vice versa.
func (sv *Service) Similar(tx *store.Tx, vocabulary, value string) ([]Candidate, error) {
	rows, err := tx.Query(store.Query{Table: termsTable, Where: []store.Pred{store.Eq("vocabulary", vocabulary)}})
	if err != nil {
		return nil, err
	}
	sc := NewScorer(value)
	norm := strings.ToLower(strings.TrimSpace(value))
	var out []Candidate
	for rows.Next() {
		r := rows.Record()
		tv := r.String("value")
		if strings.ToLower(tv) == norm {
			continue
		}
		if score := sc.Score(tv); score >= sv.threshold {
			out = append(out, Candidate{Term: termFromRecord(r), Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Term.Value < out[j].Term.Value
	})
	return out, rows.Err()
}

// Recommendations returns, for every pending term, its merge candidates.
// This is the annotation view of Figure 5 where the expert sees "Hopeles"
// flagged as similar to "Hopeless".
func (sv *Service) Recommendations(tx *store.Tx) (map[int64][]Candidate, error) {
	pend, err := sv.Pending(tx)
	if err != nil {
		return nil, err
	}
	out := make(map[int64][]Candidate)
	for _, t := range pend {
		cands, err := sv.Similar(tx, t.Vocabulary, t.Value)
		if err != nil {
			return nil, err
		}
		if len(cands) > 0 {
			out[t.ID] = cands
		}
	}
	return out, nil
}

// MergeResult reports what a merge did.
type MergeResult struct {
	// Winner is the surviving term after the merge.
	Winner Term
	// Reassociated counts, per entity kind, how many records were moved
	// from the losing spelling to the winner.
	Reassociated map[string]int
}

// Merge folds the term dropID into keepID (Figures 6–7): every record whose
// vocabulary-constrained field carries the losing value is rewritten to the
// winning value, the losing term is deleted, and the winner optionally takes
// over attributes chosen by the expert (newValue non-empty renames the
// winner, re-keying it). The merged term is always released: an expert
// performed the merge.
func (sv *Service) Merge(tx *store.Tx, actor string, keepID, dropID int64, newValue string) (MergeResult, error) {
	if keepID == dropID {
		return MergeResult{}, fmt.Errorf("vocab: cannot merge a term with itself")
	}
	keep, err := tx.Get(termsTable, keepID)
	if err != nil {
		return MergeResult{}, err
	}
	drop, err := tx.Get(termsTable, dropID)
	if err != nil {
		return MergeResult{}, err
	}
	if keep.String("vocabulary") != drop.String("vocabulary") {
		return MergeResult{}, fmt.Errorf("vocab: %q vs %q: %w",
			keep.String("vocabulary"), drop.String("vocabulary"), ErrCrossVocabulary)
	}
	vocabulary := keep.String("vocabulary")
	oldValues := []string{drop.String("value")}
	winnerValue := keep.String("value")
	if newValue != "" && newValue != winnerValue {
		// Expert chose a new spelling for the merged annotation; records
		// carrying the winner's old spelling must move too.
		oldValues = append(oldValues, winnerValue)
		winnerValue = newValue
	}

	// Delete the loser first so a rename to the loser's value cannot
	// collide on the unique key.
	if err := tx.Delete(termsTable, dropID); err != nil {
		return MergeResult{}, err
	}
	if winnerValue != keep.String("value") {
		keep["value"] = winnerValue
		keep["key"] = termKey(vocabulary, winnerValue)
	}
	keep["state"] = StateReleased
	keep["reviewed_by"] = actor
	if err := tx.Put(termsTable, keepID, keep); err != nil {
		return MergeResult{}, err
	}

	// Re-associate every record referring to an old spelling.
	reassoc := make(map[string]int)
	for kind, fields := range sv.annotatedFields {
		for _, f := range fields {
			if f.Vocabulary != vocabulary {
				continue
			}
			for _, old := range oldValues {
				if old == winnerValue {
					continue
				}
				rows, err := tx.Query(store.Query{Table: kind, Where: []store.Pred{store.Eq(f.Name, old)}})
				if err != nil {
					return MergeResult{}, err
				}
				// Drained before the first Update: the loop rewrites rows
				// of the table the Rows iterates.
				ids, err := rows.IDs()
				if err != nil {
					return MergeResult{}, err
				}
				for _, id := range ids {
					if err := sv.rg.Update(tx, kind, id, actor, map[string]any{f.Name: winnerValue}); err != nil {
						return MergeResult{}, err
					}
					reassoc[kind]++
				}
			}
		}
	}
	ref, err := tx.GetRef(termsTable, keepID)
	if err != nil {
		return MergeResult{}, err
	}
	winner := termFromRecord(ref)
	sv.rg.Bus().Publish(events.Event{
		Topic: "annotation.merged", Kind: termsTable, ID: keepID, Actor: actor, Tx: tx,
		Payload: map[string]any{
			"vocabulary": vocabulary, "winner": winner.Value,
			"dropped": drop.String("value"), "dropped_id": dropID,
		},
	})
	return MergeResult{Winner: winner, Reassociated: reassoc}, nil
}

// Count returns the total number of terms across all vocabularies.
func (sv *Service) Count() int { return sv.rg.Store().Count(termsTable) }
