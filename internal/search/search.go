// Package search implements B-Fabric's full-text search: an inverted index
// over the attributes and readable contents of all main objects, quick and
// advanced (fielded) queries, per-user search history, saved queries that
// re-execute against live data, and CSV export of result sets.
//
// The index lives in memory and follows the store: entity events mark
// documents dirty, and the dirty set is re-read from committed state before
// each query, so the index never reflects rolled-back transactions.
package search

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"repro/internal/entity"
	"repro/internal/events"
	"repro/internal/store"
)

// Hit is one search result.
type Hit struct {
	// Kind and ID identify the matching object.
	Kind string
	ID   int64
	// Score is the TF-based relevance score (higher is better).
	Score float64
}

// docKey encodes (kind, id) as the index document key.
func docKey(kind string, id int64) string { return kind + ":" + strconv.FormatInt(id, 10) }

func parseDocKey(key string) (string, int64) {
	i := strings.LastIndexByte(key, ':')
	id, _ := strconv.ParseInt(key[i+1:], 10, 64)
	return key[:i], id
}

// Service is the search engine.
type Service struct {
	rg *entity.Registry

	// flushMu serializes Flush cycles end to end (drain, barrier, read,
	// apply) so two concurrent flushes cannot apply reads of the same
	// document out of order. It is never taken while mu is held or inside
	// a store transaction.
	flushMu sync.Mutex

	mu sync.Mutex
	// terms maps term -> docKey -> term frequency.
	terms map[string]map[string]int
	// fields maps "field\x00term" -> docKey -> tf, for fielded queries.
	fields map[string]map[string]int
	// docs maps docKey -> the postings it contributed, for removal.
	docs map[string]docPostings
	// dirty is the set of documents awaiting (re-)indexing.
	dirty map[string]bool
	// history maps login -> most recent queries, newest last.
	history map[string][]string
}

type docPostings struct {
	terms  map[string]int
	fields map[string]int
}

// HistoryLimit caps the per-user search history length.
const HistoryLimit = 20

// savedTable persists saved queries.
const savedTable = "saved_query"

// SavedQuery is a stored, re-executable query.
type SavedQuery struct {
	ID    int64
	Name  string
	Owner string
	Query string
}

// ErrEmptyQuery is returned for queries with no usable terms.
var ErrEmptyQuery = errors.New("empty query")

// New creates the search service and subscribes it to entity events on the
// registry's bus. Existing records are marked dirty so the first query
// indexes them.
func New(rg *entity.Registry) *Service {
	s := &Service{
		rg:      rg,
		terms:   make(map[string]map[string]int),
		fields:  make(map[string]map[string]int),
		docs:    make(map[string]docPostings),
		dirty:   make(map[string]bool),
		history: make(map[string][]string),
	}
	st := rg.Store()
	st.EnsureTable(savedTable)
	if !st.HasTable(savedTable + "_marker") {
		_ = st.CreateIndex(savedTable, "owner", false)
		st.EnsureTable(savedTable + "_marker")
	}
	rg.Bus().Subscribe("", s.onEvent)
	s.ReindexAll()
	return s
}

// onEvent marks the touched document(s) dirty. It deliberately does not
// read the records: the event fires inside an uncommitted transaction, and
// the flush re-reads committed state later. A coalesced batch event marks
// all of its documents under one lock acquisition, so a bulk commit costs
// the indexer one mutex round instead of one per entity.
func (s *Service) onEvent(ev events.Event) error {
	if ev.Kind == "" || (ev.ID == 0 && ev.Items == nil) {
		return nil
	}
	switch {
	case strings.HasSuffix(ev.Topic, ".created"),
		strings.HasSuffix(ev.Topic, ".updated"),
		strings.HasSuffix(ev.Topic, ".deleted"),
		strings.HasSuffix(ev.Topic, ".released"),
		strings.HasSuffix(ev.Topic, ".merged"):
		s.mu.Lock()
		if ev.Items != nil {
			for _, it := range ev.Items {
				if it.ID != 0 {
					s.dirty[docKey(ev.Kind, it.ID)] = true
				}
			}
		} else {
			s.dirty[docKey(ev.Kind, ev.ID)] = true
		}
		s.mu.Unlock()
	}
	return nil
}

// ReindexAll marks every record of every registered kind (and the
// annotation table) dirty, forcing a full rebuild on the next query. Keys
// are gathered with zero-copy scans before the service mutex is taken, so
// the store is never locked while s.mu is held.
func (s *Service) ReindexAll() {
	st := s.rg.Store()
	kinds := append(s.rg.Kinds(), "annotation")
	var keys []string
	for _, kind := range kinds {
		if !st.HasTable(kind) {
			continue
		}
		_ = st.View(func(tx *store.Tx) error {
			rows, err := tx.Query(store.Query{Table: kind})
			if err != nil {
				return err
			}
			for rows.Next() {
				keys = append(keys, docKey(kind, rows.ID()))
			}
			return rows.Err()
		})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		s.dirty[k] = true
	}
}

// Flush applies all pending index updates incrementally, re-reading only the
// dirty documents from committed state. Queries call it implicitly.
//
// The read side is zero-copy: dirty keys are grouped by kind and fetched
// with GetRef in one read transaction per kind. Because committed records
// are immutable, the references stay consistent snapshots while the
// postings are rebuilt after the transaction ends, without ever blocking
// the store's writers.
func (s *Service) Flush() {
	// One flush cycle at a time: a document re-dirtied while this flush is
	// reading is drained by the next flush, which necessarily reads newer
	// state, so index applies can never go backwards.
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	s.mu.Lock()
	if len(s.dirty) == 0 {
		s.mu.Unlock()
		return
	}
	pending := make([]string, 0, len(s.dirty))
	for k := range s.dirty {
		pending = append(pending, k)
	}
	s.dirty = make(map[string]bool)
	s.mu.Unlock()
	sort.Strings(pending) // deterministic order, grouped by kind

	// Dirty marks arrive from entity events raised inside still-open write
	// transactions. Under MVCC a read transaction no longer waits for
	// in-flight writers, so without a handshake this flush could pin a
	// version that predates the commit that produced a drained mark — and
	// that document would stay stale with its mark already consumed.
	// Barrier returns once every write transaction in flight at the drain
	// has committed or rolled back; the reads below then pin a version
	// that includes them all.
	s.rg.Store().Barrier()

	type dirtyDoc struct {
		key  string
		kind string
		rec  store.Row
		live bool // false: document deleted, drop its postings
	}
	docs := make([]dirtyDoc, len(pending))
	st := s.rg.Store()
	for start := 0; start < len(pending); {
		kind, _ := parseDocKey(pending[start])
		end := start
		for end < len(pending) {
			if k, _ := parseDocKey(pending[end]); k != kind {
				break
			}
			end++
		}
		if st.HasTable(kind) {
			_ = st.View(func(tx *store.Tx) error {
				for i := start; i < end; i++ {
					_, id := parseDocKey(pending[i])
					rec, err := tx.GetRef(kind, id)
					docs[i] = dirtyDoc{key: pending[i], kind: kind, rec: rec, live: err == nil}
				}
				return nil
			})
		} else {
			for i := start; i < end; i++ {
				docs[i] = dirtyDoc{key: pending[i], kind: kind}
			}
		}
		start = end
	}

	s.mu.Lock()
	for _, d := range docs {
		s.removeDoc(d.key)
		if d.live {
			s.indexDoc(d.key, d.kind, d.rec)
		}
	}
	s.mu.Unlock()
}

// removeDoc drops a document's postings. Caller holds s.mu.
func (s *Service) removeDoc(key string) {
	dp, ok := s.docs[key]
	if !ok {
		return
	}
	for term := range dp.terms {
		if posting := s.terms[term]; posting != nil {
			delete(posting, key)
			if len(posting) == 0 {
				delete(s.terms, term)
			}
		}
	}
	for ft := range dp.fields {
		if posting := s.fields[ft]; posting != nil {
			delete(posting, key)
			if len(posting) == 0 {
				delete(s.fields, ft)
			}
		}
	}
	delete(s.docs, key)
}

// indexDoc adds a document's postings. Caller holds s.mu.
func (s *Service) indexDoc(key, kind string, rec store.Row) {
	dp := docPostings{terms: make(map[string]int), fields: make(map[string]int)}
	rec.Range(func(field string, v any) bool {
		var text string
		switch x := v.(type) {
		case string:
			text = x
		case []string:
			text = strings.Join(x, " ")
		default:
			return true
		}
		for _, tok := range Tokenize(text) {
			dp.terms[tok]++
			dp.fields[field+"\x00"+tok]++
		}
		return true
	})
	if len(dp.terms) == 0 {
		return
	}
	for term, tf := range dp.terms {
		posting := s.terms[term]
		if posting == nil {
			posting = make(map[string]int)
			s.terms[term] = posting
		}
		posting[key] = tf
	}
	for ft, tf := range dp.fields {
		posting := s.fields[ft]
		if posting == nil {
			posting = make(map[string]int)
			s.fields[ft] = posting
		}
		posting[key] = tf
	}
	s.docs[key] = dp
}

// stopwords excluded from the index and from queries.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "and": true,
	"or": true, "in": true, "on": true, "to": true, "is": true,
	"for": true, "with": true,
}

// Tokenize lower-cases text and splits it into index terms, dropping
// one-character tokens and stopwords.
func Tokenize(text string) []string {
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := fields[:0]
	for _, f := range fields {
		if len(f) < 2 || stopwords[f] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// Query is a parsed search query.
type Query struct {
	// Terms are bare terms (ANDed).
	Terms []string
	// Prefixes are bare prefix terms ("circa*"), each matching any
	// indexed term with that prefix.
	Prefixes []string
	// FieldTerms are field-scoped terms "field:term" (ANDed).
	FieldTerms []struct{ Field, Term string }
	// Kinds restricts results to these kinds, if non-empty.
	Kinds []string
	// Or switches term combination from AND to OR.
	Or bool
}

// ParseQuery parses the portal's query syntax:
//
//	light treatment            — documents containing both terms
//	species:arabidopsis        — fielded term
//	kind:sample light          — restrict to sample objects
//	light OR dark              — OR combination
//	arabid*                    — prefix match
func ParseQuery(q string) Query {
	var out Query
	for _, raw := range strings.Fields(q) {
		if raw == "OR" {
			out.Or = true
			continue
		}
		lower := strings.ToLower(raw)
		if strings.HasPrefix(lower, "kind:") {
			out.Kinds = append(out.Kinds, strings.TrimPrefix(lower, "kind:"))
			continue
		}
		if i := strings.IndexByte(raw, ':'); i > 0 {
			field := strings.ToLower(raw[:i])
			for _, tok := range Tokenize(raw[i+1:]) {
				out.FieldTerms = append(out.FieldTerms, struct{ Field, Term string }{field, tok})
			}
			continue
		}
		if strings.HasSuffix(raw, "*") {
			for _, tok := range Tokenize(strings.TrimSuffix(raw, "*")) {
				out.Prefixes = append(out.Prefixes, tok)
			}
			continue
		}
		out.Terms = append(out.Terms, Tokenize(raw)...)
	}
	return out
}

// Search runs a query string and returns ranked hits. The login, if
// non-empty, gets the query appended to its search history.
func (s *Service) Search(login, query string) ([]Hit, error) {
	q := ParseQuery(query)
	if len(q.Terms) == 0 && len(q.FieldTerms) == 0 && len(q.Prefixes) == 0 {
		return nil, fmt.Errorf("search: %q: %w", query, ErrEmptyQuery)
	}
	s.Flush()
	if login != "" {
		s.mu.Lock()
		h := append(s.history[login], query)
		if len(h) > HistoryLimit {
			h = h[len(h)-HistoryLimit:]
		}
		s.history[login] = h
		s.mu.Unlock()
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	// Gather per-constraint posting sets.
	var postings []map[string]int
	for _, t := range q.Terms {
		postings = append(postings, s.terms[t])
	}
	for _, ft := range q.FieldTerms {
		postings = append(postings, s.fields[ft.Field+"\x00"+ft.Term])
	}
	for _, prefix := range q.Prefixes {
		// A prefix constraint is the union of the postings of every
		// indexed term sharing the prefix.
		merged := make(map[string]int)
		for term, posting := range s.terms {
			if !strings.HasPrefix(term, prefix) {
				continue
			}
			for key, tf := range posting {
				merged[key] += tf
			}
		}
		postings = append(postings, merged)
	}

	kindOK := func(kind string) bool {
		if len(q.Kinds) == 0 {
			return true
		}
		for _, k := range q.Kinds {
			if k == kind {
				return true
			}
		}
		return false
	}

	var hits []Hit
	if q.Or {
		scores := make(map[string]float64)
		for _, p := range postings {
			for key, tf := range p {
				scores[key] += float64(tf)
			}
		}
		hits = make([]Hit, 0, len(scores))
		for key, score := range scores {
			kind, id := parseDocKey(key)
			if !kindOK(kind) {
				continue
			}
			hits = append(hits, Hit{Kind: kind, ID: id, Score: score})
		}
	} else {
		// AND: walk the smallest posting list and probe the others directly,
		// accumulating matches into the hit slice without an intermediate
		// scores map.
		sort.Slice(postings, func(i, j int) bool { return len(postings[i]) < len(postings[j]) })
		if len(postings) == 0 || len(postings[0]) == 0 {
			return nil, nil
		}
		hits = make([]Hit, 0, len(postings[0]))
		for key, tf := range postings[0] {
			score := float64(tf)
			matched := true
			for _, p := range postings[1:] {
				tf2, ok := p[key]
				if !ok {
					matched = false
					break
				}
				score += float64(tf2)
			}
			if !matched {
				continue
			}
			kind, id := parseDocKey(key)
			if !kindOK(kind) {
				continue
			}
			hits = append(hits, Hit{Kind: kind, ID: id, Score: score})
		}
	}
	slices.SortFunc(hits, func(a, b Hit) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		if c := strings.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		if a.ID != b.ID {
			if a.ID < b.ID {
				return -1
			}
			return 1
		}
		return 0
	})
	return hits, nil
}

// History returns the login's recent queries, newest last.
func (s *Service) History(login string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.history[login]...)
}

// SaveQuery persists a named query for later reuse.
func (s *Service) SaveQuery(tx *store.Tx, owner, name, query string) (int64, error) {
	if name == "" || query == "" {
		return 0, fmt.Errorf("search: empty name or query")
	}
	return tx.Insert(savedTable, store.Record{
		"name": name, "owner": owner, "query": query,
	})
}

// SavedQueries lists the owner's saved queries in id order.
func (s *Service) SavedQueries(tx *store.Tx, owner string) ([]SavedQuery, error) {
	rows, err := tx.Query(store.Query{Table: savedTable, Where: []store.Pred{store.Eq("owner", owner)}})
	if err != nil {
		return nil, err
	}
	out := []SavedQuery{} // non-nil: encoded as [] when empty
	for rows.Next() {
		r := rows.Record()
		out = append(out, SavedQuery{
			ID: r.ID(), Name: r.String("name"),
			Owner: r.String("owner"), Query: r.String("query"),
		})
	}
	return out, rows.Err()
}

// RunSaved executes a saved query by id. Per the paper, the invocation
// "will of course include all objects satisfying the query at run-time".
// It opens its own read transaction (do not call it with a transaction
// already held: the implicit index flush reads committed state).
func (s *Service) RunSaved(login string, id int64) ([]Hit, error) {
	r, err := s.rg.Store().Get(savedTable, id)
	if err != nil {
		return nil, err
	}
	return s.Search(login, r.String("query"))
}

// IndexedDocs returns the number of indexed documents (after a flush);
// exposed for monitoring and tests.
func (s *Service) IndexedDocs() int {
	s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.docs)
}
