// Package audit implements B-Fabric's manipulation log: every create,
// update and delete on the main data objects is recorded "such that the
// user can remember what he did in the past and the system can be
// monitored". Entries are written inside the same transaction as the
// mutation, so the log is exactly as durable as the change it describes.
package audit

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/events"
	"repro/internal/store"
)

const auditTable = "_audit"

// Entry is one logged manipulation.
type Entry struct {
	ID int64
	// Seq is the entry's place in the log: its row id, so unique and
	// increasing across restarts, promotions and rolled-back writes.
	Seq int64
	// Topic is the event topic ("sample.created", ...).
	Topic string
	// Kind and Ref identify the touched object.
	Kind string
	Ref  int64
	// Actor is the login that performed the manipulation.
	Actor string
	// At is the wall-clock time of the manipulation.
	At time.Time
	// Fields lists the touched field names (for updates).
	Fields []string
}

// Log subscribes to the bus and persists manipulation entries.
type Log struct {
	store *store.Store
}

// New creates the audit log over the store and subscribes it to the bus.
func New(s *store.Store, bus *events.Bus) *Log {
	s.EnsureTable(auditTable)
	if !s.HasTable(auditTable + "_marker") {
		_ = s.CreateIndex(auditTable, "actor", false)
		_ = s.CreateIndex(auditTable, "refkey", false)
		_ = s.CreateIndex(auditTable, "topic", false)
		s.EnsureTable(auditTable + "_marker")
	}
	l := &Log{store: s}
	bus.Subscribe("", l.onEvent)
	return l
}

func refKey(kind string, ref int64) string { return fmt.Sprintf("%s:%d", kind, ref) }

// auditable reports whether a topic describes a manipulation worth logging.
func auditable(topic string) bool {
	for _, suffix := range []string{".created", ".updated", ".deleted", ".released", ".merged"} {
		if strings.HasSuffix(topic, suffix) {
			return true
		}
	}
	return false
}

func (l *Log) onEvent(ev events.Event) error {
	if !auditable(ev.Topic) || ev.Kind == "" {
		return nil
	}
	tx, ok := ev.Tx.(*store.Tx)
	if !ok {
		return fmt.Errorf("audit: event %s without transaction", ev.Topic)
	}
	at := nowFunc()
	if ev.Items != nil {
		// Coalesced batch: one entry per touched entity, all written in the
		// publishing transaction and stamped with one wall-clock instant —
		// the batch is one manipulation and lands (or rolls back) whole.
		for _, it := range ev.Items {
			if err := l.insert(tx, ev, it.ID, it.Payload, at); err != nil {
				return err
			}
		}
		return nil
	}
	return l.insert(tx, ev, ev.ID, ev.Payload, at)
}

func (l *Log) insert(tx *store.Tx, ev events.Event, ref int64, payload map[string]any, at time.Time) error {
	var fields []string
	for k := range payload {
		fields = append(fields, k)
	}
	slices.Sort(fields)
	_, err := tx.Insert(auditTable, store.Record{
		"topic":  ev.Topic,
		"kind":   ev.Kind,
		"ref":    ref,
		"refkey": refKey(ev.Kind, ref),
		"actor":  ev.Actor,
		"at":     at,
		"fields": fields,
	})
	return err
}

var nowFunc = func() time.Time { return time.Now().UTC() }

// entryFromRecord converts an audit row. Rows written before Seq became
// the row id still carry a "seq" column; nothing reads it.
func entryFromRecord(r store.Row) Entry {
	return Entry{
		ID: r.ID(), Seq: r.ID(), Topic: r.String("topic"),
		Kind: r.String("kind"), Ref: r.Int("ref"), Actor: r.String("actor"),
		At: r.Time("at"), Fields: r.Strings("fields"),
	}
}

// collect drains a planned audit query into entries, in the engine's id
// order — which is sequence order, since Seq is the id.
func collect(tx *store.Tx, q store.Query) ([]Entry, error) {
	rows, err := tx.Query(q)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, 16)
	for rows.Next() {
		out = append(out, entryFromRecord(rows.Record()))
	}
	return out, rows.Err()
}

// ByActor returns the actor's manipulations in sequence order.
func (l *Log) ByActor(tx *store.Tx, actor string) ([]Entry, error) {
	return collect(tx, store.Query{
		Table: auditTable,
		Where: []store.Pred{store.Eq("actor", actor)},
	})
}

// ByActorSince returns the actor's manipulations at or after the given
// time, in sequence order. The actor index drives; the time bound is a
// pushed-down residual.
func (l *Log) ByActorSince(tx *store.Tx, actor string, since time.Time) ([]Entry, error) {
	return collect(tx, store.Query{
		Table: auditTable,
		Where: []store.Pred{store.Eq("actor", actor), store.Range("at", since, nil)},
	})
}

// ByObject returns the manipulations of one object in sequence order.
func (l *Log) ByObject(tx *store.Tx, kind string, ref int64) ([]Entry, error) {
	return collect(tx, store.Query{
		Table: auditTable,
		Where: []store.Pred{store.Eq("refkey", refKey(kind, ref))},
	})
}

// ByTimeRange returns the manipulations inside [from, to] (zero time =
// unbounded on that side) in sequence order — the monitoring window
// query.
func (l *Log) ByTimeRange(tx *store.Tx, from, to time.Time) ([]Entry, error) {
	var lo, hi any
	if !from.IsZero() {
		lo = from
	}
	if !to.IsZero() {
		hi = to
	}
	return collect(tx, store.Query{
		Table: auditTable,
		Where: []store.Pred{store.Range("at", lo, hi)},
	})
}

// Recent returns the most recent n entries, newest first — the system
// monitoring view. The engine streams the table in descending id order
// and stops after n rows, so the cost is O(n), not O(table); the former
// implementation scanned and sorted every entry ever logged.
func (l *Log) Recent(tx *store.Tx, n int) ([]Entry, error) {
	if n <= 0 {
		return nil, nil
	}
	return collect(tx, store.Query{Table: auditTable, Desc: true, Limit: n})
}

// Count returns the total number of audit entries.
func (l *Log) Count() int { return l.store.Count(auditTable) }

// Summary is the monitoring rollup of the manipulation log: the total
// entry count and the histograms over topics and actors.
type Summary struct {
	ByTopic map[string]int `json:"by_topic"`
	ByActor map[string]int `json:"by_actor"`
	Total   int            `json:"total"`
}

// Summarize computes the rollup from maintained counters: the total is
// the table's live count and both histograms walk their index's distinct
// keys (count(postings)) — cost is O(distinct topics + distinct actors),
// never O(entries), no matter how long the system has been running.
func (l *Log) Summarize(tx *store.Tx) (Summary, error) {
	s := Summary{
		ByTopic: map[string]int{},
		ByActor: map[string]int{},
		Total:   tx.Count(auditTable),
	}
	fill := func(field string, into map[string]int) error {
		res, err := tx.Aggregate(store.Query{Table: auditTable}.GroupBy(field))
		if err != nil {
			return err
		}
		for _, g := range res.Groups {
			if k, ok := g.Key.(string); ok {
				into[k] = g.Count()
			}
		}
		return nil
	}
	if err := fill("topic", s.ByTopic); err != nil {
		return s, err
	}
	if err := fill("actor", s.ByActor); err != nil {
		return s, err
	}
	return s, nil
}
