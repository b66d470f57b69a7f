// Package entity provides the typed schema layer over the raw record store:
// entity kinds with field definitions, value validation, referential
// integrity, and the bidirectional link graph that backs B-Fabric's
// "networked" object browsing. It plays the role of the ORM in the original
// Java implementation.
package entity

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/events"
	"repro/internal/store"
)

// FieldType enumerates the value types an entity field can carry.
type FieldType int

const (
	// String is a short string value.
	String FieldType = iota
	// Text is a long, full-text-searchable string value.
	Text
	// Int is an int64 value.
	Int
	// Float is a float64 value.
	Float
	// Bool is a boolean value.
	Bool
	// Time is a time.Time value.
	Time
	// Ref is a reference (int64 id) to another entity.
	Ref
	// RefList is a list of references to other entities.
	RefList
	// StringList is a list of short strings.
	StringList
)

// String returns the human-readable name of the field type.
func (ft FieldType) String() string {
	switch ft {
	case String:
		return "string"
	case Text:
		return "text"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case Time:
		return "time"
	case Ref:
		return "ref"
	case RefList:
		return "reflist"
	case StringList:
		return "stringlist"
	default:
		return fmt.Sprintf("FieldType(%d)", int(ft))
	}
}

// Field describes one attribute of an entity kind.
type Field struct {
	// Name is the attribute name (snake_case by convention).
	Name string
	// Type is the value type.
	Type FieldType
	// Required fields must be present and non-zero on create.
	Required bool
	// Unique fields get a unique index.
	Unique bool
	// Indexed fields get a secondary index.
	Indexed bool
	// RefKind names the target kind for Ref/RefList fields.
	RefKind string
	// Vocabulary names the controlled vocabulary constraining a String
	// field, if any. Enforcement happens at the service layer, which owns
	// the vocabulary store.
	Vocabulary string
}

// Kind describes an entity type: its name and attribute schema.
type Kind struct {
	// Name is the kind name (singular, lower case: "sample").
	Name string
	// Fields is the attribute schema.
	Fields []Field

	byName map[string]*Field
}

// Field returns the definition of the named field, or nil.
func (k *Kind) Field(name string) *Field {
	return k.byName[name]
}

// FieldNames returns the field names in schema order.
func (k *Kind) FieldNames() []string {
	out := make([]string, len(k.Fields))
	for i, f := range k.Fields {
		out[i] = f.Name
	}
	return out
}

// linksTable is the system table recording every reference edge so that
// objects can be browsed bidirectionally ("networked fashion").
const linksTable = "_links"

// Registry owns the set of registered kinds and mediates all entity
// mutations, maintaining validation, referential integrity, the link graph,
// and event publication.
type Registry struct {
	store *store.Store
	bus   *events.Bus
	kinds map[string]*Kind
}

// Sentinel errors for schema violations.
var (
	// ErrUnknownKind is returned for operations on unregistered kinds.
	ErrUnknownKind = errors.New("unknown entity kind")
	// ErrUnknownField is returned when a value targets no schema field.
	ErrUnknownField = errors.New("unknown field")
	// ErrWrongType is returned when a value has the wrong type for a field.
	ErrWrongType = errors.New("wrong value type")
	// ErrRequired is returned when a required field is missing or zero.
	ErrRequired = errors.New("required field missing")
	// ErrDanglingRef is returned when a reference targets a missing entity.
	ErrDanglingRef = errors.New("dangling reference")
	// ErrReferenced is returned when deleting an entity that others refer to.
	ErrReferenced = errors.New("entity is still referenced")
)

// NewRegistry creates a registry over the given store and bus.
func NewRegistry(s *store.Store, bus *events.Bus) *Registry {
	s.EnsureTable(linksTable)
	// The link table is hot on both endpoints.
	if !s.HasTable(linksTable + "_marker") {
		// CreateIndex is idempotent-hostile; guard with a marker table so a
		// registry can be rebuilt over a loaded store.
		_ = s.CreateIndex(linksTable, "from", false)
		_ = s.CreateIndex(linksTable, "to", false)
		s.EnsureTable(linksTable + "_marker")
	}
	return &Registry{store: s, bus: bus, kinds: make(map[string]*Kind)}
}

// Store returns the underlying record store.
func (rg *Registry) Store() *store.Store { return rg.store }

// Bus returns the event bus.
func (rg *Registry) Bus() *events.Bus { return rg.bus }

// Register adds a kind to the registry, creating its table and indexes.
// Registering the same kind name twice is an error.
func (rg *Registry) Register(k Kind) error {
	if k.Name == "" {
		return fmt.Errorf("entity: empty kind name")
	}
	if _, ok := rg.kinds[k.Name]; ok {
		return fmt.Errorf("entity: kind %q already registered", k.Name)
	}
	kind := k // copy
	kind.byName = make(map[string]*Field, len(kind.Fields))
	for i := range kind.Fields {
		f := &kind.Fields[i]
		if f.Name == "" || f.Name == store.IDField {
			return fmt.Errorf("entity: kind %q has invalid field name %q", k.Name, f.Name)
		}
		if _, dup := kind.byName[f.Name]; dup {
			return fmt.Errorf("entity: kind %q has duplicate field %q", k.Name, f.Name)
		}
		if (f.Type == Ref || f.Type == RefList) && f.RefKind == "" {
			return fmt.Errorf("entity: kind %q field %q: ref without RefKind", k.Name, f.Name)
		}
		kind.byName[f.Name] = f
	}
	rg.store.EnsureTable(kind.Name)
	for _, f := range kind.Fields {
		if f.Unique {
			if err := rg.store.CreateIndex(kind.Name, f.Name, true); err != nil && !errors.Is(err, store.ErrExists) {
				return err
			}
		} else if f.Indexed || f.Type == Ref {
			if err := rg.store.CreateIndex(kind.Name, f.Name, false); err != nil && !errors.Is(err, store.ErrExists) {
				return err
			}
		}
	}
	rg.kinds[kind.Name] = &kind
	return nil
}

// Kind returns the registered kind with the given name, or nil.
func (rg *Registry) Kind(name string) *Kind { return rg.kinds[name] }

// Kinds returns the sorted names of all registered kinds.
func (rg *Registry) Kinds() []string {
	out := make([]string, 0, len(rg.kinds))
	for n := range rg.kinds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// checkValue validates a single field value against its definition.
func checkValue(f *Field, v any) error {
	switch f.Type {
	case String, Text:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("field %q wants string, got %T: %w", f.Name, v, ErrWrongType)
		}
	case Int:
		if _, ok := v.(int64); !ok {
			return fmt.Errorf("field %q wants int64, got %T: %w", f.Name, v, ErrWrongType)
		}
	case Float:
		if _, ok := v.(float64); !ok {
			return fmt.Errorf("field %q wants float64, got %T: %w", f.Name, v, ErrWrongType)
		}
	case Bool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("field %q wants bool, got %T: %w", f.Name, v, ErrWrongType)
		}
	case Time:
		if _, ok := v.(time.Time); !ok {
			return fmt.Errorf("field %q wants time.Time, got %T: %w", f.Name, v, ErrWrongType)
		}
	case Ref:
		if _, ok := v.(int64); !ok {
			return fmt.Errorf("field %q wants int64 ref, got %T: %w", f.Name, v, ErrWrongType)
		}
	case RefList:
		if _, ok := v.([]int64); !ok {
			return fmt.Errorf("field %q wants []int64, got %T: %w", f.Name, v, ErrWrongType)
		}
	case StringList:
		if _, ok := v.([]string); !ok {
			return fmt.Errorf("field %q wants []string, got %T: %w", f.Name, v, ErrWrongType)
		}
	}
	return nil
}

func isZero(f *Field, v any) bool {
	switch f.Type {
	case String, Text:
		return v.(string) == ""
	case Int, Ref:
		return v.(int64) == 0
	case Float:
		return v.(float64) == 0
	case Bool:
		return false // a false bool is a legitimate value
	case Time:
		return v.(time.Time).IsZero()
	case RefList:
		return len(v.([]int64)) == 0
	case StringList:
		return len(v.([]string)) == 0
	}
	return false
}

// validate checks the full value map for kind k. On create, required fields
// must be present; on update only present fields are checked.
func (rg *Registry) validate(tx *store.Tx, k *Kind, values map[string]any, create bool) error {
	for name, v := range values {
		f := k.Field(name)
		if f == nil {
			return fmt.Errorf("kind %q: field %q: %w", k.Name, name, ErrUnknownField)
		}
		if err := checkValue(f, v); err != nil {
			return fmt.Errorf("kind %q: %w", k.Name, err)
		}
	}
	if create {
		for i := range k.Fields {
			f := &k.Fields[i]
			if !f.Required {
				continue
			}
			v, ok := values[f.Name]
			if !ok || isZero(f, v) {
				return fmt.Errorf("kind %q: field %q: %w", k.Name, f.Name, ErrRequired)
			}
		}
	}
	// Referential integrity.
	for name, v := range values {
		f := k.Field(name)
		switch f.Type {
		case Ref:
			id := v.(int64)
			if id != 0 && !tx.Exists(f.RefKind, id) {
				return fmt.Errorf("kind %q field %q -> %s/%d: %w", k.Name, name, f.RefKind, id, ErrDanglingRef)
			}
		case RefList:
			for _, id := range v.([]int64) {
				if id != 0 && !tx.Exists(f.RefKind, id) {
					return fmt.Errorf("kind %q field %q -> %s/%d: %w", k.Name, name, f.RefKind, id, ErrDanglingRef)
				}
			}
		}
	}
	return nil
}

// linkKey encodes an entity endpoint as "kind:id" for the link table.
func linkKey(kind string, id int64) string {
	return kind + ":" + strconv.FormatInt(id, 10)
}

// parseLinkKey splits "kind:id" back into its parts.
func parseLinkKey(key string) (kind string, id int64, ok bool) {
	i := strings.LastIndexByte(key, ':')
	if i < 0 {
		return "", 0, false
	}
	id, err := strconv.ParseInt(key[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return key[:i], id, true
}

// syncLinks rewrites the outgoing link records of entity (kind,id) to match
// its current reference fields.
func (rg *Registry) syncLinks(tx *store.Tx, k *Kind, id int64, values store.Record) error {
	if err := rg.dropLinks(tx, k.Name, id); err != nil {
		return err
	}
	from := linkKey(k.Name, id)
	// Recreate from the current state.
	for i := range k.Fields {
		f := &k.Fields[i]
		switch f.Type {
		case Ref:
			if tid := values.Int(f.Name); tid != 0 {
				if _, err := tx.Insert(linksTable, store.Record{
					"from": from, "to": linkKey(f.RefKind, tid), "field": f.Name,
				}); err != nil {
					return err
				}
			}
		case RefList:
			for _, tid := range values.IDs(f.Name) {
				if tid == 0 {
					continue
				}
				if _, err := tx.Insert(linksTable, store.Record{
					"from": from, "to": linkKey(f.RefKind, tid), "field": f.Name,
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// dropLinks removes all outgoing link records of entity (kind,id). The ids
// are drained before the first Delete: a Rows must not be open over a table
// the same transaction writes.
func (rg *Registry) dropLinks(tx *store.Tx, kind string, id int64) error {
	rows, err := tx.Query(store.Query{Table: linksTable, Where: []store.Pred{store.Eq("from", linkKey(kind, id))}})
	if err != nil {
		return err
	}
	ids, err := rows.IDs()
	if err != nil {
		return err
	}
	for _, lid := range ids {
		if err := tx.Delete(linksTable, lid); err != nil {
			return err
		}
	}
	return nil
}

// Create inserts a new entity of the given kind and returns its id. The
// actor is recorded in the published event.
func (rg *Registry) Create(tx *store.Tx, kind, actor string, values map[string]any) (int64, error) {
	k := rg.kinds[kind]
	if k == nil {
		return 0, fmt.Errorf("entity: %q: %w", kind, ErrUnknownKind)
	}
	if err := rg.validate(tx, k, values, true); err != nil {
		return 0, err
	}
	rec := make(store.Record, len(values)+2)
	for name, v := range values {
		rec[name] = v
	}
	rec["created"] = nowFunc()
	rec["modified"] = nowFunc()
	id, err := tx.Insert(kind, rec)
	if err != nil {
		return 0, err
	}
	if err := rg.syncLinks(tx, k, id, rec); err != nil {
		return 0, err
	}
	rg.publish(tx, kind+".created", kind, id, actor, values)
	return id, nil
}

// CreateBatch inserts one entity per value map, all of the given kind, and
// returns their ids in input order. The whole batch is validated, inserted
// and link-synced inside the caller's transaction, then published as ONE
// coalesced <kind>.created event carrying every (id, payload) item —
// subscribers fan in once per batch instead of once per entity, which is
// what keeps bulk registration's event cost O(1) per commit. Any failure
// aborts the batch with no event published; the caller's transaction
// rollback discards the partial writes.
func (rg *Registry) CreateBatch(tx *store.Tx, kind, actor string, values []map[string]any) ([]int64, error) {
	k := rg.kinds[kind]
	if k == nil {
		return nil, fmt.Errorf("entity: %q: %w", kind, ErrUnknownKind)
	}
	if len(values) == 0 {
		return nil, nil
	}
	now := nowFunc()
	ids := make([]int64, 0, len(values))
	items := make([]events.BatchItem, 0, len(values))
	for _, vals := range values {
		if err := rg.validate(tx, k, vals, true); err != nil {
			return nil, err
		}
		rec := make(store.Record, len(vals)+2)
		for name, v := range vals {
			rec[name] = v
		}
		rec["created"] = now
		rec["modified"] = now
		id, err := tx.Insert(kind, rec)
		if err != nil {
			return nil, err
		}
		if err := rg.syncLinks(tx, k, id, rec); err != nil {
			return nil, err
		}
		ids = append(ids, id)
		items = append(items, events.BatchItem{ID: id, Payload: vals})
	}
	if rg.bus != nil {
		rg.bus.Publish(events.Event{Topic: kind + ".created", Kind: kind, Actor: actor, Items: items, Tx: tx})
	}
	return ids, nil
}

// Update modifies the given fields of an existing entity, leaving other
// fields untouched.
func (rg *Registry) Update(tx *store.Tx, kind string, id int64, actor string, values map[string]any) error {
	k := rg.kinds[kind]
	if k == nil {
		return fmt.Errorf("entity: %q: %w", kind, ErrUnknownKind)
	}
	if err := rg.validate(tx, k, values, false); err != nil {
		return err
	}
	rec, err := tx.Get(kind, id)
	if err != nil {
		return err
	}
	for name, v := range values {
		rec[name] = v
	}
	rec["modified"] = nowFunc()
	if err := tx.Put(kind, id, rec); err != nil {
		return err
	}
	if err := rg.syncLinks(tx, k, id, rec); err != nil {
		return err
	}
	rg.publish(tx, kind+".updated", kind, id, actor, values)
	return nil
}

// UpdateCtx runs Update in its own optimistic transaction, retrying
// write conflicts with store.WithRetry. This is the right entry point
// when the caller holds no transaction and the target record is
// contended — concurrent annotators editing the same entity serialize by
// first-committer-wins instead of on the global writer mutex. Event
// subscribers fire once per attempt but write only through the attempt's
// transaction, so a rolled-back attempt leaks nothing.
func (rg *Registry) UpdateCtx(ctx context.Context, kind string, id int64, actor string, values map[string]any) error {
	return store.WithRetry(ctx, rg.store, func(tx *store.Tx) error {
		return rg.Update(tx, kind, id, actor, values)
	})
}

// Delete removes an entity. Deletion fails with ErrReferenced while other
// entities still link to it, preserving graph integrity.
func (rg *Registry) Delete(tx *store.Tx, kind string, id int64, actor string) error {
	k := rg.kinds[kind]
	if k == nil {
		return fmt.Errorf("entity: %q: %w", kind, ErrUnknownKind)
	}
	if !tx.Exists(kind, id) {
		return fmt.Errorf("entity: %s/%d: %w", kind, id, store.ErrNotFound)
	}
	inbound, err := tx.Query(store.Query{Table: linksTable, Where: []store.Pred{store.Eq("to", linkKey(kind, id))}, Limit: 1})
	if err != nil {
		return err
	}
	if inbound.Next() {
		return fmt.Errorf("entity: %s/%d referenced by %s: %w", kind, id, inbound.Record().String("from"), ErrReferenced)
	}
	if err := inbound.Err(); err != nil {
		return err
	}
	if err := rg.dropLinks(tx, kind, id); err != nil {
		return err
	}
	if err := tx.Delete(kind, id); err != nil {
		return err
	}
	rg.publish(tx, kind+".deleted", kind, id, actor, nil)
	return nil
}

// Get returns a copy of the entity record, which the caller may mutate.
func (rg *Registry) Get(tx *store.Tx, kind string, id int64) (store.Record, error) {
	if _, ok := rg.kinds[kind]; !ok {
		return nil, fmt.Errorf("entity: %q: %w", kind, ErrUnknownKind)
	}
	return tx.Get(kind, id)
}

// GetRef returns the stored, immutable entity row without copying it.
// Use it on read paths that only extract values.
func (rg *Registry) GetRef(tx *store.Tx, kind string, id int64) (store.Row, error) {
	if _, ok := rg.kinds[kind]; !ok {
		return store.Row{}, fmt.Errorf("entity: %q: %w", kind, ErrUnknownKind)
	}
	return tx.GetRef(kind, id)
}

func (rg *Registry) publish(tx *store.Tx, topic, kind string, id int64, actor string, values map[string]any) {
	if rg.bus == nil {
		return
	}
	rg.bus.Publish(events.Event{Topic: topic, Kind: kind, ID: id, Actor: actor, Payload: values, Tx: tx})
}

// nowFunc is replaceable for deterministic tests.
var nowFunc = func() time.Time { return time.Now().UTC() }
