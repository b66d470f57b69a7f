// Package tasks implements B-Fabric's task orientation (Figure 8): the
// system reminds users about open tasks awaiting their action. Tasks are
// created either explicitly or automatically from system events — e.g. a
// newly created pending annotation spawns a "release annotation" task on
// the expert's task list.
package tasks

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/events"
	"repro/internal/store"
)

// Task states.
const (
	// StateOpen marks a task awaiting action.
	StateOpen = "open"
	// StateDone marks a completed task.
	StateDone = "done"
	// StateCancelled marks a task made obsolete (e.g. by a merge that
	// removed the annotation awaiting review).
	StateCancelled = "cancelled"
)

// Well-known task types.
const (
	// TypeReleaseAnnotation asks an expert to review a pending term.
	TypeReleaseAnnotation = "release_annotation"
	// TypeAssignExtracts asks a scientist to assign extracts to freshly
	// imported data resources.
	TypeAssignExtracts = "assign_extracts"
	// TypeReviewError asks an administrator to inspect a failed workflow.
	TypeReviewError = "review_error"
)

const tasksTable = "task"

// Task is one open-item entry on a user's (or role's) task list.
type Task struct {
	ID          int64
	Type        string
	Title       string
	Description string
	// AssigneeRole targets every user holding a role (e.g. "expert").
	AssigneeRole string
	// AssigneeLogin targets one user specifically.
	AssigneeLogin string
	// Kind/Ref point at the object the task concerns.
	Kind  string
	Ref   int64
	State string
	// DoneBy is the login of whoever completed/cancelled the task.
	DoneBy string
}

// ErrTaskClosed is returned when completing a task that is not open.
var ErrTaskClosed = errors.New("task is not open")

// Engine stores tasks and derives them from bus events.
type Engine struct {
	store *store.Store
}

// New creates a task engine over the store and, if bus is non-nil, wires
// the automatic task derivation rules:
//
//   - annotation.created (pending) → release_annotation task for experts
//   - annotation.released / annotation.merged → matching review tasks close
func New(s *store.Store, bus *events.Bus) *Engine {
	s.EnsureTable(tasksTable)
	if !s.HasTable(tasksTable + "_marker") {
		_ = s.CreateIndex(tasksTable, "state", false)
		_ = s.CreateIndex(tasksTable, "assignee_role", false)
		_ = s.CreateIndex(tasksTable, "assignee_login", false)
		_ = s.CreateIndex(tasksTable, "refkey", false)
		s.EnsureTable(tasksTable + "_marker")
	}
	e := &Engine{store: s}
	if bus != nil {
		bus.Subscribe("annotation.created", e.onAnnotationCreated)
		bus.Subscribe("annotation.released", e.onAnnotationResolved)
		bus.Subscribe("annotation.merged", e.onAnnotationResolved)
	}
	return e
}

func refKey(kind string, ref int64) string { return kind + ":" + strconv.FormatInt(ref, 10) }

func taskFromRecord(r store.Row) Task {
	return Task{
		ID:            r.ID(),
		Type:          r.String("type"),
		Title:         r.String("title"),
		Description:   r.String("description"),
		AssigneeRole:  r.String("assignee_role"),
		AssigneeLogin: r.String("assignee_login"),
		Kind:          r.String("kind"),
		Ref:           r.Int("ref"),
		State:         r.String("state"),
		DoneBy:        r.String("done_by"),
	}
}

// Create adds a task inside the caller's transaction and returns its id.
func (e *Engine) Create(tx *store.Tx, t Task) (int64, error) {
	if t.Title == "" {
		return 0, fmt.Errorf("tasks: empty title")
	}
	if t.AssigneeRole == "" && t.AssigneeLogin == "" {
		return 0, fmt.Errorf("tasks: task %q has no assignee", t.Title)
	}
	state := t.State
	if state == "" {
		state = StateOpen
	}
	return tx.Insert(tasksTable, store.Record{
		"type":           t.Type,
		"title":          t.Title,
		"description":    t.Description,
		"assignee_role":  t.AssigneeRole,
		"assignee_login": t.AssigneeLogin,
		"kind":           t.Kind,
		"ref":            t.Ref,
		"refkey":         refKey(t.Kind, t.Ref),
		"state":          state,
		"done_by":        t.DoneBy,
	})
}

// Get returns the task with the given id.
func (e *Engine) Get(tx *store.Tx, id int64) (Task, error) {
	r, err := tx.GetRef(tasksTable, id)
	if err != nil {
		return Task{}, err
	}
	return taskFromRecord(r), nil
}

// Complete marks an open task done.
func (e *Engine) Complete(tx *store.Tx, actor string, id int64) error {
	return e.close(tx, actor, id, StateDone)
}

// Cancel marks an open task cancelled.
func (e *Engine) Cancel(tx *store.Tx, actor string, id int64) error {
	return e.close(tx, actor, id, StateCancelled)
}

// CompleteCtx marks an open task done in its own optimistic transaction,
// retrying write conflicts with store.WithRetry. Task completion is a
// classic contended read-modify-write — two users clearing the same
// shared role queue race on the same records — and the first committer
// wins; the loser retries on a fresh snapshot and then observes the task
// already closed (ErrTaskClosed), which callers should treat as "someone
// beat you to it", not a failure of the system.
func (e *Engine) CompleteCtx(ctx context.Context, actor string, id int64) error {
	return store.WithRetry(ctx, e.store, func(tx *store.Tx) error {
		return e.close(tx, actor, id, StateDone)
	})
}

// CancelCtx is CompleteCtx's counterpart for cancellation.
func (e *Engine) CancelCtx(ctx context.Context, actor string, id int64) error {
	return store.WithRetry(ctx, e.store, func(tx *store.Tx) error {
		return e.close(tx, actor, id, StateCancelled)
	})
}

func (e *Engine) close(tx *store.Tx, actor string, id int64, state string) error {
	r, err := tx.Get(tasksTable, id)
	if err != nil {
		return err
	}
	if r.String("state") != StateOpen {
		return fmt.Errorf("tasks: task %d is %q: %w", id, r.String("state"), ErrTaskClosed)
	}
	r["state"] = state
	r["done_by"] = actor
	return tx.Put(tasksTable, id, r)
}

// ListOpen returns the open tasks visible to a user: those assigned to the
// login directly plus those assigned to any of the user's roles, in id
// order. This is the task list screen of Figure 8.
//
// Each leg is one planned store query; the planner drives from whichever
// index — open-state or assignee — has the smaller postings list and
// filters the other predicate per row, so a system with few open tasks
// pays for the open set, not for the user's task history.
func (e *Engine) ListOpen(tx *store.Tx, login string, roles ...string) ([]Task, error) {
	seen := make(map[int64]bool)
	var out []Task
	collect := func(assignee store.Pred) error {
		rows, err := tx.Query(store.Query{
			Table: tasksTable,
			Where: []store.Pred{store.Eq("state", StateOpen), assignee},
		})
		if err != nil {
			return err
		}
		for rows.Next() {
			if id := rows.ID(); !seen[id] {
				seen[id] = true
				out = append(out, taskFromRecord(rows.Record()))
			}
		}
		return rows.Err()
	}
	if login != "" {
		if err := collect(store.Eq("assignee_login", login)); err != nil {
			return nil, err
		}
	}
	if len(roles) > 0 {
		vals := make([]any, len(roles))
		for i, role := range roles {
			vals[i] = role
		}
		if err := collect(store.Pred{Field: "assignee_role", Op: store.OpIn, Values: vals}); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(out, func(a, b Task) int { return cmp.Compare(a.ID, b.ID) })
	return out, nil
}

// OpenForObject returns the open tasks referring to the given object.
func (e *Engine) OpenForObject(tx *store.Tx, kind string, ref int64) ([]Task, error) {
	rows, err := tx.Query(store.Query{
		Table: tasksTable,
		Where: []store.Pred{store.Eq("refkey", refKey(kind, ref)), store.Eq("state", StateOpen)},
	})
	if err != nil {
		return nil, err
	}
	var out []Task
	for rows.Next() {
		out = append(out, taskFromRecord(rows.Record()))
	}
	return out, rows.Err()
}

// CountOpen returns the number of open tasks in the system. The count is
// answered from the state index's postings length (the planner's
// count(postings) strategy) — no id slice is materialized.
func (e *Engine) CountOpen(tx *store.Tx) (int, error) {
	return tx.QueryCount(store.Query{
		Table: tasksTable,
		Where: []store.Pred{store.Eq("state", StateOpen)},
	})
}

// Summary is the task-queue health snapshot the portal's operations view
// renders: how many tasks sit in each state, and how the open backlog
// splits across role queues.
type Summary struct {
	ByState    map[string]int `json:"by_state"`
	OpenByRole map[string]int `json:"open_by_role"`
	Total      int            `json:"total"`
}

// Summarize computes the snapshot from maintained counters: the state
// histogram walks the state index's distinct keys, the per-role open
// backlog folds the open postings through the assignee_role residual,
// and the total is the table's live count — no task record's full task
// list is ever built.
func (e *Engine) Summarize(tx *store.Tx) (Summary, error) {
	s := Summary{
		ByState:    map[string]int{},
		OpenByRole: map[string]int{},
		Total:      tx.Count(tasksTable),
	}
	states, err := tx.Aggregate(store.Query{Table: tasksTable}.GroupBy("state"))
	if err != nil {
		return s, err
	}
	for _, g := range states.Groups {
		if state, ok := g.Key.(string); ok {
			s.ByState[state] = g.Count()
		}
	}
	roles, err := tx.Aggregate(store.Query{
		Table: tasksTable,
		Where: []store.Pred{store.Eq("state", StateOpen)},
	}.GroupBy("assignee_role"))
	if err != nil {
		return s, err
	}
	for _, g := range roles.Groups {
		if role, ok := g.Key.(string); ok && role != "" {
			s.OpenByRole[role] = g.Count()
		}
	}
	return s, nil
}

// --- event-driven derivation ------------------------------------------------

func (e *Engine) onAnnotationCreated(ev events.Event) error {
	tx, ok := ev.Tx.(*store.Tx)
	if !ok {
		return fmt.Errorf("tasks: annotation.created without transaction")
	}
	if state, _ := ev.Payload["state"].(string); state != "pending" {
		return nil // released terms need no review
	}
	value, _ := ev.Payload["value"].(string)
	vocabulary, _ := ev.Payload["vocabulary"].(string)
	_, err := e.Create(tx, Task{
		Type:         TypeReleaseAnnotation,
		Title:        fmt.Sprintf("Release annotation %q (%s)", value, vocabulary),
		Description:  fmt.Sprintf("User %s created annotation %q in vocabulary %s; review and release it.", ev.Actor, value, vocabulary),
		AssigneeRole: "expert",
		Kind:         ev.Kind,
		Ref:          ev.ID,
	})
	return err
}

// onAnnotationResolved closes review tasks when the term is released or
// merged away.
func (e *Engine) onAnnotationResolved(ev events.Event) error {
	tx, ok := ev.Tx.(*store.Tx)
	if !ok {
		return fmt.Errorf("tasks: %s without transaction", ev.Topic)
	}
	refs := []int64{ev.ID}
	// A merge removes the losing term; its review task must close too.
	if droppedID, ok := ev.Payload["dropped_id"].(int64); ok {
		refs = append(refs, droppedID)
	}
	for _, ref := range refs {
		open, err := e.OpenForObject(tx, ev.Kind, ref)
		if err != nil {
			return err
		}
		for _, t := range open {
			if t.Type != TypeReleaseAnnotation {
				continue
			}
			if err := e.Complete(tx, ev.Actor, t.ID); err != nil {
				return err
			}
		}
	}
	return nil
}
