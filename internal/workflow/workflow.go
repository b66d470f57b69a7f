// Package workflow implements the state-machine workflow engine that drives
// B-Fabric's guided processes: data imports (assign-extracts flow of
// Figure 10) and experiment executions (pending→ready flow of Figures
// 15–16). It stands in for the OSWorkflow engine used by the original
// system and supports the same model: named steps, actions with conditions
// and pre/post functions, automatic chaining, instance history, and a
// graphical (DOT) representation with the current step highlighted.
package workflow

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/store"
)

// Instance states.
const (
	// StateActive marks a running instance.
	StateActive = "active"
	// StateCompleted marks an instance that reached a terminal action.
	StateCompleted = "completed"
	// StateFailed marks an instance whose function raised an error.
	StateFailed = "failed"
)

// Finish is the reserved result value for actions that complete the
// workflow.
const Finish = -1

// Condition decides whether an action is currently available.
type Condition func(ctx *Context) (bool, error)

// Function is a pre- or post-function executed when an action fires.
type Function func(ctx *Context) error

// Action is a transition from one step to another (or to Finish).
type Action struct {
	// Name identifies the action within its step.
	Name string
	// Result is the id of the step to move to, or Finish.
	Result int
	// Auto actions fire automatically when their step is entered and
	// their condition passes.
	Auto bool
	// Condition gates the action; nil means always available.
	Condition string
	// PreFunctions run before the transition, in order.
	PreFunctions []string
	// PostFunctions run after the transition, in order.
	PostFunctions []string
}

// Step is one node of the workflow graph.
type Step struct {
	// ID is the step identifier, unique within the definition.
	ID int
	// Name is the human-readable step label shown in the portal.
	Name string
	// Actions are the transitions leaving this step.
	Actions []Action
}

// Definition is a complete workflow description.
type Definition struct {
	// Name identifies the definition ("data-import", "run-experiment").
	Name string
	// Initial is the id of the entry step.
	Initial int
	// Steps is the workflow graph.
	Steps []Step
}

func (d *Definition) step(id int) *Step {
	for i := range d.Steps {
		if d.Steps[i].ID == id {
			return &d.Steps[i]
		}
	}
	return nil
}

// Validate checks the structural sanity of a definition: non-empty name,
// existing initial step, unique step ids, action results pointing at
// existing steps, unique action names per step.
func (d *Definition) Validate() error {
	if d.Name == "" {
		return errors.New("workflow: empty definition name")
	}
	if len(d.Steps) == 0 {
		return fmt.Errorf("workflow %q: no steps", d.Name)
	}
	seen := make(map[int]bool)
	for _, s := range d.Steps {
		if seen[s.ID] {
			return fmt.Errorf("workflow %q: duplicate step id %d", d.Name, s.ID)
		}
		seen[s.ID] = true
		names := make(map[string]bool)
		for _, a := range s.Actions {
			if a.Name == "" {
				return fmt.Errorf("workflow %q step %d: unnamed action", d.Name, s.ID)
			}
			if names[a.Name] {
				return fmt.Errorf("workflow %q step %d: duplicate action %q", d.Name, s.ID, a.Name)
			}
			names[a.Name] = true
		}
	}
	if !seen[d.Initial] {
		return fmt.Errorf("workflow %q: initial step %d does not exist", d.Name, d.Initial)
	}
	for _, s := range d.Steps {
		for _, a := range s.Actions {
			if a.Result != Finish && !seen[a.Result] {
				return fmt.Errorf("workflow %q step %d action %q: result %d does not exist",
					d.Name, s.ID, a.Name, a.Result)
			}
		}
	}
	return nil
}

// Context is passed to conditions and functions when an action fires.
type Context struct {
	// Tx is the open transaction; functions may read and write through it.
	Tx *store.Tx
	// InstanceID identifies the running instance.
	InstanceID int64
	// Actor is the login firing the action.
	Actor string
	// Vars are the instance's mutable context variables. Changes made by
	// functions are persisted when the action completes.
	Vars map[string]string
}

// HistoryEntry records one fired action.
type HistoryEntry struct {
	ID       int64
	Instance int64
	Seq      int64
	Action   string
	FromStep int
	ToStep   int
	Actor    string
	Note     string
}

// Instance is a running (or finished) workflow.
type Instance struct {
	ID         int64
	Definition string
	Step       int
	State      string
	Vars       map[string]string
	// Error holds the failure message for failed instances.
	Error string
}

// Engine stores definitions, function registries and running instances.
type Engine struct {
	store      *store.Store
	defs       map[string]*Definition
	conditions map[string]Condition
	functions  map[string]Function
}

const (
	instTable = "workflow_instance"
	histTable = "workflow_history"
)

// Sentinel errors.
var (
	// ErrUnknownDefinition is returned for unregistered workflow names.
	ErrUnknownDefinition = errors.New("unknown workflow definition")
	// ErrUnknownAction is returned when firing an action the current step
	// does not offer.
	ErrUnknownAction = errors.New("unknown action")
	// ErrNotActive is returned when firing actions on finished instances.
	ErrNotActive = errors.New("workflow instance not active")
	// ErrConditionFalse is returned when an action's condition rejects it.
	ErrConditionFalse = errors.New("action condition not satisfied")
	// ErrUnknownFunction is returned when a definition references an
	// unregistered condition or function.
	ErrUnknownFunction = errors.New("unknown workflow function")
)

// NewEngine creates a workflow engine over the store.
func NewEngine(s *store.Store) *Engine {
	s.EnsureTable(instTable)
	s.EnsureTable(histTable)
	if !s.HasTable(instTable + "_marker") {
		_ = s.CreateIndex(instTable, "definition", false)
		_ = s.CreateIndex(instTable, "state", false)
		_ = s.CreateIndex(histTable, "instance", false)
		s.EnsureTable(instTable + "_marker")
	}
	return &Engine{
		store:      s,
		defs:       make(map[string]*Definition),
		conditions: make(map[string]Condition),
		functions:  make(map[string]Function),
	}
}

// RegisterDefinition validates and stores a workflow definition.
func (e *Engine) RegisterDefinition(d Definition) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if _, ok := e.defs[d.Name]; ok {
		return fmt.Errorf("workflow: definition %q already registered", d.Name)
	}
	// All referenced conditions/functions must exist up front, so failures
	// surface at registration rather than mid-instance.
	for _, s := range d.Steps {
		for _, a := range s.Actions {
			if a.Condition != "" {
				if _, ok := e.conditions[a.Condition]; !ok {
					return fmt.Errorf("workflow %q: condition %q: %w", d.Name, a.Condition, ErrUnknownFunction)
				}
			}
			for _, fn := range append(append([]string{}, a.PreFunctions...), a.PostFunctions...) {
				if _, ok := e.functions[fn]; !ok {
					return fmt.Errorf("workflow %q: function %q: %w", d.Name, fn, ErrUnknownFunction)
				}
			}
		}
	}
	def := d
	e.defs[d.Name] = &def
	return nil
}

// RegisterCondition names a condition usable by definitions.
func (e *Engine) RegisterCondition(name string, c Condition) {
	e.conditions[name] = c
}

// RegisterFunction names a pre/post function usable by definitions.
func (e *Engine) RegisterFunction(name string, f Function) {
	e.functions[name] = f
}

// Definition returns a registered definition, or nil.
func (e *Engine) Definition(name string) *Definition { return e.defs[name] }

// Definitions returns the sorted names of registered definitions.
func (e *Engine) Definitions() []string {
	out := make([]string, 0, len(e.defs))
	for n := range e.defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func instanceFromRecord(r store.Row) Instance {
	return Instance{
		ID:         r.ID(),
		Definition: r.String("definition"),
		Step:       int(r.Int("step")),
		State:      r.String("state"),
		Vars:       parseVars(r.Strings("vars")),
		Error:      r.String("error"),
	}
}

func parseVars(list []string) map[string]string {
	m := make(map[string]string, len(list))
	for _, kv := range list {
		if i := strings.IndexByte(kv, '='); i >= 0 {
			m[kv[:i]] = kv[i+1:]
		}
	}
	return m
}

func formatVars(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k + "=" + m[k]
	}
	return out
}

// Start creates a new instance of the named definition with the given
// initial context variables, then fires any eligible auto actions.
func (e *Engine) Start(tx *store.Tx, defName, actor string, vars map[string]string) (int64, error) {
	def, ok := e.defs[defName]
	if !ok {
		return 0, fmt.Errorf("workflow: %q: %w", defName, ErrUnknownDefinition)
	}
	if vars == nil {
		vars = map[string]string{}
	}
	id, err := tx.Insert(instTable, store.Record{
		"definition": defName,
		"step":       int64(def.Initial),
		"state":      StateActive,
		"vars":       formatVars(vars),
		"error":      "",
	})
	if err != nil {
		return 0, err
	}
	if err := e.appendHistory(tx, id, "(start)", 0, def.Initial, actor, ""); err != nil {
		return 0, err
	}
	if err := e.runAutoActions(tx, id, actor); err != nil {
		return 0, err
	}
	return id, nil
}

// Get returns the instance with the given id.
func (e *Engine) Get(tx *store.Tx, id int64) (Instance, error) {
	r, err := tx.GetRef(instTable, id)
	if err != nil {
		return Instance{}, err
	}
	return instanceFromRecord(r), nil
}

// AvailableActions returns the names of the current step's actions whose
// conditions pass, for an active instance.
func (e *Engine) AvailableActions(tx *store.Tx, id int64, actor string) ([]string, error) {
	inst, err := e.Get(tx, id)
	if err != nil {
		return nil, err
	}
	if inst.State != StateActive {
		return nil, nil
	}
	def, ok := e.defs[inst.Definition]
	if !ok {
		return nil, fmt.Errorf("workflow: %q: %w", inst.Definition, ErrUnknownDefinition)
	}
	step := def.step(inst.Step)
	if step == nil {
		return nil, fmt.Errorf("workflow: instance %d at missing step %d", id, inst.Step)
	}
	ctx := &Context{Tx: tx, InstanceID: id, Actor: actor, Vars: inst.Vars}
	var out []string
	for _, a := range step.Actions {
		ok, err := e.conditionPasses(a, ctx)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, a.Name)
		}
	}
	return out, nil
}

func (e *Engine) conditionPasses(a Action, ctx *Context) (bool, error) {
	if a.Condition == "" {
		return true, nil
	}
	cond, ok := e.conditions[a.Condition]
	if !ok {
		return false, fmt.Errorf("workflow: condition %q: %w", a.Condition, ErrUnknownFunction)
	}
	return cond(ctx)
}

// Fire executes the named action on an active instance: condition check,
// pre-functions, transition, post-functions, history append, then any auto
// actions of the new step. A function error marks the instance failed and
// is returned.
func (e *Engine) Fire(tx *store.Tx, id int64, action, actor string) error {
	if err := e.fireOne(tx, id, action, actor); err != nil {
		return err
	}
	return e.runAutoActions(tx, id, actor)
}

func (e *Engine) fireOne(tx *store.Tx, id int64, action, actor string) error {
	ref, err := tx.GetRef(instTable, id)
	if err != nil {
		return err
	}
	inst, r := instanceFromRecord(ref), ref.Record()
	if inst.State != StateActive {
		return fmt.Errorf("workflow: instance %d is %q: %w", id, inst.State, ErrNotActive)
	}
	def, ok := e.defs[inst.Definition]
	if !ok {
		return fmt.Errorf("workflow: %q: %w", inst.Definition, ErrUnknownDefinition)
	}
	step := def.step(inst.Step)
	if step == nil {
		return fmt.Errorf("workflow: instance %d at missing step %d", id, inst.Step)
	}
	var act *Action
	for i := range step.Actions {
		if step.Actions[i].Name == action {
			act = &step.Actions[i]
			break
		}
	}
	if act == nil {
		return fmt.Errorf("workflow: step %q has no action %q: %w", step.Name, action, ErrUnknownAction)
	}
	ctx := &Context{Tx: tx, InstanceID: id, Actor: actor, Vars: inst.Vars}
	pass, err := e.conditionPasses(*act, ctx)
	if err != nil {
		return err
	}
	if !pass {
		return fmt.Errorf("workflow: action %q: %w", action, ErrConditionFalse)
	}
	fail := func(cause error) error {
		r["state"] = StateFailed
		r["error"] = cause.Error()
		r["vars"] = formatVars(ctx.Vars)
		if putErr := tx.Put(instTable, id, r); putErr != nil {
			return putErr
		}
		_ = e.appendHistory(tx, id, act.Name, inst.Step, inst.Step, actor, "FAILED: "+cause.Error())
		return cause
	}
	for _, fn := range act.PreFunctions {
		if err := e.functions[fn](ctx); err != nil {
			return fail(fmt.Errorf("pre-function %q: %w", fn, err))
		}
	}
	toStep := act.Result
	if toStep == Finish {
		r["state"] = StateCompleted
	} else {
		r["step"] = int64(toStep)
	}
	r["vars"] = formatVars(ctx.Vars)
	if err := tx.Put(instTable, id, r); err != nil {
		return err
	}
	for _, fn := range act.PostFunctions {
		if err := e.functions[fn](ctx); err != nil {
			return fail(fmt.Errorf("post-function %q: %w", fn, err))
		}
	}
	// Post-functions may have mutated vars; persist the final state.
	r["vars"] = formatVars(ctx.Vars)
	if err := tx.Put(instTable, id, r); err != nil {
		return err
	}
	return e.appendHistory(tx, id, act.Name, inst.Step, toStep, actor, "")
}

// runAutoActions fires eligible auto actions until none remain, guarding
// against definition cycles with a step budget.
func (e *Engine) runAutoActions(tx *store.Tx, id int64, actor string) error {
	const budget = 64
	for i := 0; i < budget; i++ {
		inst, err := e.Get(tx, id)
		if err != nil {
			return err
		}
		if inst.State != StateActive {
			return nil
		}
		def := e.defs[inst.Definition]
		step := def.step(inst.Step)
		if step == nil {
			return fmt.Errorf("workflow: instance %d at missing step %d", id, inst.Step)
		}
		fired := false
		ctx := &Context{Tx: tx, InstanceID: id, Actor: actor, Vars: inst.Vars}
		for _, a := range step.Actions {
			if !a.Auto {
				continue
			}
			ok, err := e.conditionPasses(a, ctx)
			if err != nil {
				return err
			}
			if ok {
				if err := e.fireOne(tx, id, a.Name, actor); err != nil {
					return err
				}
				fired = true
				break
			}
		}
		if !fired {
			return nil
		}
	}
	return fmt.Errorf("workflow: instance %d exceeded auto-action budget", id)
}

// SetVar updates one context variable of an active instance.
func (e *Engine) SetVar(tx *store.Tx, id int64, key, value string) error {
	r, err := tx.Get(instTable, id)
	if err != nil {
		return err
	}
	vars := parseVars(r.Strings("vars"))
	vars[key] = value
	r["vars"] = formatVars(vars)
	return tx.Put(instTable, id, r)
}

func (e *Engine) appendHistory(tx *store.Tx, inst int64, action string, from, to int, actor, note string) error {
	existing, err := tx.QueryCount(store.Query{Table: histTable, Where: []store.Pred{store.Eq("instance", inst)}})
	if err != nil {
		return err
	}
	_, err = tx.Insert(histTable, store.Record{
		"instance": inst,
		"seq":      int64(existing + 1),
		"action":   action,
		"from":     int64(from),
		"to":       int64(to),
		"actor":    actor,
		"note":     note,
	})
	return err
}

// History returns the fired actions of an instance in sequence order.
func (e *Engine) History(tx *store.Tx, id int64) ([]HistoryEntry, error) {
	rows, err := tx.Query(store.Query{Table: histTable, Where: []store.Pred{store.Eq("instance", id)}})
	if err != nil {
		return nil, err
	}
	out := []HistoryEntry{} // non-nil: encoded as [] when empty
	for rows.Next() {
		r := rows.Record()
		out = append(out, HistoryEntry{
			ID: r.ID(), Instance: r.Int("instance"), Seq: r.Int("seq"),
			Action: r.String("action"), FromStep: int(r.Int("from")),
			ToStep: int(r.Int("to")), Actor: r.String("actor"),
			Note: r.String("note"),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, rows.Err()
}

// ActiveInstances returns the ids of all active instances, for the admin
// workflow-management screens.
func (e *Engine) ActiveInstances(tx *store.Tx) ([]int64, error) {
	return instancesIn(tx, StateActive)
}

// FailedInstances returns the ids of failed instances, for the admin error
// management screen.
func (e *Engine) FailedInstances(tx *store.Tx) ([]int64, error) {
	return instancesIn(tx, StateFailed)
}

func instancesIn(tx *store.Tx, state string) ([]int64, error) {
	rows, err := tx.Query(store.Query{Table: instTable, Where: []store.Pred{store.Eq("state", state)}})
	if err != nil {
		return nil, err
	}
	return rows.IDs()
}
