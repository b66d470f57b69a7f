package model

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/entity"
	"repro/internal/store"
)

// DB is the typed repository over the entity registry. All methods take the
// caller's transaction so that service-level operations (imports, merges,
// experiment runs) stay atomic.
//
// Listing methods are expressed as declarative store queries: the store's
// planner picks the access path (index postings, unique lookup, ordered
// scan) and the typed conversion streams over the zero-copy iterator.
type DB struct {
	rg *entity.Registry
}

// listQuery streams a query's rows through a record converter.
func listQuery[T any](tx *store.Tx, q store.Query, conv func(store.Row) T) ([]T, error) {
	rows, err := tx.Query(q)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, 8)
	for rows.Next() {
		out = append(out, conv(rows.Record()))
	}
	return out, rows.Err()
}

// idsInProject returns the ids of the kind's records that belong to the
// project, in id order — the foreign-key batch of a two-step listing.
func idsInProject(tx *store.Tx, kind string, project int64) ([]int64, error) {
	rows, err := tx.Query(store.Query{Table: kind, Where: []store.Pred{store.Eq("project", project)}})
	if err != nil {
		return nil, err
	}
	return rows.IDs()
}

// NewDB wraps an entity registry whose schema has been registered with
// RegisterSchema.
func NewDB(rg *entity.Registry) *DB { return &DB{rg: rg} }

// Registry exposes the underlying entity registry.
func (db *DB) Registry() *entity.Registry { return db.rg }

// Store exposes the underlying record store.
func (db *DB) Store() *store.Store { return db.rg.Store() }

// --- organizations / institutes / users ---------------------------------

// CreateOrganization registers an organization.
func (db *DB) CreateOrganization(tx *store.Tx, actor string, o Organization) (int64, error) {
	return db.rg.Create(tx, KindOrganization, actor, map[string]any{
		"name": o.Name, "country": o.Country,
	})
}

// GetOrganization fetches an organization by id.
func (db *DB) GetOrganization(tx *store.Tx, id int64) (Organization, error) {
	r, err := db.rg.GetRef(tx, KindOrganization, id)
	if err != nil {
		return Organization{}, err
	}
	return organizationFromRecord(r), nil
}

// CreateInstitute registers an institute within an organization.
func (db *DB) CreateInstitute(tx *store.Tx, actor string, in Institute) (int64, error) {
	return db.rg.Create(tx, KindInstitute, actor, map[string]any{
		"name": in.Name, "organization": in.Organization,
	})
}

// GetInstitute fetches an institute by id.
func (db *DB) GetInstitute(tx *store.Tx, id int64) (Institute, error) {
	r, err := db.rg.GetRef(tx, KindInstitute, id)
	if err != nil {
		return Institute{}, err
	}
	return instituteFromRecord(r), nil
}

// CreateUser registers a user.
func (db *DB) CreateUser(tx *store.Tx, actor string, u User) (int64, error) {
	role := u.Role
	if role == "" {
		role = RoleScientist
	}
	return db.rg.Create(tx, KindUser, actor, map[string]any{
		"login": u.Login, "fullname": u.FullName, "email": u.Email,
		"institute": u.Institute, "role": role, "active": u.Active,
	})
}

// GetUser fetches a user by id.
func (db *DB) GetUser(tx *store.Tx, id int64) (User, error) {
	r, err := db.rg.GetRef(tx, KindUser, id)
	if err != nil {
		return User{}, err
	}
	return userFromRecord(r), nil
}

// UserByLogin fetches a user by login name.
func (db *DB) UserByLogin(tx *store.Tx, login string) (User, error) {
	us, err := listQuery(tx, store.Query{Table: KindUser, Where: []store.Pred{store.Eq("login", login)}, Limit: 1}, userFromRecord)
	if err != nil {
		return User{}, err
	}
	if len(us) == 0 {
		return User{}, fmt.Errorf("model: user %q: %w", login, store.ErrNotFound)
	}
	return us[0], nil
}

// UsersByRole returns all users holding the given role, in id order.
func (db *DB) UsersByRole(tx *store.Tx, role string) ([]User, error) {
	return listQuery(tx, store.Query{
		Table: KindUser,
		Where: []store.Pred{store.Eq("role", role)},
	}, userFromRecord)
}

// ActiveUsersByRole returns the active users holding the given role, in id
// order — the population a task list fans out to. The role index drives;
// the active flag is a pushed-down residual.
func (db *DB) ActiveUsersByRole(tx *store.Tx, role string) ([]User, error) {
	return listQuery(tx, store.Query{
		Table: KindUser,
		Where: []store.Pred{store.Eq("role", role), store.Eq("active", true)},
	}, userFromRecord)
}

// --- projects ------------------------------------------------------------

// CreateProject registers a project.
func (db *DB) CreateProject(tx *store.Tx, actor string, p Project) (int64, error) {
	return db.rg.Create(tx, KindProject, actor, map[string]any{
		"name": p.Name, "description": p.Description, "coach": p.Coach,
		"members": p.Members, "institute": p.Institute, "area": p.Area,
	})
}

// GetProject fetches a project by id.
func (db *DB) GetProject(tx *store.Tx, id int64) (Project, error) {
	r, err := db.rg.GetRef(tx, KindProject, id)
	if err != nil {
		return Project{}, err
	}
	return projectFromRecord(r), nil
}

// ProjectMembers returns the member user ids of a project, including the
// coach.
func (db *DB) ProjectMembers(tx *store.Tx, id int64) ([]int64, error) {
	p, err := db.GetProject(tx, id)
	if err != nil {
		return nil, err
	}
	out := append([]int64{}, p.Members...)
	if p.Coach != 0 && !slices.Contains(out, p.Coach) {
		out = append(out, p.Coach)
	}
	return out, nil
}

// --- samples ---------------------------------------------------------------

// CreateSample registers a sample (Figure 2).
func (db *DB) CreateSample(tx *store.Tx, actor string, s Sample) (int64, error) {
	return db.rg.Create(tx, KindSample, actor, s.values())
}

// GetSample fetches a sample by id.
func (db *DB) GetSample(tx *store.Tx, id int64) (Sample, error) {
	r, err := db.rg.GetRef(tx, KindSample, id)
	if err != nil {
		return Sample{}, err
	}
	return sampleFromRecord(r), nil
}

// UpdateSample applies the given field changes to a sample.
func (db *DB) UpdateSample(tx *store.Tx, actor string, id int64, changes map[string]any) error {
	return db.rg.Update(tx, KindSample, id, actor, changes)
}

// UpdateSampleCtx applies sample changes in an optimistic transaction of
// its own, retrying conflicts with store.WithRetry — the portal's entry
// point, where two annotators editing the same sample should race by
// first-committer-wins, not queue on the writer mutex.
func (db *DB) UpdateSampleCtx(ctx context.Context, actor string, id int64, changes map[string]any) error {
	return store.WithRetry(ctx, db.Store(), func(tx *store.Tx) error {
		return db.UpdateSample(tx, actor, id, changes)
	})
}

// CloneSample registers a copy of the sample with a new name, preserving
// all annotations — the cloning support of Figure 2's registration flow.
func (db *DB) CloneSample(tx *store.Tx, actor string, id int64, newName string) (int64, error) {
	s, err := db.GetSample(tx, id)
	if err != nil {
		return 0, err
	}
	s.Name = newName
	return db.CreateSample(tx, actor, s)
}

// BatchCreateSamples registers n samples named "<prefix>_1".."<prefix>_n"
// sharing the template's annotations — batch registration per the paper.
// The whole batch is one entity-layer call: one coalesced sample.created
// event instead of n, so audit and search fan in once per batch.
func (db *DB) BatchCreateSamples(tx *store.Tx, actor string, template Sample, prefix string, n int) ([]int64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("model: batch size %d", n)
	}
	values := make([]map[string]any, 0, n)
	for i := 1; i <= n; i++ {
		s := template
		s.Name = fmt.Sprintf("%s_%d", prefix, i)
		values = append(values, s.values())
	}
	return db.rg.CreateBatch(tx, KindSample, actor, values)
}

// SamplesOfProject returns every sample of the project in id order. This is
// the query that scopes drop-down menus to the user's project.
func (db *DB) SamplesOfProject(tx *store.Tx, project int64) ([]Sample, error) {
	return listQuery(tx, store.Query{
		Table: KindSample,
		Where: []store.Pred{store.Eq("project", project)},
	}, sampleFromRecord)
}

// SamplesOfProjectBySpecies returns the project's samples annotated with
// the given species, in id order — the project-scoped drop-down narrowed
// by an annotation. The planner drives from whichever index (project or
// species) is more selective and filters the other predicate per row.
func (db *DB) SamplesOfProjectBySpecies(tx *store.Tx, project int64, species string) ([]Sample, error) {
	return listQuery(tx, store.Query{
		Table: KindSample,
		Where: []store.Pred{store.Eq("project", project), store.Eq("species", species)},
	}, sampleFromRecord)
}

// --- extracts ---------------------------------------------------------------

// CreateExtract registers an extract (Figure 3).
func (db *DB) CreateExtract(tx *store.Tx, actor string, e Extract) (int64, error) {
	return db.rg.Create(tx, KindExtract, actor, e.values())
}

// GetExtract fetches an extract by id.
func (db *DB) GetExtract(tx *store.Tx, id int64) (Extract, error) {
	r, err := db.rg.GetRef(tx, KindExtract, id)
	if err != nil {
		return Extract{}, err
	}
	return extractFromRecord(r), nil
}

// CloneExtract registers a copy of an extract under a new name.
func (db *DB) CloneExtract(tx *store.Tx, actor string, id int64, newName string) (int64, error) {
	e, err := db.GetExtract(tx, id)
	if err != nil {
		return 0, err
	}
	e.Name = newName
	return db.CreateExtract(tx, actor, e)
}

// BatchCreateExtracts registers n extracts from a template as one
// entity-layer batch: one coalesced extract.created event instead of n.
func (db *DB) BatchCreateExtracts(tx *store.Tx, actor string, template Extract, prefix string, n int) ([]int64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("model: batch size %d", n)
	}
	values := make([]map[string]any, 0, n)
	for i := 1; i <= n; i++ {
		e := template
		e.Name = fmt.Sprintf("%s_%d", prefix, i)
		values = append(values, e.values())
	}
	return db.rg.CreateBatch(tx, KindExtract, actor, values)
}

// ExtractsOfSample returns the extracts derived from a sample.
func (db *DB) ExtractsOfSample(tx *store.Tx, sample int64) ([]Extract, error) {
	return listQuery(tx, store.Query{
		Table: KindExtract,
		Where: []store.Pred{store.Eq("sample", sample)},
	}, extractFromRecord)
}

// ExtractsOfProject returns every extract whose sample belongs to the
// project, in extract id order — the scoped drop-down for the
// assign-extracts step. The two-step shape (project's sample ids, then
// one In query over the extract sample index) replaces the former
// per-sample query loop: one planned union instead of N point listings,
// and the result comes back in a single global id order.
func (db *DB) ExtractsOfProject(tx *store.Tx, project int64) ([]Extract, error) {
	sampleIDs, err := idsInProject(tx, KindSample, project)
	if err != nil {
		return nil, err
	}
	return listQuery(tx, store.Query{
		Table: KindExtract,
		Where: []store.Pred{store.InIDs("sample", sampleIDs)},
	}, extractFromRecord)
}

// --- workunits & data resources ---------------------------------------------

// CreateWorkunit registers a workunit container.
func (db *DB) CreateWorkunit(tx *store.Tx, actor string, w Workunit) (int64, error) {
	state := w.State
	if state == "" {
		state = WorkunitPending
	}
	return db.rg.Create(tx, KindWorkunit, actor, map[string]any{
		"name": w.Name, "project": w.Project, "owner": w.Owner,
		"application": w.Application, "description": w.Description,
		"state": state, "parameters": FormatKV(w.Parameters),
	})
}

// GetWorkunit fetches a workunit by id.
func (db *DB) GetWorkunit(tx *store.Tx, id int64) (Workunit, error) {
	r, err := db.rg.GetRef(tx, KindWorkunit, id)
	if err != nil {
		return Workunit{}, err
	}
	return workunitFromRecord(r), nil
}

// SetWorkunitState transitions a workunit's lifecycle state.
func (db *DB) SetWorkunitState(tx *store.Tx, actor string, id int64, state string) error {
	switch state {
	case WorkunitPending, WorkunitProcessing, WorkunitReady, WorkunitFailed:
	default:
		return fmt.Errorf("model: invalid workunit state %q", state)
	}
	return db.rg.Update(tx, KindWorkunit, id, actor, map[string]any{"state": state})
}

// SetWorkunitStateCtx transitions a workunit's state in an optimistic
// transaction of its own, retrying conflicts with store.WithRetry. State
// transitions are the most contended workunit write — the executor marks
// ready while operators annotate — so they use first-committer-wins
// rather than the serializing Update path.
func (db *DB) SetWorkunitStateCtx(ctx context.Context, actor string, id int64, state string) error {
	return store.WithRetry(ctx, db.Store(), func(tx *store.Tx) error {
		return db.SetWorkunitState(tx, actor, id, state)
	})
}

// WorkunitsOfProject returns the project's workunits in id order,
// optionally narrowed to one lifecycle state ("" = all states). The
// planner drives from the more selective of the project and state
// indexes.
func (db *DB) WorkunitsOfProject(tx *store.Tx, project int64, state string) ([]Workunit, error) {
	where := []store.Pred{store.Eq("project", project)}
	if state != "" {
		where = append(where, store.Eq("state", state))
	}
	return listQuery(tx, store.Query{Table: KindWorkunit, Where: where}, workunitFromRecord)
}

func dataResourceValues(d DataResource) map[string]any {
	return map[string]any{
		"name": d.Name, "workunit": d.Workunit, "extract": d.Extract,
		"uri": d.URI, "size_bytes": d.SizeBytes, "checksum": d.Checksum,
		"format": d.Format, "is_input": d.IsInput, "linked": d.Linked,
		"content": d.Content,
	}
}

// CreateDataResource registers a data resource inside a workunit.
func (db *DB) CreateDataResource(tx *store.Tx, actor string, d DataResource) (int64, error) {
	return db.rg.Create(tx, KindDataResource, actor, dataResourceValues(d))
}

// BatchCreateDataResources registers the given data resources as one
// entity-layer batch — the bulk-import shape: one coalesced
// dataresource.created event however many files arrive, so audit and the
// search indexer fan in once per import instead of once per file.
func (db *DB) BatchCreateDataResources(tx *store.Tx, actor string, ds []DataResource) ([]int64, error) {
	values := make([]map[string]any, len(ds))
	for i, d := range ds {
		values[i] = dataResourceValues(d)
	}
	return db.rg.CreateBatch(tx, KindDataResource, actor, values)
}

// GetDataResource fetches a data resource by id.
func (db *DB) GetDataResource(tx *store.Tx, id int64) (DataResource, error) {
	r, err := db.rg.GetRef(tx, KindDataResource, id)
	if err != nil {
		return DataResource{}, err
	}
	return dataResourceFromRecord(r), nil
}

// AssignExtract connects a data resource to the extract that was the
// biological input of the measurement producing it (Figure 11).
func (db *DB) AssignExtract(tx *store.Tx, actor string, resource, extract int64) error {
	return db.rg.Update(tx, KindDataResource, resource, actor, map[string]any{"extract": extract})
}

// ResourcesOfWorkunit returns the data resources contained in a workunit.
func (db *DB) ResourcesOfWorkunit(tx *store.Tx, workunit int64) ([]DataResource, error) {
	return listQuery(tx, store.Query{
		Table: KindDataResource,
		Where: []store.Pred{store.Eq("workunit", workunit)},
	}, dataResourceFromRecord)
}

// ResourcesOfWorkunitByFormat returns the workunit's data resources in
// the given file format, in id order — the listing behind format-scoped
// result downloads.
func (db *DB) ResourcesOfWorkunitByFormat(tx *store.Tx, workunit int64, format string) ([]DataResource, error) {
	return listQuery(tx, store.Query{
		Table: KindDataResource,
		Where: []store.Pred{store.Eq("workunit", workunit), store.Eq("format", format)},
	}, dataResourceFromRecord)
}

// --- applications & experiments ----------------------------------------------

// CreateApplication registers an application (Figure 12).
func (db *DB) CreateApplication(tx *store.Tx, actor string, a Application) (int64, error) {
	return db.rg.Create(tx, KindApplication, actor, map[string]any{
		"name": a.Name, "description": a.Description,
		"connector": a.Connector, "program": a.Program,
		"input_spec": a.InputSpec, "param_spec": a.ParamSpec,
		"active": a.Active,
	})
}

// GetApplication fetches an application by id.
func (db *DB) GetApplication(tx *store.Tx, id int64) (Application, error) {
	r, err := db.rg.GetRef(tx, KindApplication, id)
	if err != nil {
		return Application{}, err
	}
	return applicationFromRecord(r), nil
}

// ApplicationByName fetches an application by its unique name.
func (db *DB) ApplicationByName(tx *store.Tx, name string) (Application, error) {
	as, err := listQuery(tx, store.Query{Table: KindApplication, Where: []store.Pred{store.Eq("name", name)}, Limit: 1}, applicationFromRecord)
	if err != nil {
		return Application{}, err
	}
	if len(as) == 0 {
		return Application{}, fmt.Errorf("model: application %q: %w", name, store.ErrNotFound)
	}
	return as[0], nil
}

// CreateExperiment registers an experiment definition (Figure 13).
func (db *DB) CreateExperiment(tx *store.Tx, actor string, e Experiment) (int64, error) {
	return db.rg.Create(tx, KindExperiment, actor, map[string]any{
		"name": e.Name, "project": e.Project, "owner": e.Owner,
		"resources": e.Resources, "samples": e.Samples, "extracts": e.Extracts,
		"attributes": FormatKV(e.Attributes), "description": e.Description,
	})
}

// GetExperiment fetches an experiment definition by id.
func (db *DB) GetExperiment(tx *store.Tx, id int64) (Experiment, error) {
	r, err := db.rg.GetRef(tx, KindExperiment, id)
	if err != nil {
		return Experiment{}, err
	}
	return experimentFromRecord(r), nil
}

// --- counting (deployment statistics table) ----------------------------------

// Stats mirrors the deployment statistics table of the paper.
type Stats struct {
	Users         int
	Projects      int
	Institutes    int
	Organizations int
	Samples       int
	Extracts      int
	DataResources int
	Workunits     int
}

// CollectStats counts the main entity populations. All counts come from
// one pinned store version: a commit landing mid-collection cannot skew
// the table against itself (eight separate Store.Count calls used to read
// the live head and could each see a different state).
func (db *DB) CollectStats() Stats {
	s := db.Store()
	var st Stats
	if err := s.View(func(tx *store.Tx) error {
		st = db.CollectStatsTx(tx)
		return nil
	}); err != nil {
		// A closed store refuses transactions but its final version is
		// still readable; report the real populations rather than zeros.
		st = Stats{
			Users:         s.Count(KindUser),
			Projects:      s.Count(KindProject),
			Institutes:    s.Count(KindInstitute),
			Organizations: s.Count(KindOrganization),
			Samples:       s.Count(KindSample),
			Extracts:      s.Count(KindExtract),
			DataResources: s.Count(KindDataResource),
			Workunits:     s.Count(KindWorkunit),
		}
	}
	return st
}

// CollectStatsTx counts the main entity populations against the caller's
// pinned transaction, letting callers tie the table to a snapshot they
// already hold (the portal's conditional /api/stats and the dashboard
// do). Every count reads the version's maintained live counter — the
// aggregate engine's count(maintained) strategy — so the whole table
// costs O(1) per kind regardless of population size.
func (db *DB) CollectStatsTx(tx *store.Tx) Stats {
	return Stats{
		Users:         tx.Count(KindUser),
		Projects:      tx.Count(KindProject),
		Institutes:    tx.Count(KindInstitute),
		Organizations: tx.Count(KindOrganization),
		Samples:       tx.Count(KindSample),
		Extracts:      tx.Count(KindExtract),
		DataResources: tx.Count(KindDataResource),
		Workunits:     tx.Count(KindWorkunit),
	}
}

// ProjectStats summarizes one project's holdings: live counts of its
// samples, extracts, workunits and data resources, plus the workunit
// state histogram. Sample and workunit counts come straight from index
// postings lengths (count(postings)); extracts and resources hang one
// reference away, so their counts sum the postings of the resolved
// foreign-key batch — no row of any of the four tables is materialized.
type ProjectStats struct {
	Project          int64          `json:"project"`
	Samples          int            `json:"samples"`
	Extracts         int            `json:"extracts"`
	Workunits        int            `json:"workunits"`
	DataResources    int            `json:"dataresources"`
	WorkunitsByState map[string]int `json:"workunits_by_state"`
}

// ProjectStats collects the per-project reporting counts the portal's
// project pages and the curation progress views are built from.
func (db *DB) ProjectStats(tx *store.Tx, project int64) (ProjectStats, error) {
	ps := ProjectStats{Project: project, WorkunitsByState: map[string]int{}}
	var err error
	byProject := func(kind string) store.Query {
		return store.Query{Table: kind, Where: []store.Pred{store.Eq("project", project)}}
	}
	if ps.Samples, err = tx.QueryCount(byProject(KindSample)); err != nil {
		return ps, err
	}
	if ps.Workunits, err = tx.QueryCount(byProject(KindWorkunit)); err != nil {
		return ps, err
	}
	sids, err := idsInProject(tx, KindSample, project)
	if err != nil {
		return ps, err
	}
	if ps.Extracts, err = tx.QueryCount(store.Query{
		Table: KindExtract, Where: []store.Pred{store.InIDs("sample", sids)},
	}); err != nil {
		return ps, err
	}
	wids, err := idsInProject(tx, KindWorkunit, project)
	if err != nil {
		return ps, err
	}
	if ps.DataResources, err = tx.QueryCount(store.Query{
		Table: KindDataResource, Where: []store.Pred{store.InIDs("workunit", wids)},
	}); err != nil {
		return ps, err
	}
	res, err := tx.Aggregate(byProject(KindWorkunit).GroupBy("state"))
	if err != nil {
		return ps, err
	}
	for _, g := range res.Groups {
		if state, ok := g.Key.(string); ok {
			ps.WorkunitsByState[state] = g.Count()
		}
	}
	return ps, nil
}

// GroupedCount is one bucket of a grouped live count.
type GroupedCount struct {
	Key   any `json:"key"`
	Count int `json:"count"`
}

// CountsBy returns the live-count histogram of one kind grouped by an
// indexed (or unique) field, ordered by key — the backing of the
// portal's GET /api/stats/{kind}?by=field. The aggregate engine answers
// it by walking the grouping index's keys (count(postings)): O(distinct
// values), never O(rows). Unindexed fields are refused rather than
// silently degraded to a table scan.
func (db *DB) CountsBy(tx *store.Tx, kind, field string) ([]GroupedCount, error) {
	k := db.rg.Kind(kind)
	if k == nil {
		return nil, fmt.Errorf("model: %q: %w", kind, entity.ErrUnknownKind)
	}
	f := k.Field(field)
	if f == nil || !(f.Indexed || f.Unique || f.Type == entity.Ref) {
		return nil, fmt.Errorf("model: %s has no indexed field %q to group by: %w", kind, field, store.ErrBadQuery)
	}
	res, err := tx.Aggregate(store.Query{Table: kind}.GroupBy(field))
	if err != nil {
		return nil, err
	}
	out := make([]GroupedCount, len(res.Groups))
	for i, g := range res.Groups {
		out[i] = GroupedCount{Key: g.Key, Count: g.Count()}
	}
	return out, nil
}
