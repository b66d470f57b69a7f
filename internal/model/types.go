package model

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/store"
)

// User is a registered B-Fabric user.
type User struct {
	ID        int64
	Login     string
	FullName  string
	Email     string
	Institute int64
	Role      string
	Active    bool
	Created   time.Time
}

// Roles recognised by the system.
const (
	RoleScientist = "scientist"
	RoleExpert    = "expert" // FGCZ employee who reviews annotations
	RoleAdmin     = "admin"
)

// Organization is a research organization (e.g. a university).
type Organization struct {
	ID      int64
	Name    string
	Country string
}

// Institute is a department within an organization.
type Institute struct {
	ID           int64
	Name         string
	Organization int64
}

// Project groups samples, workunits and experiments, and scopes
// value selection (drop-down menus) and access control.
type Project struct {
	ID          int64
	Name        string
	Description string
	Coach       int64
	Members     []int64
	Institute   int64
	Area        string
}

// Sample describes the biological source at the general level.
type Sample struct {
	ID           int64
	Name         string
	Project      int64
	Owner        int64
	Species      string
	Tissue       string
	DiseaseState string
	CellType     string
	Treatment    string
	Description  string
	Created      time.Time
}

// Extract is an extraction of a sample actually used in an experiment or
// measurement. Several extracts may derive from one sample.
type Extract struct {
	ID               int64
	Name             string
	Sample           int64
	ExtractionMethod string
	Label            string
	Concentration    float64
	VolumeUL         float64
	Description      string
}

// DataResource abstracts a file or a link to a file.
type DataResource struct {
	ID        int64
	Name      string
	Workunit  int64
	Extract   int64
	URI       string
	SizeBytes int64
	Checksum  string
	Format    string
	IsInput   bool
	Linked    bool
	Content   string
}

// Workunit is a container referencing data resources that logically form a
// unit: the result of an experiment, measurement, analysis or search.
type Workunit struct {
	ID          int64
	Name        string
	Project     int64
	Owner       int64
	Application int64
	Description string
	State       string
	Parameters  map[string]string
}

// Application is an external application registered with the system.
type Application struct {
	ID          int64
	Name        string
	Description string
	Connector   string
	Program     string
	InputSpec   []string
	ParamSpec   []string
	Active      bool
}

// Experiment is a definition of an application run: a selection of data
// resources, samples, extracts, and free attributes used as input.
type Experiment struct {
	ID          int64
	Name        string
	Project     int64
	Owner       int64
	Resources   []int64
	Samples     []int64
	Extracts    []int64
	Attributes  map[string]string
	Description string
}

// --- record conversions -------------------------------------------------
//
// The conversions read the store's immutable rows. Strings share the row's
// memory, which nothing can write; the row's list accessors return fresh
// slices, so the returned structs are fully owned by the caller.

func userFromRecord(r store.Row) User {
	return User{
		ID: r.ID(), Login: r.String("login"), FullName: r.String("fullname"),
		Email: r.String("email"), Institute: r.Int("institute"),
		Role: r.String("role"), Active: r.Bool("active"),
		Created: r.Time("created"),
	}
}

func organizationFromRecord(r store.Row) Organization {
	return Organization{ID: r.ID(), Name: r.String("name"), Country: r.String("country")}
}

func instituteFromRecord(r store.Row) Institute {
	return Institute{ID: r.ID(), Name: r.String("name"), Organization: r.Int("organization")}
}

func projectFromRecord(r store.Row) Project {
	return Project{
		ID: r.ID(), Name: r.String("name"), Description: r.String("description"),
		Coach: r.Int("coach"), Members: r.IDs("members"),
		Institute: r.Int("institute"), Area: r.String("area"),
	}
}

func sampleFromRecord(r store.Row) Sample {
	return Sample{
		ID: r.ID(), Name: r.String("name"), Project: r.Int("project"),
		Owner: r.Int("owner"), Species: r.String("species"),
		Tissue: r.String("tissue"), DiseaseState: r.String("disease_state"),
		CellType: r.String("cell_type"), Treatment: r.String("treatment"),
		Description: r.String("description"), Created: r.Time("created"),
	}
}

func (s Sample) values() map[string]any {
	return map[string]any{
		"name": s.Name, "project": s.Project, "owner": s.Owner,
		"species": s.Species, "tissue": s.Tissue,
		"disease_state": s.DiseaseState, "cell_type": s.CellType,
		"treatment": s.Treatment, "description": s.Description,
	}
}

func extractFromRecord(r store.Row) Extract {
	return Extract{
		ID: r.ID(), Name: r.String("name"), Sample: r.Int("sample"),
		ExtractionMethod: r.String("extraction_method"), Label: r.String("label"),
		Concentration: r.Float("concentration"), VolumeUL: r.Float("volume_ul"),
		Description: r.String("description"),
	}
}

func (e Extract) values() map[string]any {
	return map[string]any{
		"name": e.Name, "sample": e.Sample,
		"extraction_method": e.ExtractionMethod, "label": e.Label,
		"concentration": e.Concentration, "volume_ul": e.VolumeUL,
		"description": e.Description,
	}
}

func dataResourceFromRecord(r store.Row) DataResource {
	return DataResource{
		ID: r.ID(), Name: r.String("name"), Workunit: r.Int("workunit"),
		Extract: r.Int("extract"), URI: r.String("uri"),
		SizeBytes: r.Int("size_bytes"), Checksum: r.String("checksum"),
		Format: r.String("format"), IsInput: r.Bool("is_input"),
		Linked: r.Bool("linked"), Content: r.String("content"),
	}
}

func workunitFromRecord(r store.Row) Workunit {
	return Workunit{
		ID: r.ID(), Name: r.String("name"), Project: r.Int("project"),
		Owner: r.Int("owner"), Application: r.Int("application"),
		Description: r.String("description"), State: r.String("state"),
		Parameters: ParseKV(r.Strings("parameters")),
	}
}

func applicationFromRecord(r store.Row) Application {
	return Application{
		ID: r.ID(), Name: r.String("name"), Description: r.String("description"),
		Connector: r.String("connector"), Program: r.String("program"),
		InputSpec: r.Strings("input_spec"), ParamSpec: r.Strings("param_spec"),
		Active: r.Bool("active"),
	}
}

func experimentFromRecord(r store.Row) Experiment {
	return Experiment{
		ID: r.ID(), Name: r.String("name"), Project: r.Int("project"),
		Owner: r.Int("owner"), Resources: r.IDs("resources"),
		Samples: r.IDs("samples"), Extracts: r.IDs("extracts"),
		Attributes:  ParseKV(r.Strings("attributes")),
		Description: r.String("description"),
	}
}

// --- key=value helpers ----------------------------------------------------

// FormatKV converts a map into a deterministic "key=value" string list.
func FormatKV(m map[string]string) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s=%s", k, m[k])
	}
	return out
}

// ParseKV converts a "key=value" string list back into a map. Entries
// without '=' are ignored.
func ParseKV(list []string) map[string]string {
	if len(list) == 0 {
		return nil
	}
	m := make(map[string]string, len(list))
	for _, kv := range list {
		if i := strings.IndexByte(kv, '='); i >= 0 {
			m[kv[:i]] = kv[i+1:]
		}
	}
	return m
}
