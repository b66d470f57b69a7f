// Package exchange implements project export and import between B-Fabric
// instances. The paper's acknowledgements describe the follow-up project
// "Generalizing B-Fabric towards an Infrastructure for Collaborative
// Research in Switzerland"; this package provides the enabling primitive:
// a self-contained project archive (zip with a JSON manifest plus file
// payloads) that another instance can ingest, re-creating the entity graph
// with fresh identifiers and registering any missing vocabulary terms.
package exchange

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/vocab"
)

// manifestName is the archive member holding the entity graph.
const manifestName = "manifest.json"

// filePrefix is the archive directory holding resource payloads, keyed by
// the exporting instance's resource id.
const filePrefix = "files/"

// FormatVersion is bumped on incompatible manifest changes.
const FormatVersion = 1

// Manifest is the serialized entity graph of one project.
type Manifest struct {
	Version     int
	Project     model.Project
	Samples     []model.Sample
	Extracts    []model.Extract
	Workunits   []model.Workunit
	Resources   []model.DataResource
	Experiments []model.Experiment
	// Terms are the vocabulary terms referenced by the project's samples
	// and extracts, so the importing instance can register missing ones.
	Terms []vocab.Term
}

// ErrBadArchive is returned for malformed exchange archives.
var ErrBadArchive = errors.New("malformed exchange archive")

// Export writes a self-contained archive of the project to w. Resource
// payloads are included when their URI resolves on this instance; linked
// resources whose store is not mounted are exported as metadata only.
func Export(sys *core.System, projectID int64, w io.Writer) error {
	var m Manifest
	m.Version = FormatVersion
	payloads := make(map[int64][]byte)

	err := sys.View(func(tx *store.Tx) error {
		p, err := sys.DB.GetProject(tx, projectID)
		if err != nil {
			return err
		}
		m.Project = p
		samples, err := sys.DB.SamplesOfProject(tx, projectID)
		if err != nil {
			return err
		}
		m.Samples = samples
		for _, s := range samples {
			es, err := sys.DB.ExtractsOfSample(tx, s.ID)
			if err != nil {
				return err
			}
			m.Extracts = append(m.Extracts, es...)
		}
		wus, err := sys.DB.WorkunitsOfProject(tx, projectID, "")
		if err != nil {
			return err
		}
		for _, wu := range wus {
			m.Workunits = append(m.Workunits, wu)
			rs, err := sys.DB.ResourcesOfWorkunit(tx, wu.ID)
			if err != nil {
				return err
			}
			for _, res := range rs {
				m.Resources = append(m.Resources, res)
				if res.URI == "" {
					continue
				}
				if data, err := sys.Storage.Open(res.URI); err == nil {
					payloads[res.ID] = data
				}
			}
		}
		exps, err := tx.Query(store.Query{Table: model.KindExperiment, Where: []store.Pred{store.Eq("project", projectID)}})
		if err != nil {
			return err
		}
		for exps.Next() {
			exp, err := sys.DB.GetExperiment(tx, exps.ID())
			if err != nil {
				return err
			}
			m.Experiments = append(m.Experiments, exp)
		}
		if err := exps.Err(); err != nil {
			return err
		}
		// Vocabulary terms actually used by the exported annotations.
		seen := make(map[string]bool)
		record := func(vocabName, value string) error {
			if value == "" || seen[vocabName+"\x00"+value] {
				return nil
			}
			seen[vocabName+"\x00"+value] = true
			term, err := sys.Vocab.Lookup(tx, vocabName, value)
			if err != nil {
				if errors.Is(err, store.ErrNotFound) {
					return nil // free-text value predating vocabularies
				}
				return err
			}
			m.Terms = append(m.Terms, term)
			return nil
		}
		for _, s := range m.Samples {
			for vocabName, value := range map[string]string{
				model.VocabSpecies: s.Species, model.VocabTissue: s.Tissue,
				model.VocabDiseaseState: s.DiseaseState,
				model.VocabCellType:     s.CellType, model.VocabTreatment: s.Treatment,
			} {
				if err := record(vocabName, value); err != nil {
					return err
				}
			}
		}
		for _, e := range m.Extracts {
			if err := record(model.VocabExtractionMethod, e.ExtractionMethod); err != nil {
				return err
			}
			if err := record(model.VocabLabel, e.Label); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	zw := zip.NewWriter(w)
	mw, err := zw.Create(manifestName)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(mw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return err
	}
	for _, res := range m.Resources {
		data, ok := payloads[res.ID]
		if !ok {
			continue
		}
		fw, err := zw.Create(filePrefix + strconv.FormatInt(res.ID, 10))
		if err != nil {
			return err
		}
		if _, err := fw.Write(data); err != nil {
			return err
		}
	}
	return zw.Close()
}

// ImportResult reports what an import created on the receiving instance.
type ImportResult struct {
	Project     int64
	Samples     int
	Extracts    int
	Workunits   int
	Resources   int
	Experiments int
	// TermsAdded counts vocabulary terms registered because they were
	// missing on the receiving instance.
	TermsAdded int
	// PayloadsStored counts resource payloads copied into internal storage.
	PayloadsStored int
}

// Import ingests an archive produced by Export, re-creating the project's
// entity graph with fresh identifiers. Vocabulary terms missing on the
// receiving instance are registered as released (they passed review on the
// exporting one). Resource payloads travel into the internal store under
// exchange/<project>/...; metadata-only resources keep an empty URI.
func Import(sys *core.System, data []byte, actor string) (ImportResult, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return ImportResult{}, fmt.Errorf("exchange: %w: %v", ErrBadArchive, err)
	}
	var m Manifest
	payloads := make(map[int64][]byte)
	foundManifest := false
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			return ImportResult{}, err
		}
		content, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return ImportResult{}, err
		}
		switch {
		case f.Name == manifestName:
			if err := json.Unmarshal(content, &m); err != nil {
				return ImportResult{}, fmt.Errorf("exchange: decoding manifest: %w", err)
			}
			foundManifest = true
		case len(f.Name) > len(filePrefix) && f.Name[:len(filePrefix)] == filePrefix:
			id, err := strconv.ParseInt(f.Name[len(filePrefix):], 10, 64)
			if err != nil {
				return ImportResult{}, fmt.Errorf("exchange: %w: bad payload name %q", ErrBadArchive, f.Name)
			}
			payloads[id] = content
		}
	}
	if !foundManifest {
		return ImportResult{}, fmt.Errorf("exchange: %w: missing %s", ErrBadArchive, manifestName)
	}
	if m.Version != FormatVersion {
		return ImportResult{}, fmt.Errorf("exchange: unsupported manifest version %d", m.Version)
	}

	var out ImportResult
	err = sys.Update(func(tx *store.Tx) error {
		// Vocabulary first: annotations must exist before samples use them.
		for _, term := range m.Terms {
			if sys.Vocab.Exists(tx, term.Vocabulary, term.Value) {
				continue
			}
			if _, err := sys.Vocab.AddTerm(tx, actor, term.Vocabulary, term.Value, true); err != nil {
				return err
			}
			out.TermsAdded++
		}
		// Project. Owner/member/institute references do not transfer
		// across instances; the importing actor becomes the point of
		// contact.
		project := m.Project
		project.Coach, project.Members, project.Institute = 0, nil, 0
		newProject, err := sys.DB.CreateProject(tx, actor, project)
		if err != nil {
			return err
		}
		out.Project = newProject

		sampleMap := make(map[int64]int64, len(m.Samples))
		for _, s := range m.Samples {
			old := s.ID
			s.Project = newProject
			s.Owner = 0
			id, err := sys.DB.CreateSample(tx, actor, s)
			if err != nil {
				return err
			}
			sampleMap[old] = id
			out.Samples++
		}
		extractMap := make(map[int64]int64, len(m.Extracts))
		for _, e := range m.Extracts {
			old := e.ID
			ns, ok := sampleMap[e.Sample]
			if !ok {
				return fmt.Errorf("exchange: extract %d references unknown sample %d", old, e.Sample)
			}
			e.Sample = ns
			id, err := sys.DB.CreateExtract(tx, actor, e)
			if err != nil {
				return err
			}
			extractMap[old] = id
			out.Extracts++
		}
		wuMap := make(map[int64]int64, len(m.Workunits))
		for _, wu := range m.Workunits {
			old := wu.ID
			wu.Project = newProject
			wu.Owner = 0
			wu.Application = 0 // applications are instance-local
			id, err := sys.DB.CreateWorkunit(tx, actor, wu)
			if err != nil {
				return err
			}
			wuMap[old] = id
			out.Workunits++
		}
		resourceMap := make(map[int64]int64, len(m.Resources))
		for _, res := range m.Resources {
			old := res.ID
			nwu, ok := wuMap[res.Workunit]
			if !ok {
				return fmt.Errorf("exchange: resource %d references unknown workunit %d", old, res.Workunit)
			}
			res.Workunit = nwu
			if res.Extract != 0 {
				res.Extract = extractMap[res.Extract] // 0 if the extract was not exported
			}
			if payload, ok := payloads[old]; ok {
				uri, err := sys.Storage.WriteInternal(
					fmt.Sprintf("exchange/p%d/%d-%s", newProject, old, res.Name), payload)
				if err != nil {
					return err
				}
				res.URI = uri
				res.Linked = false
				out.PayloadsStored++
			} else {
				res.URI = ""
				res.Linked = true
			}
			id, err := sys.DB.CreateDataResource(tx, actor, res)
			if err != nil {
				return err
			}
			resourceMap[old] = id
			out.Resources++
		}
		for _, exp := range m.Experiments {
			exp.Project = newProject
			exp.Owner = 0
			exp.Resources = remap(exp.Resources, resourceMap)
			exp.Samples = remap(exp.Samples, sampleMap)
			exp.Extracts = remap(exp.Extracts, extractMap)
			if _, err := sys.DB.CreateExperiment(tx, actor, exp); err != nil {
				return err
			}
			out.Experiments++
		}
		return nil
	})
	if err != nil {
		return ImportResult{}, err
	}
	return out, nil
}

// remap translates a reference list through an id map, dropping references
// that were not part of the export.
func remap(ids []int64, m map[int64]int64) []int64 {
	var out []int64
	for _, id := range ids {
		if nid, ok := m[id]; ok {
			out = append(out, nid)
		}
	}
	return out
}
