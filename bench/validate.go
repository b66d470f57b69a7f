package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// pageLimit is the page size every browse request asks for.
const pageLimit = 50

// pageInfo is what a validated browse page tells the chain that asked.
type pageInfo struct {
	Items int
	MaxID int64 // highest id on the page, 0 when empty
	Next  int64
	AsOf  uint64
}

// validatePage checks a 200 browse listing against the chain position it
// was requested from: JSON shape, at most limit items, positive strictly
// ascending ids none below the cursor, named items, no overlap with what
// the chain already saw, and a cursor that advances.
func validatePage(body []byte, cursor, prevMax int64, limit int) (pageInfo, error) {
	var page struct {
		Items []struct {
			ID   int64  `json:"id"`
			Name string `json:"name"`
		} `json:"items"`
		Next *int64  `json:"next"`
		AsOf *uint64 `json:"asOf"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		return pageInfo{}, fmt.Errorf("bad JSON: %v", err)
	}
	if page.Items == nil || page.Next == nil || page.AsOf == nil {
		return pageInfo{}, fmt.Errorf("missing items, next or asOf")
	}
	if *page.AsOf == 0 {
		return pageInfo{}, fmt.Errorf("asOf is 0")
	}
	if len(page.Items) > limit {
		return pageInfo{}, fmt.Errorf("%d items over limit %d", len(page.Items), limit)
	}
	prev := max(cursor-1, 0)
	for _, it := range page.Items {
		if it.ID <= 0 {
			return pageInfo{}, fmt.Errorf("item without positive id")
		}
		if it.ID <= prev {
			return pageInfo{}, fmt.Errorf("ids not strictly ascending from the cursor (%d after %d)", it.ID, prev)
		}
		if it.Name == "" {
			return pageInfo{}, fmt.Errorf("item %d without name", it.ID)
		}
		prev = it.ID
	}
	info := pageInfo{Items: len(page.Items), Next: *page.Next, AsOf: *page.AsOf}
	if len(page.Items) > 0 {
		info.MaxID = prev
		if cursor > 0 && page.Items[0].ID <= prevMax {
			return pageInfo{}, fmt.Errorf("page overlaps the previous one (id %d <= %d)", page.Items[0].ID, prevMax)
		}
	}
	if info.Next != 0 && (info.Next <= cursor || info.Next <= info.MaxID) {
		return pageInfo{}, fmt.Errorf("cursor does not advance (next %d from %d, last id %d)", info.Next, cursor, info.MaxID)
	}
	return info, nil
}

// validateNotModified checks a 304: it may only answer a request that
// carried a validator, must echo exactly that tag, and has no body.
func validateNotModified(sentTag string, h http.Header, body []byte) error {
	if sentTag == "" {
		return fmt.Errorf("304 without If-None-Match")
	}
	if got := h.Get("ETag"); got != sentTag {
		return fmt.Errorf("304 for tag %s carries tag %q", sentTag, got)
	}
	if len(body) != 0 {
		return fmt.Errorf("304 with a %d-byte body", len(body))
	}
	return nil
}

// tagSeq extracts the commit sequence from a portal entity tag ("v<seq>").
func tagSeq(etag string) (uint64, bool) {
	s := strings.TrimSuffix(strings.TrimPrefix(etag, `"v`), `"`)
	if len(s)+3 != len(etag) {
		return 0, false
	}
	seq, err := strconv.ParseUint(s, 10, 64)
	return seq, err == nil
}

// validateObject checks a single-object read: the body is the object asked
// for. Workunit reads nest the object under "Workunit".
func validateObject(path string, body []byte) error {
	want, err := strconv.ParseInt(path[strings.LastIndexByte(path, '/')+1:], 10, 64)
	if err != nil {
		return fmt.Errorf("bad object path %s", path)
	}
	var out struct {
		ID       int64
		Name     string
		Workunit *struct {
			ID   int64
			Name string
		}
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("bad JSON: %v", err)
	}
	id, name := out.ID, out.Name
	if out.Workunit != nil {
		id, name = out.Workunit.ID, out.Workunit.Name
	}
	if id != want || name == "" {
		return fmt.Errorf("asked for %d, got id %d name %q", want, id, name)
	}
	return nil
}

// validateCreated checks a 201 from the sample and extract endpoints and
// returns the new id.
func validateCreated(body []byte) (int64, error) {
	var out struct {
		IDs []int64 `json:"ids"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("bad JSON: %v", err)
	}
	if len(out.IDs) != 1 || out.IDs[0] <= 0 {
		return 0, fmt.Errorf("want one positive id, got %v", out.IDs)
	}
	return out.IDs[0], nil
}

// validateAnnotation checks a 201 from the annotation endpoint: the term
// echoes the coined value.
func validateAnnotation(body []byte, value string) (int64, error) {
	var out struct {
		Term struct {
			ID    int64
			Value string
		} `json:"term"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("bad JSON: %v", err)
	}
	if out.Term.ID <= 0 || out.Term.Value != value {
		return 0, fmt.Errorf("term %d %q does not echo %q", out.Term.ID, out.Term.Value, value)
	}
	return out.Term.ID, nil
}

func validateStats(body []byte) error {
	var st struct{ Users, Projects, Samples, Workunits int }
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("bad JSON: %v", err)
	}
	if st.Users < benchUsers || st.Projects <= 0 || st.Samples <= 0 || st.Workunits <= 0 {
		return fmt.Errorf("implausible stats %+v", st)
	}
	return nil
}

// validateStatsGroup checks a grouped-count histogram against the path it
// answers: kind and field echoed, non-empty, positive counts.
func validateStatsGroup(path string, body []byte) (uint64, error) {
	var out struct {
		Kind   string `json:"kind"`
		By     string `json:"by"`
		Groups []struct {
			Key   any `json:"key"`
			Count int `json:"count"`
		} `json:"groups"`
		AsOf uint64 `json:"asOf"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("bad JSON: %v", err)
	}
	if want := "/api/stats/" + out.Kind + "?by=" + out.By; want != path || out.AsOf == 0 {
		return 0, fmt.Errorf("body describes %s asOf %d", want, out.AsOf)
	}
	if len(out.Groups) == 0 {
		return 0, fmt.Errorf("empty histogram over a populated table")
	}
	for _, g := range out.Groups {
		if g.Count < 1 || g.Key == nil || g.Key == "" {
			return 0, fmt.Errorf("group %v with count %d", g.Key, g.Count)
		}
	}
	return out.AsOf, nil
}

// validateSearch checks a hit list; a scripted query names an existing
// sample, so at least one hit must come back.
func validateSearch(body []byte) error {
	var hits []struct {
		Kind string
		ID   int64
	}
	if err := json.Unmarshal(body, &hits); err != nil {
		return fmt.Errorf("bad JSON: %v", err)
	}
	if len(hits) == 0 {
		return fmt.Errorf("no hit for an existing sample name")
	}
	for _, h := range hits {
		if h.Kind == "" || h.ID <= 0 {
			return fmt.Errorf("hit without kind or id")
		}
	}
	return nil
}

func validateTasks(body []byte) error {
	var tasks []struct{ ID int64 }
	if err := json.Unmarshal(body, &tasks); err != nil {
		return fmt.Errorf("bad JSON: %v", err)
	}
	for _, t := range tasks {
		if t.ID <= 0 {
			return fmt.Errorf("task without id")
		}
	}
	return nil
}
