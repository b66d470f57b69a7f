package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"repro/internal/model"
)

// opKind names one request shape; latency is reported per class and, in
// the trace run, per op.
type opKind uint8

const (
	opBrowsePage opKind = iota
	opBrowseRevalidate
	opObject
	opTasks
	opStats
	opStatsGroup
	opSearch
	opCreateSample
	opCreateExtract
	opCreateAnnotation
	numOps
)

var opNames = [numOps]string{
	"browse-page", "browse-revalidate", "object", "tasks", "stats", "stats-group",
	"search", "create-sample", "create-extract", "create-annotation",
}

// class groups ops by the latency limit a user holds them to.
type class uint8

const (
	classRead class = iota
	classWrite
	classSearch
	numClasses
)

var classNames = [numClasses]string{"read", "write", "search"}

// lateLimit is the per-class latency beyond which a request counts as late.
var lateLimit = [numClasses]time.Duration{10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond}

func (op opKind) class() class {
	switch {
	case op == opSearch:
		return classSearch
	case op >= opCreateSample:
		return classWrite
	}
	return classRead
}

// weighted is one entry of an op mix.
type weighted struct {
	op opKind
	w  int
}

// The browse mix: listing pages 45% (half of them revalidating the page
// just fetched), object reads 20%, task lists 15%, stats and grouped stats
// 10% each. The register mix: samples 55%, extracts 40%, annotations 5%.
var (
	browseMix = []weighted{
		{opBrowsePage, 225}, {opBrowseRevalidate, 225}, {opObject, 200},
		{opTasks, 150}, {opStats, 100}, {opStatsGroup, 100},
	}
	registerMix = []weighted{{opCreateSample, 55}, {opCreateExtract, 40}, {opCreateAnnotation, 5}}
)

// workload is one traffic mix with its offered rate. Rates are constants,
// a fifth to a quarter of what two keep-alive connections saturate a
// one-core server at on the two-core box the bounds were taken on
// (measured: browse 9.6k, register 1.9k, mixed 3.2k, replica-restart 2.6k
// requests per second). Nearer to saturation a latency quantile follows the
// queue, which amplifies every change in the machine's speed: at 900/s a
// mixed run on a machine 25% slower had a p90 80% higher.
type workload struct {
	Name  string
	Why   string
	Rate  float64 // open-loop arrivals per second
	Scale float64 // genload scale of the population
	Mix   []weighted
	// Replica serves the reads of the window from a -replicate-from
	// follower child and snapshots the data dir at set-up.
	Replica bool
}

// part is one component of a combined mix and its percentage share.
type part struct {
	mix   []weighted
	share int
}

// combine builds a mix from (mix, share) pairs, keeping shares exact by
// cross-multiplying with the other mixes' weight totals.
func combine(parts ...part) []weighted {
	totals := make([]int, len(parts))
	for i, p := range parts {
		for _, m := range p.mix {
			totals[i] += m.w
		}
	}
	var out []weighted
	for i, p := range parts {
		mult := p.share
		for j, t := range totals {
			if j != i {
				mult *= t
			}
		}
		for _, m := range p.mix {
			out = append(out, weighted{m.op, m.w * mult})
		}
	}
	return out
}

var workloads = []workload{
	{
		Name: "browse", Rate: 2000, Scale: 0.25, Mix: browseMix,
		Why: "read-only portal traffic: all work in net/portal/auth/store reads, none in wal/fan-out/repl; every ETag and session-cache lookup hits",
	},
	{
		Name: "register", Rate: 450, Scale: 0.25, Mix: registerMix,
		Why: "write-only: every request crosses overlay, commit, WAL group fsync and audit/search/tasks fan-out; a read-path change must move nothing here",
	},
	{
		Name: "mixed", Rate: 650, Scale: 0.25,
		Mix: combine(part{browseMix, 65}, part{[]weighted{{opSearch, 1}}, 10}, part{registerMix, 25}),
		Why: "65% browse, 10% search, 25% register: commits invalidate every ETag, readers pin versions while writers copy, searches pay index flushes",
	},
	{
		Name: "replica-restart", Rate: 500, Scale: 0.25, Replica: true,
		Mix: combine(part{browseMix, 75}, part{registerMix, 25}),
		Why: "writes to a primary, reads from a follower, then kill -9 restarts and a fresh follower: the only place repl shipping, recovery and catch-up do the work",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one scripted operation. Everything here is fixed by the seed;
// only a browse chain's cursor and validators are resolved at run time,
// from the responses of the chain's earlier requests.
type request struct {
	Due    time.Duration // offset from the start of the schedule
	User   int
	Op     opKind
	Stream int    // browse ops: index into the user's streams
	Cond   bool   // stats ops: replay the path's last validator
	Path   string // object, stats and search ops
	Body   string // creates: the JSON request body
	Name   string // creates: the name the ledger expects to find later
}

// stream is one browse listing a user pages through: a kind and a filter.
type stream struct {
	Kind   string
	Filter string // encoded query without paging parameters, may be empty
}

// streamsFor lists the browse chains of a user. Experts and admins page
// the whole tables and three attribute filters; scientists page their
// projects' samples and workunits through the project index, plus the two
// unfiltered listings whose rows the access check has to thin out.
func streamsFor(u benchUser) []stream {
	if u.SeeAll {
		return []stream{
			{model.KindSample, ""}, {model.KindExtract, ""}, {model.KindWorkunit, ""},
			{model.KindDataResource, ""}, {model.KindProject, ""},
			{model.KindSample, url.Values{"species": {"Homo sapiens"}}.Encode()},
			{model.KindWorkunit, url.Values{"state": {model.WorkunitReady}}.Encode()},
			{model.KindDataResource, url.Values{"format": {"cel"}}.Encode()},
		}
	}
	out := []stream{{model.KindProject, ""}, {model.KindSample, ""}}
	for i, p := range u.Member {
		if i == 3 {
			break
		}
		f := url.Values{"project": {strconv.FormatInt(p, 10)}}.Encode()
		out = append(out, stream{model.KindSample, f}, stream{model.KindWorkunit, f})
	}
	return out
}

var statsGroupPaths = []string{
	"/api/stats/" + model.KindWorkunit + "?by=state",
	"/api/stats/" + model.KindSample + "?by=species",
	"/api/stats/" + model.KindDataResource + "?by=format",
}

// Vocabulary-valid attribute values (released terms of the genload seed).
var (
	speciesTerms = []string{"Homo sapiens", "Mus musculus", "Arabidopsis thaliana"}
	tissueTerms  = []string{"Liver", "Leaf", "Brain"}
	labelTerms   = []string{"Cy3", "Cy5"}
)

// scripter draws scripted operations from a seeded source. tag makes the
// names it coins unique across the scripters of one run.
type scripter struct {
	pop   *population
	rng   *rand.Rand
	mix   []weighted
	total int
	tag   string
	users []int // the users this scripter draws from
	n     int
}

func newScripter(pop *population, wl workload, seed int64, tag string, users []int) *scripter {
	s := &scripter{pop: pop, rng: rand.New(rand.NewSource(seed)), mix: wl.Mix, tag: tag, users: users}
	for _, m := range wl.Mix {
		s.total += m.w
	}
	return s
}

// next draws one operation.
func (s *scripter) next() request {
	s.n++
	rq := request{User: s.users[s.rng.Intn(len(s.users))]}
	pick := s.rng.Intn(s.total)
	for _, m := range s.mix {
		if pick < m.w {
			rq.Op = m.op
			break
		}
		pick -= m.w
	}
	u := &s.pop.Users[rq.User]
	switch rq.Op {
	case opBrowsePage, opBrowseRevalidate:
		rq.Stream = s.rng.Intn(len(u.Streams))
	case opObject:
		if s.rng.Intn(2) == 0 {
			rq.Path = "/api/samples/" + strconv.FormatInt(u.Samples[s.rng.Intn(len(u.Samples))], 10)
		} else {
			rq.Path = "/api/workunits/" + strconv.FormatInt(u.Units[s.rng.Intn(len(u.Units))], 10)
		}
	case opTasks:
		rq.Path = "/api/tasks"
	case opStats:
		rq.Path, rq.Cond = "/api/stats", s.rng.Intn(2) == 0
	case opStatsGroup:
		rq.Path, rq.Cond = statsGroupPaths[s.rng.Intn(len(statsGroupPaths))], s.rng.Intn(2) == 0
	case opSearch:
		rq.Path = fmt.Sprintf("/api/search?q=sample-%05d", 1+s.rng.Intn(min(s.pop.Samples, 256)))
	case opCreateSample:
		rq.Path = "/api/samples"
		rq.Name = fmt.Sprintf("b-%s-s%07d", s.tag, s.n)
		rq.Body = fmt.Sprintf(`{"Sample":{"Name":%q,"Project":%d,"Species":%q,"Tissue":%q,"Treatment":"None"}}`,
			rq.Name, u.Home, speciesTerms[s.rng.Intn(len(speciesTerms))], tissueTerms[s.rng.Intn(len(tissueTerms))])
	case opCreateExtract:
		rq.Path = "/api/extracts"
		rq.Name = fmt.Sprintf("b-%s-e%07d", s.tag, s.n)
		rq.Body = fmt.Sprintf(`{"Extract":{"Name":%q,"Sample":%d,"ExtractionMethod":"TRIzol","Label":%q}}`,
			rq.Name, u.Homers[s.rng.Intn(len(u.Homers))], labelTerms[s.rng.Intn(len(labelTerms))])
	case opCreateAnnotation:
		// Random hex keeps coined values far apart under the vocabulary's
		// edit-distance scorer, so the "similar" list in the response does
		// not grow with the run.
		rq.Path = "/api/annotations"
		rq.Name = fmt.Sprintf("%s %016x", s.tag, s.rng.Uint64())
		rq.Body = fmt.Sprintf(`{"Vocabulary":%q,"Value":%q}`, model.VocabTreatment, rq.Name)
	}
	return rq
}

// schedule draws the open-loop arrivals of the first `length` of a run: a
// Poisson process at rate per second.
func (s *scripter) schedule(rate float64, length time.Duration) []request {
	var out []request
	var t time.Duration
	for {
		t += time.Duration(s.rng.ExpFloat64() / rate * float64(time.Second))
		if t >= length {
			return out
		}
		rq := s.next()
		rq.Due = t
		out = append(out, rq)
	}
}

// scriptSHA hashes a schedule, so that two commits can show they were
// offered the same input.
func scriptSHA(reqs []request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%d|%d|%d|%d|%t|%s|%s\n", r.Due, r.User, r.Op, r.Stream, r.Cond, r.Path, r.Body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// allUsers is the index set 0..benchUsers-1; usersOf keeps the indices a
// connection owns. A user's requests always travel on one connection, so a
// browse chain's state has a single writer and "asOf never goes back on a
// connection" can be checked.
func allUsers() []int {
	out := make([]int, benchUsers)
	for i := range out {
		out[i] = i
	}
	return out
}

func usersOf(conn, conns int) []int {
	var out []int
	for i := 0; i < benchUsers; i++ {
		if i%conns == conn {
			out = append(out, i)
		}
	}
	return out
}
