// Package portal implements B-Fabric's web portal: the access-controlled
// HTTP interface through which users register samples and extracts, manage
// annotations, run imports and experiments, search, browse the object
// graph, and download results. It exposes a JSON API (consumed by the CLI
// and tests) plus a small HTML dashboard.
package portal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/audit"
	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/exchange"
	"repro/internal/importer"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/tasks"
	"repro/internal/vocab"
)

// Config tunes the portal's serving hardening. The zero value means
// production defaults; negative values disable a mechanism explicitly.
type Config struct {
	// RequestTimeout bounds each request's handler via context.WithTimeout
	// on the request context. 0 = 30s; negative disables the deadline.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently served requests; excess requests are
	// rejected immediately with 503 + Retry-After instead of queueing
	// without bound. 0 = 256; negative disables the gate.
	MaxInFlight int
	// ReplicaStatus, when set, marks this portal as fronting a read-only
	// replica. GET /api/replication reports the value (the follower's
	// replication status: lag, last contact age, epoch, resyncs), and
	// /readyz answers 503 while the store is in replica mode — this
	// server does not accept writes, so a write-routing balancer must
	// look elsewhere — while reads keep being served. After a promotion
	// (the store leaves replica mode) /readyz flips to the primary
	// answer without a restart.
	ReplicaStatus func() any
	// Promote, when set, enables POST /api/replication/promote (admin
	// only): failover promotion of the replica behind this portal. The
	// callback performs the promotion (epoch bump, write gate) and
	// returns a description of the result (e.g. repl.Promotion).
	Promote func() (any, error)
}

const (
	defaultRequestTimeout = 30 * time.Second
	defaultMaxInFlight    = 256
)

// Server is the portal HTTP server.
type Server struct {
	sys           *core.System
	mux           *http.ServeMux
	timeout       time.Duration
	inflight      chan struct{} // admission gate; nil when disabled
	replicaStatus func() any    // non-nil = booted as a replica portal
	promote       func() (any, error)
}

// New builds the portal over a wired system with default hardening.
func New(sys *core.System) *Server {
	return NewWithConfig(sys, Config{})
}

// NewWithConfig builds the portal with explicit serving limits.
func NewWithConfig(sys *core.System, cfg Config) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux(), replicaStatus: cfg.ReplicaStatus, promote: cfg.Promote}
	switch {
	case cfg.RequestTimeout == 0:
		s.timeout = defaultRequestTimeout
	case cfg.RequestTimeout > 0:
		s.timeout = cfg.RequestTimeout
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	s.routes()
	return s
}

// ServeHTTP implements http.Handler behind a hardening stack, outermost
// first: panic recovery (a handler bug answers 500 instead of killing the
// connection), max-in-flight admission (overload answers 503 immediately
// instead of queueing into collapse), and a per-request deadline on the
// context (a slow handler is abandoned at the deadline it can observe).
// The health probes bypass the stack: an orchestrator must get a liveness
// answer from a saturated server.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
		s.mux.ServeHTTP(w, r)
		return
	}
	defer func() {
		if v := recover(); v != nil {
			// Best effort: if the handler already wrote a header, this
			// only logs; the alternative (net/http's own recovery) drops
			// the connection with no response at all.
			writeErrCode(w, http.StatusInternalServerError, "internal",
				fmt.Errorf("portal: internal error: %v", v))
		}
	}()
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			writeErrCode(w, http.StatusServiceUnavailable, "overloaded",
				errors.New("portal: too many requests in flight, retry shortly"))
			return
		}
	}
	if s.timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /", s.handleDashboard)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /api/replication", s.handleReplication)
	s.mux.HandleFunc("POST /api/replication/promote", s.auth(s.handlePromote))
	s.mux.HandleFunc("POST /api/login", s.handleLogin)
	s.mux.HandleFunc("POST /api/logout", s.auth(s.handleLogout))

	s.mux.HandleFunc("GET /api/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/stats/{kind}", s.auth(s.handleStatsGrouped))
	s.mux.HandleFunc("GET /api/tasks", s.auth(s.handleTasks))
	s.mux.HandleFunc("GET /api/tasks/summary", s.auth(s.handleTaskSummary))
	s.mux.HandleFunc("POST /api/tasks/{id}/complete", s.auth(s.handleCompleteTask))

	s.mux.HandleFunc("POST /api/samples", s.auth(s.handleCreateSample))
	s.mux.HandleFunc("GET /api/samples/{id}", s.auth(s.handleGetSample))
	s.mux.HandleFunc("POST /api/samples/{id}/clone", s.auth(s.handleCloneSample))

	s.mux.HandleFunc("POST /api/extracts", s.auth(s.handleCreateExtract))

	s.mux.HandleFunc("GET /api/annotations", s.auth(s.handleListAnnotations))
	s.mux.HandleFunc("POST /api/annotations", s.auth(s.handleCreateAnnotation))
	s.mux.HandleFunc("POST /api/annotations/{id}/release", s.auth(s.handleReleaseAnnotation))
	s.mux.HandleFunc("POST /api/annotations/merge", s.auth(s.handleMergeAnnotations))
	s.mux.HandleFunc("GET /api/annotations/recommendations", s.auth(s.handleRecommendations))

	s.mux.HandleFunc("GET /api/providers", s.auth(s.handleProviders))
	s.mux.HandleFunc("POST /api/import", s.auth(s.handleImport))
	s.mux.HandleFunc("GET /api/import/{workunit}/matches", s.auth(s.handleMatches))
	s.mux.HandleFunc("POST /api/import/{instance}/complete", s.auth(s.handleCompleteImport))

	s.mux.HandleFunc("POST /api/applications", s.auth(s.handleRegisterApplication))
	s.mux.HandleFunc("POST /api/experiments", s.auth(s.handleCreateExperiment))
	s.mux.HandleFunc("POST /api/experiments/{id}/run", s.auth(s.handleRunExperiment))

	s.mux.HandleFunc("GET /api/workunits/{id}", s.auth(s.handleGetWorkunit))
	s.mux.HandleFunc("GET /api/resources/{id}/download", s.auth(s.handleDownload))
	s.mux.HandleFunc("GET /api/browse/{kind}", s.auth(s.handleBrowseList))
	s.mux.HandleFunc("GET /api/browse/{kind}/{id}", s.auth(s.handleBrowse))
	s.mux.HandleFunc("GET /api/workflows/{id}/dot", s.auth(s.handleWorkflowDOT))

	s.mux.HandleFunc("GET /api/search", s.auth(s.handleSearch))
	s.mux.HandleFunc("GET /api/search/history", s.auth(s.handleSearchHistory))
	s.mux.HandleFunc("POST /api/search/save", s.auth(s.handleSaveQuery))
	s.mux.HandleFunc("GET /api/search/saved", s.auth(s.handleSavedQueries))
	s.mux.HandleFunc("GET /api/search/export", s.auth(s.handleExport))

	s.mux.HandleFunc("GET /api/audit/recent", s.auth(s.handleAuditRecent))
	s.mux.HandleFunc("GET /api/audit/summary", s.auth(s.handleAuditSummary))

	s.mux.HandleFunc("GET /api/projects/{id}/export", s.auth(s.handleExportProject))
	s.mux.HandleFunc("POST /api/projects/import", s.auth(s.handleImportProject))
}

// --- plumbing -----------------------------------------------------------------

// bearerToken extracts the session token from a request's Authorization
// header. The single place bearer parsing happens: the auth middleware,
// logout and the session-user fast path all agree on what a token is. A
// missing header, a non-Bearer scheme or a garbled value yield "", which
// no session ever matches.
func bearerToken(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
		return strings.TrimSpace(h[len(prefix):])
	}
	return ""
}

// auth wraps a handler with session-token authentication. Tokens travel in
// the Authorization header ("Bearer <token>").
func (s *Server) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		login, err := s.sys.Auth.SessionLogin(bearerToken(r))
		if err != nil {
			writeErr(w, http.StatusUnauthorized, err)
			return
		}
		r.Header.Set("X-Login", login)
		next(w, r)
	}
}

func loginOf(r *http.Request) string { return r.Header.Get("X-Login") }

// sessionUser resolves the request's session to its user record as of the
// transaction's snapshot, via the auth service's seq-validated cache —
// the hot read path's replacement for a per-request UserByLogin index walk.
func (s *Server) sessionUser(tx *store.Tx, r *http.Request) (model.User, error) {
	return s.sys.Auth.SessionUser(tx, bearerToken(r))
}

// bufPool recycles response-encoding buffers across requests. Every JSON
// response body is built in a pooled buffer and written to the socket in
// one call, so the per-request allocation cost amortizes to zero on the
// hot path and handlers can still swap the status line on late errors.
var bufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// maxPooledBuf keeps pathological responses (a 500-row browse page) from
// pinning megabytes in the pool forever.
const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Encoding failed before anything reached the wire; the error
		// envelope (a struct of strings) cannot itself fail to encode.
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeRaw(w, status, buf)
}

// writeRaw sends a fully-built JSON body in a single write.
func writeRaw(w http.ResponseWriter, status int, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// etagFor derives the entity tag of a snapshot-determined response: the
// pinned MVCC version seq is the validator. Identical requests served from
// the same store version carry the same tag; any committed write advances
// the seq and with it the tag.
func etagFor(seq uint64) string { return `"v` + strconv.FormatUint(seq, 10) + `"` }

// etagMatch reports whether an If-None-Match header matches the tag.
func etagMatch(header, etag string) bool {
	if header == "*" {
		return true
	}
	for _, c := range strings.Split(header, ",") {
		if strings.TrimSpace(c) == etag {
			return true
		}
	}
	return false
}

// errEnvelope is the uniform JSON error body. "error" stays a plain
// human-readable string (clients and older tests parse exactly that key);
// "code" is a stable machine-readable discriminator and "status" echoes
// the HTTP status for clients that lose it in a proxy hop.
type errEnvelope struct {
	Error  string `json:"error"`
	Code   string `json:"code"`
	Status int    `json:"status"`
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeErrCode(w, status, codeFor(status, err), err)
}

func writeErrCode(w http.ResponseWriter, status int, code string, err error) {
	if status == http.StatusServiceUnavailable {
		// Both overload and a degraded store are retryable conditions;
		// tell well-behaved clients when to come back.
		w.Header().Set("Retry-After", "10")
	}
	writeJSON(w, status, errEnvelope{Error: err.Error(), Code: code, Status: status})
}

// codeFor names the error class for the envelope's machine-readable code.
func codeFor(status int, err error) string {
	switch {
	case errors.Is(err, store.ErrReplica):
		return "read_only_replica"
	case errors.Is(err, store.ErrDegraded):
		return "degraded"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "timeout"
	case errors.Is(err, store.ErrConflict), errors.Is(err, tasks.ErrTaskClosed):
		return "conflict"
	case errors.Is(err, store.ErrNotFound):
		return "not_found"
	case errors.Is(err, auth.ErrNoSession):
		return "unauthorized"
	case errors.Is(err, auth.ErrForbidden), errors.Is(err, auth.ErrInactive):
		return "forbidden"
	case errors.Is(err, vocab.ErrDuplicate), errors.Is(err, store.ErrUnique):
		return "duplicate"
	}
	switch status {
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "bad_request"
	}
}

// statusFor maps service errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, store.ErrReplica), errors.Is(err, store.ErrDegraded):
		// Store can't accept writes; reads still work. Replicas reject
		// writes by design, degraded stores until the operator clears the
		// fault — either way the client should retry against a writable
		// server, hence 503 + Retry-After (the degraded envelope).
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, auth.ErrNoSession):
		return http.StatusUnauthorized
	case errors.Is(err, auth.ErrForbidden), errors.Is(err, auth.ErrInactive):
		return http.StatusForbidden
	case errors.Is(err, vocab.ErrDuplicate), errors.Is(err, store.ErrUnique),
		errors.Is(err, store.ErrConflict), errors.Is(err, tasks.ErrTaskClosed):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func decode(r *http.Request, v any) error {
	defer r.Body.Close()
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func pathID(r *http.Request, name string) (int64, error) {
	return strconv.ParseInt(r.PathValue(name), 10, 64)
}

// --- session ------------------------------------------------------------------

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req struct{ Login, Password string }
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	token, err := s.sys.Auth.Login(req.Login, req.Password)
	if err != nil {
		writeErr(w, http.StatusUnauthorized, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"token": token})
}

func (s *Server) handleLogout(w http.ResponseWriter, r *http.Request) {
	s.sys.Auth.Logout(bearerToken(r))
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// --- dashboard & stats ----------------------------------------------------------

var dashboardTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html><head><title>B-Fabric</title></head><body>
<h1>B-Fabric — Swiss Army Knife for Life Sciences</h1>
<table border="1" cellpadding="4">
<tr><td>Users</td><td>{{.Users}}</td><td>Samples</td><td>{{.Samples}}</td></tr>
<tr><td>Projects</td><td>{{.Projects}}</td><td>Extracts</td><td>{{.Extracts}}</td></tr>
<tr><td>Institutes</td><td>{{.Institutes}}</td><td>Data Resources</td><td>{{.DataResources}}</td></tr>
<tr><td>Organizations</td><td>{{.Organizations}}</td><td>Workunits</td><td>{{.Workunits}}</td></tr>
</table>
</body></html>`))

// handleDashboard renders the landing-page statistics table. The table is
// fully determined by the pinned store version — every cell is an O(1)
// maintained live count — so the page carries the seq-keyed validator and
// a matching If-None-Match answers 304 before any counting or templating
// runs, same contract as /api/stats.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	inm := r.Header.Get("If-None-Match")
	var st model.Stats
	notModified := false
	var etag string
	err := s.sys.View(func(tx *store.Tx) error {
		etag = etagFor(tx.Snapshot())
		if inm != "" && etagMatch(inm, etag) {
			notModified = true
			return nil
		}
		st = s.sys.DB.CollectStatsTx(tx)
		return nil
	})
	if err != nil {
		// A closed store refuses transactions; render the final version
		// unconditionally.
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_ = dashboardTmpl.Execute(w, s.sys.DB.CollectStats())
		return
	}
	w.Header().Set("ETag", etag)
	if notModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = dashboardTmpl.Execute(w, st)
}

// handleStats serves the deployment statistics table conditionally: the
// response is fully determined by the pinned store version, so its seq is
// the entity tag and a matching If-None-Match answers 304 before any
// counting work runs.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	inm := r.Header.Get("If-None-Match")
	var st model.Stats
	notModified := false
	var etag string
	err := s.sys.View(func(tx *store.Tx) error {
		etag = etagFor(tx.Snapshot())
		if inm != "" && etagMatch(inm, etag) {
			notModified = true
			return nil
		}
		st = s.sys.DB.CollectStatsTx(tx)
		return nil
	})
	if err != nil {
		// A closed store refuses transactions; fall back to the
		// unconditional collection path, which reads the final version.
		writeJSON(w, http.StatusOK, s.sys.DB.CollectStats())
		return
	}
	w.Header().Set("ETag", etag)
	if notModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStatsGrouped serves the live-count histogram of one kind grouped
// by an indexed field — GET /api/stats/{kind}?by=field. The aggregate
// engine answers it by walking the grouping index's distinct keys
// (count(postings)): cost is O(distinct values), never O(rows), so the
// endpoint is safe to poll at any population size. The response is fully
// determined by the pinned version, so it carries the same seq-keyed
// validator as /api/stats; explain=1 appends the executed aggregate plan.
func (s *Server) handleStatsGrouped(w http.ResponseWriter, r *http.Request) {
	kindName := r.PathValue("kind")
	if s.sys.Registry.Kind(kindName) == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("portal: unknown kind %q", kindName))
		return
	}
	by := r.URL.Query().Get("by")
	if by == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("portal: missing by=<field> parameter"))
		return
	}
	explain := r.URL.Query().Get("explain") == "1"
	inm := r.Header.Get("If-None-Match")
	var groups []model.GroupedCount
	var plan string
	var asOf uint64
	notModified := false
	err := s.sys.View(func(tx *store.Tx) error {
		asOf = tx.Snapshot()
		if inm != "" && etagMatch(inm, etagFor(asOf)) {
			notModified = true
			return nil
		}
		var err error
		if groups, err = s.sys.DB.CountsBy(tx, kindName, by); err != nil {
			return err
		}
		if explain {
			p, err := tx.ExplainAgg(store.Query{Table: kindName}.GroupBy(by))
			if err != nil {
				return err
			}
			plan = p.String()
		}
		return nil
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	etag := etagFor(asOf)
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "private")
	if notModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	resp := map[string]any{"kind": kindName, "by": by, "groups": groups, "asOf": asOf}
	if explain {
		resp["plan"] = plan
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTaskSummary reports the task-queue health snapshot: per-state
// counts and the open backlog per role queue, all from maintained
// counters.
func (s *Server) handleTaskSummary(w http.ResponseWriter, r *http.Request) {
	var out tasks.Summary
	err := s.sys.View(func(tx *store.Tx) error {
		var err error
		out, err = s.sys.Tasks.Summarize(tx)
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleAuditSummary reports the manipulation-log rollup (admin only,
// like the raw log itself).
func (s *Server) handleAuditSummary(w http.ResponseWriter, r *http.Request) {
	login := loginOf(r)
	var out audit.Summary
	err := s.sys.View(func(tx *store.Tx) error {
		if err := s.sys.Auth.RequireRole(tx, login, model.RoleAdmin); err != nil {
			return err
		}
		var err error
		out, err = s.sys.Audit.Summarize(tx)
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// --- health probes ---------------------------------------------------------------

// handleHealthz is the liveness probe: the process is up and serving.
// Deliberately independent of store health — a degraded (read-only) system
// must not be restarted by an orchestrator, it still serves reads.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz is the writability probe: 200 while the store accepts
// writes, 503 with the degradation reason once it has failed into
// read-only mode. Load balancers can use it to route writes elsewhere
// while keeping read traffic here.
//
// On a replica portal the answer follows the store's CURRENT role, not
// the boot-time configuration: 503 while the store is in replica mode
// (this server refuses writes by design), flipping to the primary
// answer the moment a promotion opens the write gate — so re-pointing a
// write balancer at a freshly promoted replica needs no restart.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.sys.Health()
	if s.replicaStatus != nil && s.sys.Store.IsReplica() {
		// A replica never accepts writes, so the honest answer to "route
		// writes here?" is 503; the replication status rides along so
		// operators see lag, epoch and connectivity in the same probe.
		w.Header().Set("Retry-After", "10")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ok": false, "reason": "read-only replica",
			"epoch":  s.sys.Store.Epoch(),
			"health": h, "replication": s.replicaStatus(),
		})
		return
	}
	if s.replicaStatus != nil {
		// Booted as a replica, since promoted: a writable primary. Keep
		// the promotion visible in the probe body alongside the health.
		status := http.StatusOK
		if !h.OK {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "10")
		}
		writeJSON(w, status, map[string]any{
			"ok": h.OK, "reason": h.Reason, "promoted": true,
			"epoch": s.sys.Store.Epoch(), "health": h,
		})
		return
	}
	if h.OK {
		writeJSON(w, http.StatusOK, h)
		return
	}
	w.Header().Set("Retry-After", "10")
	writeJSON(w, http.StatusServiceUnavailable, h)
}

// handleReplication reports this node's replication coordinates: role,
// epoch (the fencing token) and committed head on every server, plus the
// follower's status report (lag, last contact age, resyncs) on portals
// fronting a replica — promoted or not. Primaries answer too: the epoch
// is what an operator compares across nodes when deciding who fences
// whom.
func (s *Server) handleReplication(w http.ResponseWriter, _ *http.Request) {
	role := "primary"
	if s.sys.Store.IsReplica() {
		role = "replica"
	}
	out := map[string]any{
		"role":      role,
		"epoch":     s.sys.Store.Epoch(),
		"commitSeq": s.sys.Store.CommitSeq(),
	}
	if s.replicaStatus != nil {
		out["replication"] = s.replicaStatus()
		if !s.sys.Store.IsReplica() {
			out["promoted"] = true
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePromote performs failover promotion of the replica behind this
// portal (admin only): the store's epoch is durably advanced past the
// old primary's and the write gate opens. The old timeline is fenced
// from that moment — see docs/replication.md, "Failover runbook".
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.promote == nil {
		writeErrCode(w, http.StatusNotFound, "not_found",
			errors.New("portal: this server has no promotable replica"))
		return
	}
	login := loginOf(r)
	if err := s.sys.View(func(tx *store.Tx) error {
		return s.sys.Auth.RequireRole(tx, login, model.RoleAdmin)
	}); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	if !s.sys.Store.IsReplica() {
		writeErrCode(w, http.StatusConflict, "conflict",
			errors.New("portal: store is already a primary"))
		return
	}
	res, err := s.promote()
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"promotion": res,
		"epoch":     s.sys.Store.Epoch(),
		"commitSeq": s.sys.Store.CommitSeq(),
	})
}

// --- tasks ---------------------------------------------------------------------

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	login := loginOf(r)
	var out any
	err := s.sys.View(func(tx *store.Tx) error {
		u, err := s.sessionUser(tx, r)
		if err != nil {
			return err
		}
		ts, err := s.sys.Tasks.ListOpen(tx, login, u.Role)
		if err != nil {
			return err
		}
		out = ts
		return nil
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCompleteTask marks a task done on behalf of the caller. Completion
// goes through Tasks.CompleteCtx — an optimistic transaction retried on
// conflict — because clearing a shared role queue is exactly the contended
// read-modify-write the retry helper exists for. Losing the final race
// (someone else completed it between retries) surfaces as 409.
func (s *Server) handleCompleteTask(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r, "id")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	login := loginOf(r)
	err = s.sys.View(func(tx *store.Tx) error {
		u, err := s.sessionUser(tx, r)
		if err != nil {
			return err
		}
		t, err := s.sys.Tasks.Get(tx, id)
		if err != nil {
			return err
		}
		if u.Role != model.RoleAdmin && t.AssigneeLogin != login && t.AssigneeRole != u.Role {
			return fmt.Errorf("portal: task %d is not assigned to %s: %w", id, login, auth.ErrForbidden)
		}
		return nil
	})
	if err == nil {
		err = s.sys.Tasks.CompleteCtx(r.Context(), login, id)
	}
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// --- samples & extracts -----------------------------------------------------------

// checkVocab validates every vocabulary-bound value of a sample/extract
// against the annotation store, the portal-level enforcement of controlled
// vocabularies.
func (s *Server) checkVocab(tx *store.Tx, pairs map[string]string) error {
	for vocabName, value := range pairs {
		if value == "" {
			continue
		}
		if !s.sys.Vocab.Exists(tx, vocabName, value) {
			return fmt.Errorf("portal: %q is not a known %s annotation (create it first)", value, vocabName)
		}
	}
	return nil
}

func (s *Server) handleCreateSample(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Sample model.Sample
		// Batch registers Batch copies named "<prefix>_i" when > 0.
		Batch  int
		Prefix string
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	login := loginOf(r)
	var ids []int64
	err := s.sys.Update(func(tx *store.Tx) error {
		u, err := s.sessionUser(tx, r)
		if err != nil {
			return err
		}
		if err := s.sys.Auth.RequireProjectUser(tx, u, req.Sample.Project); err != nil {
			return err
		}
		if err := s.checkVocab(tx, map[string]string{
			model.VocabSpecies:      req.Sample.Species,
			model.VocabTissue:       req.Sample.Tissue,
			model.VocabDiseaseState: req.Sample.DiseaseState,
			model.VocabCellType:     req.Sample.CellType,
			model.VocabTreatment:    req.Sample.Treatment,
		}); err != nil {
			return err
		}
		if req.Batch > 0 {
			var err error
			ids, err = s.sys.DB.BatchCreateSamples(tx, login, req.Sample, req.Prefix, req.Batch)
			return err
		}
		id, err := s.sys.DB.CreateSample(tx, login, req.Sample)
		ids = []int64{id}
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string][]int64{"ids": ids})
}

func (s *Server) handleGetSample(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r, "id")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var sample model.Sample
	err = s.sys.View(func(tx *store.Tx) error {
		sm, err := s.sys.DB.GetSample(tx, id)
		if err != nil {
			return err
		}
		u, err := s.sessionUser(tx, r)
		if err != nil {
			return err
		}
		if err := s.sys.Auth.RequireProjectUser(tx, u, sm.Project); err != nil {
			return err
		}
		sample = sm
		return nil
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, sample)
}

func (s *Server) handleCloneSample(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r, "id")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var req struct{ Name string }
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var clone int64
	err = s.sys.Update(func(tx *store.Tx) error {
		sm, err := s.sys.DB.GetSample(tx, id)
		if err != nil {
			return err
		}
		if err := s.sys.Auth.RequireProject(tx, loginOf(r), sm.Project); err != nil {
			return err
		}
		clone, err = s.sys.DB.CloneSample(tx, loginOf(r), id, req.Name)
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"id": clone})
}

func (s *Server) handleCreateExtract(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Extract model.Extract
		Batch   int
		Prefix  string
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	login := loginOf(r)
	var ids []int64
	err := s.sys.Update(func(tx *store.Tx) error {
		sm, err := s.sys.DB.GetSample(tx, req.Extract.Sample)
		if err != nil {
			return err
		}
		u, err := s.sessionUser(tx, r)
		if err != nil {
			return err
		}
		if err := s.sys.Auth.RequireProjectUser(tx, u, sm.Project); err != nil {
			return err
		}
		if err := s.checkVocab(tx, map[string]string{
			model.VocabExtractionMethod: req.Extract.ExtractionMethod,
			model.VocabLabel:            req.Extract.Label,
		}); err != nil {
			return err
		}
		if req.Batch > 0 {
			ids, err = s.sys.DB.BatchCreateExtracts(tx, login, req.Extract, req.Prefix, req.Batch)
			return err
		}
		id, err := s.sys.DB.CreateExtract(tx, login, req.Extract)
		ids = []int64{id}
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string][]int64{"ids": ids})
}

// --- annotations -----------------------------------------------------------------

func (s *Server) handleListAnnotations(w http.ResponseWriter, r *http.Request) {
	vocabName := r.URL.Query().Get("vocabulary")
	state := r.URL.Query().Get("state")
	var out []vocab.Term
	err := s.sys.View(func(tx *store.Tx) error {
		var err error
		out, err = s.sys.Vocab.Terms(tx, vocabName, state)
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreateAnnotation(w http.ResponseWriter, r *http.Request) {
	var req struct{ Vocabulary, Value string }
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var term vocab.Term
	err := s.sys.Update(func(tx *store.Tx) error {
		var err error
		term, err = s.sys.Vocab.AddTerm(tx, loginOf(r), req.Vocabulary, req.Value, false)
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	// Surface merge candidates right away, as the annotation view does.
	var cands []vocab.Candidate
	_ = s.sys.View(func(tx *store.Tx) error {
		cands, _ = s.sys.Vocab.Similar(tx, req.Vocabulary, req.Value)
		return nil
	})
	writeJSON(w, http.StatusCreated, map[string]any{"term": term, "similar": cands})
}

func (s *Server) handleReleaseAnnotation(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r, "id")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	login := loginOf(r)
	err = s.sys.Update(func(tx *store.Tx) error {
		if err := s.sys.Auth.RequireRole(tx, login, model.RoleExpert); err != nil {
			return err
		}
		return s.sys.Vocab.Release(tx, login, id)
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleMergeAnnotations(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Keep, Drop int64
		NewValue   string
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	login := loginOf(r)
	var res vocab.MergeResult
	err := s.sys.Update(func(tx *store.Tx) error {
		if err := s.sys.Auth.RequireRole(tx, login, model.RoleExpert); err != nil {
			return err
		}
		var err error
		res, err = s.sys.Vocab.Merge(tx, login, req.Keep, req.Drop, req.NewValue)
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleRecommendations(w http.ResponseWriter, r *http.Request) {
	var out map[int64][]vocab.Candidate
	err := s.sys.View(func(tx *store.Tx) error {
		var err error
		out, err = s.sys.Vocab.Recommendations(tx)
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// --- import ------------------------------------------------------------------------

func (s *Server) handleProviders(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Providers.Names())
}

func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Provider     string
		Paths        []string
		Link         bool
		WorkunitName string
		Project      int64
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	login := loginOf(r)
	mode := importer.Copy
	if req.Link {
		mode = importer.Link
	}
	var res importer.Result
	err := s.sys.Update(func(tx *store.Tx) error {
		u, err := s.sessionUser(tx, r)
		if err != nil {
			return err
		}
		if err := s.sys.Auth.RequireProjectUser(tx, u, req.Project); err != nil {
			return err
		}
		res, err = s.sys.Importer.Import(tx, importer.Request{
			Provider: req.Provider, Paths: req.Paths, Mode: mode,
			WorkunitName: req.WorkunitName, Project: req.Project,
			Owner: u.ID, Actor: login,
		})
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, res)
}

func (s *Server) handleMatches(w http.ResponseWriter, r *http.Request) {
	wu, err := pathID(r, "workunit")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	apply := r.URL.Query().Get("apply") == "1"
	var matches []importer.Match
	run := s.sys.View
	if apply {
		run = s.sys.Update
	}
	err = run(func(tx *store.Tx) error {
		var err error
		matches, err = s.sys.Importer.BestMatches(tx, wu)
		if err != nil {
			return err
		}
		if apply {
			return s.sys.Importer.ApplyMatches(tx, loginOf(r), matches)
		}
		return nil
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, matches)
}

func (s *Server) handleCompleteImport(w http.ResponseWriter, r *http.Request) {
	instance, err := pathID(r, "instance")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	err = s.sys.Update(func(tx *store.Tx) error {
		return s.sys.Importer.CompleteImport(tx, loginOf(r), instance)
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// --- applications & experiments -------------------------------------------------------

func (s *Server) handleRegisterApplication(w http.ResponseWriter, r *http.Request) {
	var req model.Application
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	login := loginOf(r)
	var id int64
	err := s.sys.Update(func(tx *store.Tx) error {
		if _, err := s.sys.Connectors.Get(req.Connector); err != nil {
			return err
		}
		var err error
		id, err = s.sys.DB.CreateApplication(tx, login, req)
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"id": id})
}

func (s *Server) handleCreateExperiment(w http.ResponseWriter, r *http.Request) {
	var req model.Experiment
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	login := loginOf(r)
	var id int64
	err := s.sys.Update(func(tx *store.Tx) error {
		if err := s.sys.Auth.RequireProject(tx, login, req.Project); err != nil {
			return err
		}
		var err error
		id, err = s.sys.DB.CreateExperiment(tx, login, req)
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"id": id})
}

func (s *Server) handleRunExperiment(w http.ResponseWriter, r *http.Request) {
	expID, err := pathID(r, "id")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var req struct {
		Application  int64
		WorkunitName string
		Params       map[string]string
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	login := loginOf(r)
	var res apps.RunResult
	err = s.sys.Update(func(tx *store.Tx) error {
		exp, err := s.sys.DB.GetExperiment(tx, expID)
		if err != nil {
			return err
		}
		u, err := s.sessionUser(tx, r)
		if err != nil {
			return err
		}
		if err := s.sys.Auth.RequireProjectUser(tx, u, exp.Project); err != nil {
			return err
		}
		res, err = s.sys.Executor.RunExperiment(tx, apps.RunRequest{
			Experiment: expID, Application: req.Application,
			WorkunitName: req.WorkunitName, Params: req.Params,
			Actor: login, Owner: u.ID,
		})
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// --- workunits, download, browse, workflows ---------------------------------------------

func (s *Server) handleGetWorkunit(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r, "id")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var out struct {
		Workunit  model.Workunit
		Resources []model.DataResource
	}
	err = s.sys.View(func(tx *store.Tx) error {
		wu, err := s.sys.DB.GetWorkunit(tx, id)
		if err != nil {
			return err
		}
		u, err := s.sessionUser(tx, r)
		if err != nil {
			return err
		}
		if err := s.sys.Auth.RequireProjectUser(tx, u, wu.Project); err != nil {
			return err
		}
		rs, err := s.sys.DB.ResourcesOfWorkunit(tx, id)
		if err != nil {
			return err
		}
		out.Workunit, out.Resources = wu, rs
		return nil
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDownload(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r, "id")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var res model.DataResource
	err = s.sys.View(func(tx *store.Tx) error {
		dr, err := s.sys.DB.GetDataResource(tx, id)
		if err != nil {
			return err
		}
		wu, err := s.sys.DB.GetWorkunit(tx, dr.Workunit)
		if err != nil {
			return err
		}
		u, err := s.sessionUser(tx, r)
		if err != nil {
			return err
		}
		if err := s.sys.Auth.RequireProjectUser(tx, u, wu.Project); err != nil {
			return err
		}
		res = dr
		return nil
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	data, err := s.sys.Storage.Open(res.URI)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", res.Name))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// recordProject resolves the project that gates visibility of a record, or
// 0 when the kind is not project-scoped (organizations, users, ...). A
// negative result means the scope could not be resolved; hide the record.
func recordProject(tx *store.Tx, kind string, rec store.Row) int64 {
	switch kind {
	case model.KindProject:
		return rec.ID()
	case model.KindExtract:
		if sm, err := tx.GetRef(model.KindSample, rec.Int("sample")); err == nil {
			return sm.Int("project")
		}
		return -1
	case model.KindDataResource:
		if wu, err := tx.GetRef(model.KindWorkunit, rec.Int("workunit")); err == nil {
			return wu.Int("project")
		}
		return -1
	default:
		return rec.Int("project")
	}
}

// browseFilters converts the request's free query parameters into typed
// predicates against the kind's schema. Every parameter other than the
// paging/diagnostic ones ("from", "limit", "explain") must name a schema
// field; values are parsed according to the field's declared type, and a
// parameter repeated n times becomes an In predicate over its n values.
// Unknown fields, unfilterable field types (lists) and malformed values
// are reported as errors — the handler turns them into 400s.
func browseFilters(kind *entity.Kind, params url.Values) ([]store.Pred, error) {
	var preds []store.Pred
	for name, raws := range params {
		switch name {
		case "from", "limit", "explain":
			continue
		}
		f := kind.Field(name)
		if f == nil {
			return nil, fmt.Errorf("portal: kind %q has no filterable field %q (fields: %s)",
				kind.Name, name, strings.Join(kind.FieldNames(), ", "))
		}
		values := make([]any, 0, len(raws))
		for _, raw := range raws {
			v, err := filterValue(f, raw)
			if err != nil {
				return nil, err
			}
			values = append(values, v)
		}
		if len(values) == 1 {
			preds = append(preds, store.Eq(name, values[0]))
		} else {
			preds = append(preds, store.Pred{Field: name, Op: store.OpIn, Values: values})
		}
	}
	return preds, nil
}

// filterValue parses one filter comparand per the schema field's type.
func filterValue(f *entity.Field, raw string) (any, error) {
	switch f.Type {
	case entity.String, entity.Text:
		return raw, nil
	case entity.Int, entity.Ref:
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("portal: field %q wants an integer, got %q", f.Name, raw)
		}
		return n, nil
	case entity.Float:
		x, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("portal: field %q wants a number, got %q", f.Name, raw)
		}
		return x, nil
	case entity.Bool:
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return nil, fmt.Errorf("portal: field %q wants a boolean, got %q", f.Name, raw)
		}
		return b, nil
	case entity.Time:
		t, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			return nil, fmt.Errorf("portal: field %q wants an RFC 3339 time, got %q", f.Name, raw)
		}
		return t, nil
	default:
		return nil, fmt.Errorf("portal: field %q of type %s is not filterable", f.Name, f.Type)
	}
}

// handleBrowseList serves an ordered, filtered, paginated listing of one
// entity kind:
//
//	GET /api/browse/{kind}?from=<id>&limit=<n>&<field>=<value>...
//
// Field filters are compiled into a declarative store query; the store's
// planner picks the access path (typically the most selective matching
// index) and Explain output is surfaced via ?explain=1 as the "plan"
// response field. Records are collected by reference (immutable committed
// snapshots) and serialized without cloning.
//
// The response carries a "next" keyset cursor to pass as the following
// page's from, plus the commit sequence ("asOf") of the store version the
// page was read from. The cursor is a record id, not an offset, so it
// survives filtering: however many rows a filter or the caller's access
// scope hides, passing next resumes exactly after the last record
// examined. Each page is internally consistent — the whole query,
// including the per-project access checks, runs against one pinned MVCC
// version and is never blocked by concurrent imports — while successive
// pages may observe newer versions; a client that sees "asOf" jump can
// restart from page one if it needs a fully frozen listing.
//
// Malformed requests — an invalid from/limit, an unknown or unfilterable
// filter field, a value that does not parse as the field's type — fail
// with a 400 JSON error rather than an empty page.
//
// Project scoping matches the single-object endpoints: experts and admins
// see everything, other users only records of their projects (access per
// project is resolved once and cached across the page).
func (s *Server) handleBrowseList(w http.ResponseWriter, r *http.Request) {
	kindName := r.PathValue("kind")
	kind := s.sys.Registry.Kind(kindName)
	if kind == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("portal: unknown kind %q", kindName))
		return
	}
	var from int64
	if v := r.URL.Query().Get("from"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil || parsed < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("portal: bad from %q", v))
			return
		}
		from = parsed
	}
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("portal: bad limit %q", v))
			return
		}
		if parsed > 500 {
			parsed = 500
		}
		limit = parsed
	}
	preds, err := browseFilters(kind, r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q := store.Query{Table: kindName, Where: preds}
	if from > 0 {
		q.Cursor = from - 1 // from is the first id to include; Cursor is exclusive
	}
	explain := r.URL.Query().Get("explain") == "1"
	inm := r.Header.Get("If-None-Match")

	// The page body streams into a pooled buffer as rows are scanned —
	// each row appends its JSON straight from its stored bytes — and
	// reaches the socket in one write, so a mid-scan error can still
	// become a clean error envelope.
	buf := getBuf()
	defer putBuf(buf)
	enc := json.NewEncoder(buf)
	var next int64
	var asOf uint64
	var plan string
	items := 0
	notModified := false
	err = s.sys.View(func(tx *store.Tx) error {
		asOf = tx.Snapshot()
		// Conditional fast path: the page is fully determined by the
		// pinned version, so a matching validator answers before the user
		// resolution and the query run. The auth middleware has already
		// vetted the session, and any commit that deactivated the caller
		// also advanced the seq past every tag handed out before it.
		if inm != "" && etagMatch(inm, etagFor(asOf)) {
			notModified = true
			return nil
		}
		u, err := s.sessionUser(tx, r)
		if err != nil {
			return err
		}
		rows, err := tx.Query(q)
		if err != nil {
			return err
		}
		if explain {
			plan = rows.Plan().String()
		}
		buf.WriteString(`{"items":[`)
		seeAll := u.Role == model.RoleAdmin || u.Role == model.RoleExpert
		allowed := map[int64]bool{}
		// Cap the rows examined per page so a heavily-restricted listing
		// (a user whose access scope hides most of what the filters match)
		// does bounded work per request; the cursor records where the
		// query stopped, so a short or empty page with next != 0 still
		// makes progress. Rows the filters exclude never reach this loop
		// on an indexed path — the budget buys out the access checks, not
		// the predicates.
		const scanBudget = 5000
		scanned := 0
		for rows.Next() {
			// Honor the request deadline mid-scan: a page over a large,
			// heavily-hidden listing is the one portal loop that can
			// outlive its request.
			if scanned%64 == 0 {
				if err := r.Context().Err(); err != nil {
					return err
				}
			}
			rec := rows.Record()
			if items == limit || scanned == scanBudget {
				next = rec.ID()
				return nil
			}
			scanned++
			if !seeAll {
				switch project := recordProject(tx, kindName, rec); {
				case project < 0:
					continue // unresolvable scope: hide
				case project > 0:
					ok, cached := allowed[project]
					if !cached {
						ok = s.sys.Auth.CanAccessProjectUser(tx, u, project)
						allowed[project] = ok
					}
					if !ok {
						continue
					}
				}
			}
			if items > 0 {
				buf.WriteByte(',')
			}
			// Each row ends in a newline, insignificant JSON whitespace,
			// as json.Encoder writes it.
			b, err := rec.AppendJSON(buf.AvailableBuffer())
			if err != nil {
				return err
			}
			buf.Write(append(b, '\n'))
			items++
		}
		return rows.Err()
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	etag := etagFor(asOf)
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "private")
	if notModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	fmt.Fprintf(buf, `],"next":%d,"asOf":%d`, next, asOf)
	if plan != "" {
		buf.WriteString(`,"plan":`)
		_ = enc.Encode(plan)
	}
	buf.WriteByte('}')
	writeRaw(w, http.StatusOK, buf)
}

func (s *Server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	kind := r.PathValue("kind")
	id, err := pathID(r, "id")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var out struct {
		Outgoing, Incoming any
	}
	err = s.sys.View(func(tx *store.Tx) error {
		og, in, err := s.sys.Registry.Neighbors(tx, kind, id)
		if err != nil {
			return err
		}
		out.Outgoing, out.Incoming = og, in
		return nil
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleWorkflowDOT(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r, "id")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var dot string
	err = s.sys.View(func(tx *store.Tx) error {
		inst, err := s.sys.Workflows.Get(tx, id)
		if err != nil {
			return err
		}
		def := s.sys.Workflows.Definition(inst.Definition)
		if def == nil {
			return fmt.Errorf("portal: unknown definition %q", inst.Definition)
		}
		dot = def.DOT(inst.Step)
		return nil
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	_, _ = w.Write([]byte(dot))
}

// --- search ------------------------------------------------------------------------------

// searchUnavailable answers 503 on replica portals, where the in-memory
// search index is knowingly empty: the index is built from write-path
// events the replica never sees (it applies raw WAL frames). Serving an
// empty index would return zero hits for everything — indistinguishable
// from "nothing matched" — so the replica refuses honestly with a
// machine-readable code and Retry-After instead of silently lying;
// clients route /api/search to the primary (see docs/replication.md).
//
// The gate follows the store's current role: once the replica is
// promoted (and the host rebuilds the index from the replicated state —
// see the Promote wiring in cmd/bfabric), search serves again without a
// restart.
func (s *Server) searchUnavailable(w http.ResponseWriter) bool {
	if s.replicaStatus == nil || !s.sys.Store.IsReplica() {
		return false
	}
	writeErrCode(w, http.StatusServiceUnavailable, "search_unavailable",
		errors.New("portal: search is not available on a read replica, query the primary"))
	return true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.searchUnavailable(w) {
		return
	}
	q := r.URL.Query().Get("q")
	hits, err := s.sys.Search.Search(loginOf(r), q)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, hits)
}

func (s *Server) handleSearchHistory(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Search.History(loginOf(r)))
}

func (s *Server) handleSaveQuery(w http.ResponseWriter, r *http.Request) {
	var req struct{ Name, Query string }
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var id int64
	err := s.sys.Update(func(tx *store.Tx) error {
		var err error
		id, err = s.sys.Search.SaveQuery(tx, loginOf(r), req.Name, req.Query)
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int64{"id": id})
}

func (s *Server) handleSavedQueries(w http.ResponseWriter, r *http.Request) {
	var out any
	err := s.sys.View(func(tx *store.Tx) error {
		qs, err := s.sys.Search.SavedQueries(tx, loginOf(r))
		out = qs
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if s.searchUnavailable(w) {
		return
	}
	q := r.URL.Query().Get("q")
	hits, err := s.sys.Search.Search(loginOf(r), q)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition", `attachment; filename="search.csv"`)
	_ = s.sys.Search.ExportCSV(w, hits)
}

// --- audit ----------------------------------------------------------------------------------

func (s *Server) handleAuditRecent(w http.ResponseWriter, r *http.Request) {
	login := loginOf(r)
	n := 50
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	var out any
	err := s.sys.View(func(tx *store.Tx) error {
		if err := s.sys.Auth.RequireRole(tx, login, model.RoleAdmin); err != nil {
			return err
		}
		es, err := s.sys.Audit.Recent(tx, n)
		out = es
		return err
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// --- project exchange (collaborative research) -----------------------------------------------

func (s *Server) handleExportProject(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r, "id")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	login := loginOf(r)
	if err := s.sys.View(func(tx *store.Tx) error {
		return s.sys.Auth.RequireProject(tx, login, id)
	}); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/zip")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("project-%d.zip", id)))
	if err := exchange.Export(s.sys, id, w); err != nil {
		// Headers already sent; log-style best effort.
		_, _ = w.Write([]byte(err.Error()))
	}
}

func (s *Server) handleImportProject(w http.ResponseWriter, r *http.Request) {
	login := loginOf(r)
	if err := s.sys.View(func(tx *store.Tx) error {
		return s.sys.Auth.RequireRole(tx, login, model.RoleAdmin)
	}); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	const maxArchive = 64 << 20
	data, err := io.ReadAll(io.LimitReader(r.Body, maxArchive))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := exchange.Import(s.sys, data, login)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, res)
}
