// Package auth implements B-Fabric's access control: password credentials,
// portal sessions, and project-scoped authorization ("B-Fabric captures
// and provides the data transparently and in access-controlled fashion").
package auth

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/store"
)

const credTable = "credential"

// SessionTTL is how long a portal session stays valid without renewal.
const SessionTTL = 8 * time.Hour

// Sentinel errors.
var (
	// ErrBadCredentials is returned for unknown logins or wrong passwords.
	ErrBadCredentials = errors.New("invalid credentials")
	// ErrNoSession is returned for unknown or expired session tokens.
	ErrNoSession = errors.New("no such session")
	// ErrForbidden is returned when a user lacks access to a resource.
	ErrForbidden = errors.New("access denied")
	// ErrInactive is returned when an inactive user tries to log in.
	ErrInactive = errors.New("user is inactive")
)

// Service implements authentication and authorization.
type Service struct {
	db *model.DB

	mu       sync.Mutex
	sessions map[string]session
}

type session struct {
	login   string
	expires time.Time

	// Cached user resolution, the portal's per-request fast path. The
	// cache is valid for a reading transaction iff the user table's
	// commit stamp at that transaction's pinned version is <= userSeq:
	// any later commit touching the user table (role change,
	// deactivation, ...) forces revalidation from the reader's own
	// snapshot. Validity is decided against the pinned version, never
	// against "now", so the cache can neither serve a user state newer
	// than the snapshot nor outlive an invalidating commit.
	user    model.User
	userSeq uint64
	userOK  bool
}

// New creates the auth service.
func New(db *model.DB) *Service {
	s := db.Store()
	s.EnsureTable(credTable)
	if !s.HasTable(credTable + "_marker") {
		_ = s.CreateIndex(credTable, "login", true)
		s.EnsureTable(credTable + "_marker")
	}
	return &Service{db: db, sessions: make(map[string]session)}
}

// hashPassword derives the stored hash from a password and hex salt.
func hashPassword(password, salt string) string {
	sum := sha256.Sum256([]byte(salt + ":" + password))
	return hex.EncodeToString(sum[:])
}

func randomHex(n int) (string, error) {
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		return "", err
	}
	return hex.EncodeToString(buf), nil
}

// SetPassword creates or replaces the credential of a login.
func (sv *Service) SetPassword(tx *store.Tx, login, password string) error {
	if login == "" || password == "" {
		return fmt.Errorf("auth: empty login or password")
	}
	salt, err := randomHex(16)
	if err != nil {
		return err
	}
	rec := store.Record{
		"login": login,
		"salt":  salt,
		"hash":  hashPassword(password, salt),
	}
	rows, err := tx.Query(store.Query{Table: credTable, Where: []store.Pred{store.Eq("login", login)}})
	if err != nil {
		return err
	}
	ids, err := rows.IDs() // drained before the Put below writes the same table
	if err != nil {
		return err
	}
	if len(ids) > 0 {
		return tx.Put(credTable, ids[0], rec)
	}
	_, err = tx.Insert(credTable, rec)
	return err
}

// verify checks a password against the stored credential. The credential
// record is read by reference; only its string values are extracted.
func (sv *Service) verify(tx *store.Tx, login, password string) error {
	rows, err := tx.Query(store.Query{Table: credTable, Where: []store.Pred{store.Eq("login", login)}, Limit: 1})
	if err != nil {
		return err
	}
	if !rows.Next() {
		if err := rows.Err(); err != nil {
			return err
		}
		return ErrBadCredentials
	}
	r := rows.Record()
	want := r.String("hash")
	got := hashPassword(password, r.String("salt"))
	if subtle.ConstantTimeCompare([]byte(want), []byte(got)) != 1 {
		return ErrBadCredentials
	}
	return nil
}

// Login authenticates and returns a fresh session token. Inactive users
// are rejected even with correct credentials.
func (sv *Service) Login(login, password string) (string, error) {
	var user model.User
	var userSeq uint64
	err := sv.db.Store().View(func(tx *store.Tx) error {
		if err := sv.verify(tx, login, password); err != nil {
			return err
		}
		u, err := sv.db.UserByLogin(tx, login)
		if err != nil {
			if errors.Is(err, store.ErrNotFound) {
				return ErrBadCredentials
			}
			return err
		}
		user = u
		userSeq = tx.TableSeq(model.KindUser)
		return nil
	})
	if err != nil {
		return "", err
	}
	if !user.Active {
		return "", fmt.Errorf("auth: %s: %w", login, ErrInactive)
	}
	token, err := randomHex(24)
	if err != nil {
		return "", err
	}
	sv.mu.Lock()
	sv.sessions[token] = session{
		login:   login,
		expires: nowFunc().Add(SessionTTL),
		user:    user,
		userSeq: userSeq,
		userOK:  true,
	}
	sv.mu.Unlock()
	return token, nil
}

// Logout invalidates a session token. Unknown tokens are ignored.
func (sv *Service) Logout(token string) {
	sv.mu.Lock()
	delete(sv.sessions, token)
	sv.mu.Unlock()
}

// SessionLogin resolves a session token to its login.
func (sv *Service) SessionLogin(token string) (string, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s, ok := sv.sessions[token]
	if !ok {
		return "", ErrNoSession
	}
	if nowFunc().After(s.expires) {
		delete(sv.sessions, token)
		return "", ErrNoSession
	}
	return s.login, nil
}

// SessionUser resolves a session token to its full user record as of the
// transaction's pinned snapshot. Repeated calls on a hot session are a
// map lookup plus a table-stamp comparison — the UserByLogin index walk
// only runs when a commit has touched the user table since the cached
// resolution. Inactive users are rejected (and never cached), so a
// deactivation is enforced by every request whose snapshot includes it.
func (sv *Service) SessionUser(tx *store.Tx, token string) (model.User, error) {
	sv.mu.Lock()
	s, ok := sv.sessions[token]
	if !ok {
		sv.mu.Unlock()
		return model.User{}, ErrNoSession
	}
	if nowFunc().After(s.expires) {
		delete(sv.sessions, token)
		sv.mu.Unlock()
		return model.User{}, ErrNoSession
	}
	seq := tx.TableSeq(model.KindUser)
	if s.userOK && seq <= s.userSeq {
		u := s.user
		sv.mu.Unlock()
		return u, nil
	}
	sv.mu.Unlock()

	u, err := sv.db.UserByLogin(tx, s.login)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return model.User{}, fmt.Errorf("auth: %s: %w", s.login, ErrNoSession)
		}
		return model.User{}, err
	}
	if !u.Active {
		return model.User{}, fmt.Errorf("auth: %s: %w", s.login, ErrInactive)
	}
	sv.mu.Lock()
	// Re-check under the lock and only move the cache forward: a reader
	// pinned on an older snapshot must not clobber a newer resolution.
	if s2, ok := sv.sessions[token]; ok && (!s2.userOK || seq >= s2.userSeq) {
		s2.user, s2.userSeq, s2.userOK = u, seq, true
		sv.sessions[token] = s2
	}
	sv.mu.Unlock()
	return u, nil
}

// ActiveSessions returns the number of live sessions (expired ones are
// swept lazily).
func (sv *Service) ActiveSessions() int {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	n := 0
	now := nowFunc()
	for token, s := range sv.sessions {
		if now.After(s.expires) {
			delete(sv.sessions, token)
			continue
		}
		n++
	}
	return n
}

// HasRole reports whether the login holds the given role. Admins hold
// every role.
func (sv *Service) HasRole(tx *store.Tx, login, role string) bool {
	u, err := sv.db.UserByLogin(tx, login)
	if err != nil {
		return false
	}
	return HasRoleUser(u, role)
}

// HasRoleUser reports whether an already-resolved user holds the given
// role. Admins hold every role.
func HasRoleUser(u model.User, role string) bool {
	return u.Role == role || u.Role == model.RoleAdmin
}

// RequireRole returns ErrForbidden unless the login holds the role.
func (sv *Service) RequireRole(tx *store.Tx, login, role string) error {
	if !sv.HasRole(tx, login, role) {
		return fmt.Errorf("auth: %s lacks role %s: %w", login, role, ErrForbidden)
	}
	return nil
}

// RequireRoleUser returns ErrForbidden unless the already-resolved user
// holds the role.
func RequireRoleUser(u model.User, role string) error {
	if !HasRoleUser(u, role) {
		return fmt.Errorf("auth: %s lacks role %s: %w", u.Login, role, ErrForbidden)
	}
	return nil
}

// CanAccessProject reports whether the login may see a project's data:
// project members and the coach may, experts and admins may see everything.
func (sv *Service) CanAccessProject(tx *store.Tx, login string, project int64) bool {
	u, err := sv.db.UserByLogin(tx, login)
	if err != nil {
		return false
	}
	return sv.CanAccessProjectUser(tx, u, project)
}

// CanAccessProjectUser is CanAccessProject for an already-resolved user,
// sparing the per-call login index walk on hot paths.
func (sv *Service) CanAccessProjectUser(tx *store.Tx, u model.User, project int64) bool {
	if u.Role == model.RoleAdmin || u.Role == model.RoleExpert {
		return true
	}
	members, err := sv.db.ProjectMembers(tx, project)
	if err != nil {
		return false
	}
	for _, m := range members {
		if m == u.ID {
			return true
		}
	}
	return false
}

// RequireProject returns ErrForbidden unless the login can access the
// project.
func (sv *Service) RequireProject(tx *store.Tx, login string, project int64) error {
	if !sv.CanAccessProject(tx, login, project) {
		return fmt.Errorf("auth: %s cannot access project %d: %w", login, project, ErrForbidden)
	}
	return nil
}

// RequireProjectUser is RequireProject for an already-resolved user.
func (sv *Service) RequireProjectUser(tx *store.Tx, u model.User, project int64) error {
	if !sv.CanAccessProjectUser(tx, u, project) {
		return fmt.Errorf("auth: %s cannot access project %d: %w", u.Login, project, ErrForbidden)
	}
	return nil
}

var nowFunc = func() time.Time { return time.Now().UTC() }
