package auth

import (
	"errors"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/store"
)

type fixture struct {
	sv      *Service
	db      *model.DB
	s       *store.Store
	project int64
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	s := store.New()
	rg := entity.NewRegistry(s, events.NewBus())
	if err := model.RegisterSchema(rg); err != nil {
		t.Fatal(err)
	}
	db := model.NewDB(rg)
	sv := New(db)
	fx := &fixture{sv: sv, db: db, s: s}
	err := s.Update(func(tx *store.Tx) error {
		alice, err := db.CreateUser(tx, "setup", model.User{Login: "alice", Role: model.RoleScientist, Active: true})
		if err != nil {
			return err
		}
		if _, err := db.CreateUser(tx, "setup", model.User{Login: "eva", Role: model.RoleExpert, Active: true}); err != nil {
			return err
		}
		if _, err := db.CreateUser(tx, "setup", model.User{Login: "root", Role: model.RoleAdmin, Active: true}); err != nil {
			return err
		}
		if _, err := db.CreateUser(tx, "setup", model.User{Login: "gone", Role: model.RoleScientist, Active: false}); err != nil {
			return err
		}
		if _, err := db.CreateUser(tx, "setup", model.User{Login: "outsider", Role: model.RoleScientist, Active: true}); err != nil {
			return err
		}
		fx.project, err = db.CreateProject(tx, "setup", model.Project{Name: "p", Members: []int64{alice}})
		if err != nil {
			return err
		}
		for _, login := range []string{"alice", "eva", "root", "gone", "outsider"} {
			if err := sv.SetPassword(tx, login, login+"-secret"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func TestLoginLogout(t *testing.T) {
	fx := newFixture(t)
	token, err := fx.sv.Login("alice", "alice-secret")
	if err != nil {
		t.Fatal(err)
	}
	login, err := fx.sv.SessionLogin(token)
	if err != nil || login != "alice" {
		t.Fatalf("SessionLogin = %q, %v", login, err)
	}
	if fx.sv.ActiveSessions() != 1 {
		t.Error("session count wrong")
	}
	fx.sv.Logout(token)
	if _, err := fx.sv.SessionLogin(token); !errors.Is(err, ErrNoSession) {
		t.Errorf("after logout: %v", err)
	}
}

func TestLoginRejectsBadCredentials(t *testing.T) {
	fx := newFixture(t)
	if _, err := fx.sv.Login("alice", "wrong"); !errors.Is(err, ErrBadCredentials) {
		t.Errorf("wrong password: %v", err)
	}
	if _, err := fx.sv.Login("nobody", "x"); !errors.Is(err, ErrBadCredentials) {
		t.Errorf("unknown login: %v", err)
	}
}

func TestLoginRejectsInactiveUser(t *testing.T) {
	fx := newFixture(t)
	if _, err := fx.sv.Login("gone", "gone-secret"); !errors.Is(err, ErrInactive) {
		t.Errorf("inactive login: %v", err)
	}
}

func TestSessionExpiry(t *testing.T) {
	fx := newFixture(t)
	base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	old := nowFunc
	nowFunc = func() time.Time { return base }
	defer func() { nowFunc = old }()
	token, err := fx.sv.Login("alice", "alice-secret")
	if err != nil {
		t.Fatal(err)
	}
	nowFunc = func() time.Time { return base.Add(SessionTTL + time.Minute) }
	if _, err := fx.sv.SessionLogin(token); !errors.Is(err, ErrNoSession) {
		t.Errorf("expired session: %v", err)
	}
	if fx.sv.ActiveSessions() != 0 {
		t.Error("expired session counted")
	}
}

func TestSetPasswordReplaces(t *testing.T) {
	fx := newFixture(t)
	_ = fx.s.Update(func(tx *store.Tx) error {
		return fx.sv.SetPassword(tx, "alice", "new-secret")
	})
	if _, err := fx.sv.Login("alice", "alice-secret"); !errors.Is(err, ErrBadCredentials) {
		t.Error("old password still valid")
	}
	if _, err := fx.sv.Login("alice", "new-secret"); err != nil {
		t.Errorf("new password rejected: %v", err)
	}
}

func TestSetPasswordValidation(t *testing.T) {
	fx := newFixture(t)
	err := fx.s.Update(func(tx *store.Tx) error {
		return fx.sv.SetPassword(tx, "", "x")
	})
	if err == nil {
		t.Error("empty login accepted")
	}
	err = fx.s.Update(func(tx *store.Tx) error {
		return fx.sv.SetPassword(tx, "alice", "")
	})
	if err == nil {
		t.Error("empty password accepted")
	}
}

func TestRoles(t *testing.T) {
	fx := newFixture(t)
	_ = fx.s.View(func(tx *store.Tx) error {
		if !fx.sv.HasRole(tx, "eva", model.RoleExpert) {
			t.Error("eva lacks expert")
		}
		if fx.sv.HasRole(tx, "alice", model.RoleExpert) {
			t.Error("alice has expert")
		}
		// Admins hold every role.
		if !fx.sv.HasRole(tx, "root", model.RoleExpert) || !fx.sv.HasRole(tx, "root", model.RoleScientist) {
			t.Error("admin role subsumption failed")
		}
		if err := fx.sv.RequireRole(tx, "alice", model.RoleAdmin); !errors.Is(err, ErrForbidden) {
			t.Errorf("RequireRole: %v", err)
		}
		if err := fx.sv.RequireRole(tx, "eva", model.RoleExpert); err != nil {
			t.Errorf("RequireRole expert: %v", err)
		}
		if fx.sv.HasRole(tx, "ghost", model.RoleScientist) {
			t.Error("unknown login has role")
		}
		return nil
	})
}

func TestProjectAccess(t *testing.T) {
	fx := newFixture(t)
	_ = fx.s.View(func(tx *store.Tx) error {
		if !fx.sv.CanAccessProject(tx, "alice", fx.project) {
			t.Error("member denied")
		}
		if fx.sv.CanAccessProject(tx, "outsider", fx.project) {
			t.Error("outsider allowed")
		}
		if !fx.sv.CanAccessProject(tx, "eva", fx.project) {
			t.Error("expert denied")
		}
		if !fx.sv.CanAccessProject(tx, "root", fx.project) {
			t.Error("admin denied")
		}
		if err := fx.sv.RequireProject(tx, "outsider", fx.project); !errors.Is(err, ErrForbidden) {
			t.Errorf("RequireProject: %v", err)
		}
		if fx.sv.CanAccessProject(tx, "ghost", fx.project) {
			t.Error("unknown login allowed")
		}
		return nil
	})
}

func TestCoachHasAccess(t *testing.T) {
	fx := newFixture(t)
	var coachProject int64
	_ = fx.s.Update(func(tx *store.Tx) error {
		u, _ := fx.db.UserByLogin(tx, "outsider")
		var err error
		coachProject, err = fx.db.CreateProject(tx, "setup", model.Project{Name: "coached", Coach: u.ID})
		return err
	})
	_ = fx.s.View(func(tx *store.Tx) error {
		if !fx.sv.CanAccessProject(tx, "outsider", coachProject) {
			t.Error("coach denied access")
		}
		return nil
	})
}

func TestDistinctSaltsPerUser(t *testing.T) {
	fx := newFixture(t)
	_ = fx.s.View(func(tx *store.Tx) error {
		cred := func(login string) store.Row {
			rows, err := tx.Query(store.Query{Table: credTable, Where: []store.Pred{store.Eq("login", login)}})
			if err != nil || !rows.Next() {
				t.Fatalf("credential of %s: %v", login, err)
			}
			return rows.Record()
		}
		a, b := cred("alice"), cred("eva")
		if a.String("salt") == b.String("salt") {
			t.Error("salts identical")
		}
		if a.String("hash") == "" || len(a.String("hash")) != 64 {
			t.Error("hash malformed")
		}
		return nil
	})
}

func TestSessionUserResolvesAndCaches(t *testing.T) {
	fx := newFixture(t)
	token, err := fx.sv.Login("alice", "alice-secret")
	if err != nil {
		t.Fatal(err)
	}
	_ = fx.s.View(func(tx *store.Tx) error {
		u, err := fx.sv.SessionUser(tx, token)
		if err != nil || u.Login != "alice" || u.Role != model.RoleScientist {
			t.Fatalf("SessionUser = %+v, %v", u, err)
		}
		return nil
	})

	// A committed role change invalidates the cached user: the next
	// resolution on a fresh snapshot sees the new role.
	var aliceID int64
	_ = fx.s.Update(func(tx *store.Tx) error {
		u, _ := fx.db.UserByLogin(tx, "alice")
		aliceID = u.ID
		return fx.db.Registry().Update(tx, model.KindUser, u.ID, "test",
			map[string]any{"role": string(model.RoleExpert)})
	})
	_ = fx.s.View(func(tx *store.Tx) error {
		u, err := fx.sv.SessionUser(tx, token)
		if err != nil || u.Role != model.RoleExpert {
			t.Fatalf("after role change: %+v, %v", u, err)
		}
		return nil
	})

	// Deactivation is terminal for the session: ErrInactive on any later
	// snapshot, and never re-cached.
	_ = fx.s.Update(func(tx *store.Tx) error {
		return fx.db.Registry().Update(tx, model.KindUser, aliceID, "test",
			map[string]any{"active": false})
	})
	_ = fx.s.View(func(tx *store.Tx) error {
		if _, err := fx.sv.SessionUser(tx, token); !errors.Is(err, ErrInactive) {
			t.Fatalf("deactivated user: %v", err)
		}
		return nil
	})
}

func TestSessionUserPinnedSnapshot(t *testing.T) {
	// A read transaction pinned before a deactivating commit must keep
	// resolving the user as it stood at the pin — the cache's seq check
	// runs against the transaction's version, never "now".
	fx := newFixture(t)
	token, err := fx.sv.Login("alice", "alice-secret")
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := fx.s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Rollback()

	_ = fx.s.Update(func(tx *store.Tx) error {
		u, _ := fx.db.UserByLogin(tx, "alice")
		return fx.db.Registry().Update(tx, model.KindUser, u.ID, "test",
			map[string]any{"active": false})
	})

	if u, err := fx.sv.SessionUser(pinned, token); err != nil || u.Login != "alice" || !u.Active {
		t.Errorf("pinned snapshot: %+v, %v", u, err)
	}
	_ = fx.s.View(func(tx *store.Tx) error {
		if _, err := fx.sv.SessionUser(tx, token); !errors.Is(err, ErrInactive) {
			t.Errorf("fresh snapshot: %v", err)
		}
		return nil
	})
}

func TestSessionUserExpiredToken(t *testing.T) {
	fx := newFixture(t)
	base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	old := nowFunc
	nowFunc = func() time.Time { return base }
	defer func() { nowFunc = old }()
	token, err := fx.sv.Login("alice", "alice-secret")
	if err != nil {
		t.Fatal(err)
	}
	nowFunc = func() time.Time { return base.Add(SessionTTL + time.Minute) }
	_ = fx.s.View(func(tx *store.Tx) error {
		if _, err := fx.sv.SessionUser(tx, token); !errors.Is(err, ErrNoSession) {
			t.Errorf("expired token: %v", err)
		}
		if _, err := fx.sv.SessionUser(tx, "no-such-token"); !errors.Is(err, ErrNoSession) {
			t.Errorf("unknown token: %v", err)
		}
		return nil
	})
}
