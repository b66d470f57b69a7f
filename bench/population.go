package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/genload"
	"repro/internal/model"
	"repro/internal/store"
)

const (
	// benchUsers is the size of the client pool: more sessions than
	// connections, so the session-user cache holds more than it serves at
	// any instant.
	benchUsers    = 64
	benchPassword = "bench-pw"
	// memberships is how many genload projects each scientist joins; the
	// first is the home project its writes go to.
	memberships = 6
	// idsPerUser caps the object ids a user's reads draw from.
	idsPerUser = 48
)

// benchUser is one client identity and what the script may ask it to do.
type benchUser struct {
	Login   string
	Role    string
	SeeAll  bool     // admin or expert: unrestricted browse
	Home    int64    // project the user registers samples into
	Member  []int64  // projects a scientist can see (Home first)
	Samples []int64  // pre-existing samples the user may read
	Homers  []int64  // pre-existing samples of Home, parents for new extracts
	Units   []int64  // pre-existing workunits the user may read
	Streams []stream // the browse listings the user pages through
}

// population is what the script generator needs to know about the loaded
// data. It is a pure function of (scale, seed).
type population struct {
	Users       []benchUser
	Samples     int // pre-existing samples; search terms are their names
	Rows        int // live rows over all tables after the load
	LastSample  int64
	LastExtract int64
}

// loadPopulation writes the seeded genload population plus the bench user
// pool into sys, every record through model -> store (-> WAL when sys is
// durable), and returns the catalogue the script is generated from.
func loadPopulation(sys *core.System, scale float64, seed int64) (*population, error) {
	profile := genload.FGCZJan2010.Scaled(scale)
	profile.Seed += seed
	if err := genload.Generate(sys, profile); err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}

	samplesOf := map[int64][]int64{}
	unitsOf := map[int64][]int64{}
	var allSamples, allUnits []int64
	pop := &population{}
	err := sys.View(func(tx *store.Tx) error {
		collect := func(kind string, byProject map[int64][]int64, all *[]int64) error {
			rows, err := tx.Query(store.Query{Table: kind})
			if err != nil {
				return err
			}
			for rows.Next() {
				r := rows.Record()
				byProject[r.Int("project")] = append(byProject[r.Int("project")], r.ID())
				*all = append(*all, r.ID())
			}
			return rows.Err()
		}
		if err := collect(model.KindSample, samplesOf, &allSamples); err != nil {
			return err
		}
		return collect(model.KindWorkunit, unitsOf, &allUnits)
	})
	if err != nil {
		return nil, fmt.Errorf("population: catalogue: %w", err)
	}
	var eligible []int64
	for p, ss := range samplesOf {
		if len(ss) > 0 && len(unitsOf[p]) > 0 {
			eligible = append(eligible, p)
		}
	}
	sort.Slice(eligible, func(i, j int) bool { return eligible[i] < eligible[j] })
	if len(eligible) == 0 {
		return nil, fmt.Errorf("population: scale %v leaves no project with both samples and workunits", scale)
	}

	rng := rand.New(rand.NewSource(seed*7919 + 17))
	pick := func(ids []int64, n int) []int64 {
		out := make([]int64, 0, n)
		for _, i := range rng.Perm(len(ids)) {
			if len(out) == n {
				break
			}
			out = append(out, ids[i])
		}
		return out
	}
	users := make([]benchUser, benchUsers)
	for i := range users {
		u := benchUser{Login: fmt.Sprintf("bench%04d", i+1), Role: model.RoleScientist}
		switch {
		case i == 0:
			u.Role = model.RoleAdmin
		case i%8 == 1:
			u.Role = model.RoleExpert
		}
		u.SeeAll = u.Role != model.RoleScientist
		u.Member = pick(eligible, memberships)
		u.Home = u.Member[0]
		u.Homers = samplesOf[u.Home]
		if u.SeeAll {
			u.Member = nil
			u.Samples = pick(allSamples, idsPerUser)
			u.Units = pick(allUnits, idsPerUser)
		} else {
			var ss, ws []int64
			for _, p := range u.Member {
				ss = append(ss, samplesOf[p]...)
				ws = append(ws, unitsOf[p]...)
			}
			u.Samples = pick(ss, idsPerUser)
			u.Units = pick(ws, idsPerUser)
		}
		u.Streams = streamsFor(u)
		users[i] = u
	}

	err = sys.Update(func(tx *store.Tx) error {
		joins := map[int64][]int64{}
		for _, u := range users {
			id, err := sys.DB.CreateUser(tx, "bench", model.User{
				Login: u.Login, FullName: "Bench " + u.Login, Role: u.Role, Active: true,
			})
			if err != nil {
				return err
			}
			if err := sys.Auth.SetPassword(tx, u.Login, benchPassword); err != nil {
				return err
			}
			for _, p := range u.Member {
				joins[p] = append(joins[p], id)
			}
		}
		projects := make([]int64, 0, len(joins))
		for p := range joins {
			projects = append(projects, p)
		}
		sort.Slice(projects, func(i, j int) bool { return projects[i] < projects[j] })
		for _, p := range projects {
			members, err := sys.DB.ProjectMembers(tx, p)
			if err != nil {
				return err
			}
			err = sys.Registry.Update(tx, model.KindProject, p, "bench",
				map[string]any{"members": append(members, joins[p]...)})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("population: bench users: %w", err)
	}

	pop.Users = users
	pop.Samples = len(allSamples)
	err = sys.View(func(tx *store.Tx) error {
		for _, t := range tx.Tables() {
			pop.Rows += tx.Count(t)
		}
		pop.LastSample = int64(tx.Count(model.KindSample))
		pop.LastExtract = int64(tx.Count(model.KindExtract))
		return nil
	})
	return pop, err
}
