// Command bfabric-admin provides B-Fabric's administrative functions from
// the shell: generating and inspecting deployments, reviewing pending
// annotations, merging duplicates, querying the audit log, exporting
// object tables, and managing durable data directories (forced snapshots,
// WAL inspection).
//
// Every -in flag accepts either a snapshot file (deploy.gob) or a durable
// data directory created by `bfabric -data-dir`; directories are opened
// through full WAL recovery. Mutating commands write back where the data
// came from: snapshot files are atomically replaced, data directories get
// a fresh snapshot + WAL truncation.
//
// Usage:
//
//	bfabric-admin gen    -out deploy.gob [-scale 0.1]
//	bfabric-admin gen    -data-dir ./data [-scale 0.1]
//	bfabric-admin stats  -in deploy.gob
//	bfabric-admin list   -in deploy.gob -kind sample [-limit 20]
//	bfabric-admin pending -in deploy.gob
//	bfabric-admin release -in deploy.gob -id 7 -actor eva -out deploy.gob
//	bfabric-admin merge  -in deploy.gob -keep 3 -drop 9 -actor eva -out deploy.gob
//	bfabric-admin audit  -in deploy.gob [-actor alice] [-n 20]
//	bfabric-admin export -in deploy.gob -kind sample
//	bfabric-admin export-project -in deploy.gob -project 3 -out project.zip
//	bfabric-admin import-project -in deploy.gob -archive project.zip -out deploy.gob
//	bfabric-admin snapshot -data-dir ./data
//	bfabric-admin backup   -data-dir ./data -out ./backups/2026-08-08
//	bfabric-admin wal      -data-dir ./data
//	bfabric-admin status   -addr http://localhost:8077
//	bfabric-admin status   -data-dir ./data
//	bfabric-admin promote  -addr http://localhost:8177 -login root -password demo
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/genload"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "gen":
		err = cmdGen(args)
	case "stats":
		err = cmdStats(args)
	case "list":
		err = cmdList(args)
	case "pending":
		err = cmdPending(args)
	case "release":
		err = cmdRelease(args)
	case "merge":
		err = cmdMerge(args)
	case "audit":
		err = cmdAudit(args)
	case "export":
		err = cmdExport(args)
	case "export-project":
		err = cmdExportProject(args)
	case "import-project":
		err = cmdImportProject(args)
	case "snapshot":
		err = cmdSnapshot(args)
	case "backup":
		err = cmdBackup(args)
	case "wal":
		err = cmdWAL(args)
	case "status":
		err = cmdStatus(args)
	case "promote":
		err = cmdPromote(args)
	default:
		usage()
	}
	if err != nil {
		log.Fatalf("bfabric-admin %s: %v", cmd, err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bfabric-admin {gen|stats|list|pending|release|merge|audit|export|export-project|import-project|snapshot|backup|wal|status|promote} [flags]")
	os.Exit(2)
}

// openSystem loads a snapshot file — or recovers a durable data directory
// — and wires a system over it. Search is disabled: admin commands never
// need the index and skipping it keeps start-up instant on large
// deployments.
func openSystem(path string) (*core.System, error) {
	s, err := openStore(path)
	if err != nil {
		return nil, err
	}
	return core.NewWithStore(s, core.Options{DisableSearch: true})
}

// openStore opens path as a data directory (with WAL recovery) or as a
// plain snapshot file.
func openStore(path string) (*store.Store, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		// Automatic snapshots stay off: admin runs are short-lived and
		// persist explicitly on the way out.
		return store.Open(path, store.DurabilityOptions{Sync: store.SyncAlways, SnapshotEvery: -1})
	}
	s := store.New()
	if err := s.LoadFile(path); err != nil {
		return nil, err
	}
	return s, nil
}

// persist writes a mutated system back. For a durable directory opened in
// place, that is a snapshot + WAL truncation; otherwise a snapshot file
// write to out.
//
// Note that a durable directory is never a dry-run source: the mutation
// was write-ahead logged into it the moment the transaction committed.
// With -out pointing elsewhere the snapshot file is written in addition,
// and we say so rather than let the operator believe the directory was
// left untouched.
func persist(sys *core.System, in, out string) error {
	if out == "" {
		out = in
	}
	if sys.Store.Durable() {
		if out != in {
			if err := sys.Store.SaveFile(out); err != nil {
				return err
			}
			fmt.Printf("note: %s is a durable data directory; the change is committed there too (exported snapshot: %s)\n", in, out)
		}
		if err := sys.Store.Snapshot(); err != nil {
			return err
		}
		return sys.Store.Close()
	}
	if err := sys.Store.SaveFile(out); err != nil {
		return err
	}
	return sys.Store.Close()
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "deploy.gob", "snapshot output path")
	dataDir := fs.String("data-dir", "", "generate into a durable data directory instead of a snapshot file")
	scale := fs.Float64("scale", 1.0, "population scale (1.0 = full FGCZ)")
	fsyncFlag := fs.String("fsync", "off", "WAL sync policy while generating (always, interval, off)")
	_ = fs.Parse(args)
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *dataDir != "" && set["out"] {
		return fmt.Errorf("-out and -data-dir are mutually exclusive: gen writes either a snapshot file or a durable directory")
	}
	if *dataDir == "" && set["fsync"] {
		return fmt.Errorf("-fsync only applies with -data-dir")
	}
	if *dataDir != "" {
		policy, err := store.ParseSyncPolicy(*fsyncFlag)
		if err != nil {
			return err
		}
		stats, err := genload.PopulateDir(*dataDir, genload.FGCZJan2010.Scaled(*scale), policy)
		if err != nil {
			return err
		}
		fmt.Printf("generated durable deployment (scale %.3f) -> %s\n", *scale, *dataDir)
		fmt.Print(genload.StatsTable(stats))
		return nil
	}
	sys := core.MustNew(core.Options{DisableSearch: true, DisableAudit: true})
	p := genload.FGCZJan2010.Scaled(*scale)
	if err := genload.Generate(sys, p); err != nil {
		return err
	}
	if err := sys.Store.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("generated deployment (scale %.3f) -> %s\n", *scale, *out)
	fmt.Print(genload.StatsTable(sys.DB.CollectStats()))
	return nil
}

// cmdSnapshot forces a snapshot + WAL truncation on a data directory —
// the operator's compaction and pre-backup hook.
func cmdSnapshot(args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "durable data directory")
	_ = fs.Parse(args)
	if *dataDir == "" {
		return fmt.Errorf("-data-dir is required")
	}
	s, err := store.Open(*dataDir, store.DurabilityOptions{Sync: store.SyncAlways, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	if err := s.Snapshot(); err != nil {
		s.Close()
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	info, err := store.InspectDir(*dataDir)
	if err != nil {
		return err
	}
	fmt.Printf("snapshot written: seq %d, %d bytes\n", info.SnapshotSeq, info.SnapshotSize)
	return nil
}

// cmdBackup copies a consistent, restorable backup of a data directory —
// snapshot plus WAL tail, verified before reporting success. It works
// against a live directory: the server may keep committing throughout.
// The backup opens like any data directory (store.Open, bfabric
// -data-dir) and carries no lock file.
func cmdBackup(args []string) error {
	fs := flag.NewFlagSet("backup", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "durable data directory to back up (may be live)")
	out := fs.String("out", "", "backup destination directory (must be empty or absent)")
	_ = fs.Parse(args)
	if *dataDir == "" || *out == "" {
		return fmt.Errorf("-data-dir and -out are required")
	}
	info, err := store.BackupDir(*dataDir, *out)
	if err != nil {
		return err
	}
	fmt.Printf("backup written: %s\n", *out)
	if info.HasSnapshot {
		fmt.Printf("snapshot: seq %d, %d bytes\n", info.SnapshotSeq, info.SnapshotSize)
	}
	fmt.Printf("%d WAL segment(s); restorable through commit %d\n", len(info.Segments), info.LastSeq)
	return nil
}

// cmdStatus reports health. With -addr it asks a running portal over HTTP
// — /healthz for liveness, /readyz for writability — printing the same
// health JSON the load balancer sees. With -data-dir it inspects the
// directory from the outside: whether a live process holds the lock (and
// which pid), and how far the on-disk state is recoverable.
func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "", "portal base URL of a running server (e.g. http://localhost:8077)")
	dataDir := fs.String("data-dir", "", "durable data directory to inspect")
	_ = fs.Parse(args)
	switch {
	case *addr != "" && *dataDir != "":
		return fmt.Errorf("-addr and -data-dir are mutually exclusive")
	case *addr != "":
		return statusHTTP(*addr)
	case *dataDir != "":
		return statusDir(*dataDir)
	default:
		return fmt.Errorf("one of -addr or -data-dir is required")
	}
}

func statusHTTP(base string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	probe := func(path string) (int, string, error) {
		resp, err := client.Get(strings.TrimRight(base, "/") + path)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, strings.TrimSpace(string(body)), nil
	}
	code, body, err := probe("/healthz")
	if err != nil {
		return fmt.Errorf("portal unreachable: %w", err)
	}
	fmt.Printf("live:  %d %s\n", code, body)
	code, body, err = probe("/readyz")
	if err != nil {
		return err
	}
	fmt.Printf("ready: %d %s\n", code, body)
	// Replication coordinates: every server answers /api/replication with
	// its role and fencing epoch; a follower adds lag and contact age so
	// the operator can judge whether promoting it would lose writes.
	rcode, rbody, rerr := probe("/api/replication")
	if rerr == nil && rcode == http.StatusOK {
		var rep struct {
			Role        string `json:"role"`
			Epoch       uint64 `json:"epoch"`
			CommitSeq   uint64 `json:"commitSeq"`
			Promoted    bool   `json:"promoted"`
			Replication *struct {
				Lag              uint64 `json:"lag"`
				LastContactAgeMS int64  `json:"lastContactAgeMs"`
				Connected        bool   `json:"connected"`
				Fenced           bool   `json:"fenced"`
			} `json:"replication"`
		}
		if json.Unmarshal([]byte(rbody), &rep) == nil && rep.Role != "" {
			fmt.Printf("role:  %s (epoch %d, commit %d)\n", rep.Role, rep.Epoch, rep.CommitSeq)
			if rep.Promoted {
				fmt.Println("       promoted from replica this process lifetime")
			}
			if f := rep.Replication; f != nil && rep.Role == "replica" {
				contact := "never"
				if f.LastContactAgeMS >= 0 {
					contact = fmt.Sprintf("%dms ago", f.LastContactAgeMS)
				}
				fmt.Printf("repl:  lag %d commit(s), primary heard %s, connected=%v fenced=%v\n",
					f.Lag, contact, f.Connected, f.Fenced)
			}
		}
	}
	if code != http.StatusOK {
		fmt.Println("store is DEGRADED or read-only: writes are rejected, reads still served; see docs/faults.md and docs/replication.md for the runbooks")
	}
	return nil
}

// cmdPromote turns a running read replica into a fenced primary over
// HTTP: it logs in (promotion is admin-only), POSTs the promote
// endpoint, and prints the new epoch and the committed prefix the new
// timeline starts from. The old primary, if it resurrects, is refused by
// the epoch fence and must resync via snapshot — see the failover
// runbook in docs/replication.md.
func cmdPromote(args []string) error {
	fs := flag.NewFlagSet("promote", flag.ExitOnError)
	addr := fs.String("addr", "", "portal base URL of the running replica (e.g. http://localhost:8177)")
	login := fs.String("login", "", "admin login")
	password := fs.String("password", "", "admin password")
	_ = fs.Parse(args)
	if *addr == "" || *login == "" || *password == "" {
		return fmt.Errorf("-addr, -login and -password are required")
	}
	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	post := func(path, token string, payload, out any) (int, string, error) {
		var buf bytes.Buffer
		if payload != nil {
			if err := json.NewEncoder(&buf).Encode(payload); err != nil {
				return 0, "", err
			}
		}
		req, err := http.NewRequest(http.MethodPost, base+path, &buf)
		if err != nil {
			return 0, "", err
		}
		req.Header.Set("Content-Type", "application/json")
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, out); err != nil {
				return resp.StatusCode, string(body), err
			}
		}
		return resp.StatusCode, strings.TrimSpace(string(body)), nil
	}

	var loginOut struct {
		Token string `json:"token"`
	}
	code, body, err := post("/api/login", "", map[string]string{"login": *login, "password": *password}, &loginOut)
	if err != nil {
		return fmt.Errorf("login: %w", err)
	}
	if code != http.StatusOK || loginOut.Token == "" {
		return fmt.Errorf("login as %s failed: %d %s", *login, code, body)
	}

	var prom struct {
		Promotion struct {
			Epoch       uint64 `json:"epoch"`
			LastApplied uint64 `json:"lastApplied"`
		} `json:"promotion"`
		Epoch     uint64 `json:"epoch"`
		CommitSeq uint64 `json:"commitSeq"`
	}
	code, body, err = post("/api/replication/promote", loginOut.Token, nil, &prom)
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	switch code {
	case http.StatusOK:
		fmt.Printf("promoted: epoch %d, timeline starts at commit %d\n", prom.Epoch, prom.Promotion.LastApplied)
		fmt.Println("re-point surviving replicas at this node; the old primary must resync via snapshot if it returns")
		return nil
	case http.StatusNotFound:
		return fmt.Errorf("promote: %s is not a replica (no promote hook): %s", base, body)
	case http.StatusConflict:
		return fmt.Errorf("promote: already a primary: %s", body)
	default:
		return fmt.Errorf("promote failed: %d %s", code, body)
	}
}

func statusDir(dir string) error {
	if pid, inUse := store.DirInUse(dir); inUse {
		if pid > 0 {
			fmt.Printf("locked: data directory %s is in use by process %d\n", dir, pid)
		} else {
			fmt.Printf("locked: data directory %s is in use by another process\n", dir)
		}
		fmt.Println("use `bfabric-admin status -addr ...` to ask the running server; offline inspection below is read-only and safe")
	} else {
		fmt.Printf("unlocked: no process holds %s\n", dir)
	}
	return cmdWAL([]string{"-data-dir", dir})
}

// cmdWAL prints the on-disk durability state of a data directory without
// opening or mutating it.
func cmdWAL(args []string) error {
	fs := flag.NewFlagSet("wal", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "durable data directory")
	_ = fs.Parse(args)
	if *dataDir == "" {
		return fmt.Errorf("-data-dir is required")
	}
	info, err := store.InspectDir(*dataDir)
	if err != nil {
		return err
	}
	if info.HasSnapshot {
		fmt.Printf("snapshot: seq %-8d %10d bytes  %s\n",
			info.SnapshotSeq, info.SnapshotSize, info.SnapshotTime.Format("2006-01-02 15:04:05"))
	} else {
		fmt.Println("snapshot: none")
	}
	for _, seg := range info.Segments {
		state := "ok"
		if seg.Torn {
			state = "TORN TAIL"
		}
		fmt.Printf("segment:  base %-6d %10d bytes  %5d records (seq %d..%d)  %s\n",
			seg.Base, seg.Size, seg.Records, seg.FirstSeq, seg.LastSeq, state)
	}
	fmt.Printf("epoch:    %d\n", info.Epoch)
	if info.Damaged {
		fmt.Printf("DAMAGED: mid-history records are torn or missing; recovery will refuse this directory — restore from backup (intact prefix ends at commit %d)\n", info.LastSeq)
		return nil
	}
	fmt.Printf("recoverable through commit %d\n", info.LastSeq)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "deploy.gob", "snapshot path")
	_ = fs.Parse(args)
	sys, err := openSystem(*in)
	if err != nil {
		return err
	}
	fmt.Print(genload.StatsTable(sys.DB.CollectStats()))
	return nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	in := fs.String("in", "deploy.gob", "snapshot path")
	kind := fs.String("kind", "sample", "entity kind")
	limit := fs.Int("limit", 20, "max rows")
	_ = fs.Parse(args)
	sys, err := openSystem(*in)
	if err != nil {
		return err
	}
	return sys.View(func(tx *store.Tx) error {
		rows, err := tx.Query(store.Query{Table: *kind, Limit: *limit})
		if err != nil {
			return err
		}
		for rows.Next() {
			r := rows.Record()
			name := r.String("name")
			if name == "" {
				name = r.String("value")
			}
			fmt.Printf("%6d  %s\n", r.ID(), name)
		}
		return rows.Err()
	})
}

func cmdPending(args []string) error {
	fs := flag.NewFlagSet("pending", flag.ExitOnError)
	in := fs.String("in", "deploy.gob", "snapshot path")
	_ = fs.Parse(args)
	sys, err := openSystem(*in)
	if err != nil {
		return err
	}
	return sys.View(func(tx *store.Tx) error {
		pend, err := sys.Vocab.Pending(tx)
		if err != nil {
			return err
		}
		if len(pend) == 0 {
			fmt.Println("no pending annotations")
			return nil
		}
		recs, err := sys.Vocab.Recommendations(tx)
		if err != nil {
			return err
		}
		for _, t := range pend {
			fmt.Printf("%6d  %-20s %-24s by %s\n", t.ID, t.Vocabulary, t.Value, t.CreatedBy)
			for _, c := range recs[t.ID] {
				fmt.Printf("        similar to %d %q (score %.3f) — consider merge\n",
					c.Term.ID, c.Term.Value, c.Score)
			}
		}
		return nil
	})
}

func cmdRelease(args []string) error {
	fs := flag.NewFlagSet("release", flag.ExitOnError)
	in := fs.String("in", "deploy.gob", "snapshot path")
	out := fs.String("out", "", "output snapshot (default: overwrite input)")
	id := fs.Int64("id", 0, "annotation id")
	actor := fs.String("actor", "admin", "reviewing expert login")
	_ = fs.Parse(args)
	sys, err := openSystem(*in)
	if err != nil {
		return err
	}
	if err := sys.Update(func(tx *store.Tx) error {
		return sys.Vocab.Release(tx, *actor, *id)
	}); err != nil {
		return err
	}
	fmt.Printf("released annotation %d\n", *id)
	return persist(sys, *in, *out)
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	in := fs.String("in", "deploy.gob", "snapshot path")
	out := fs.String("out", "", "output snapshot (default: overwrite input)")
	keep := fs.Int64("keep", 0, "annotation id to keep")
	drop := fs.Int64("drop", 0, "annotation id to drop")
	newValue := fs.String("value", "", "optional new spelling for the merged term")
	actor := fs.String("actor", "admin", "merging expert login")
	_ = fs.Parse(args)
	sys, err := openSystem(*in)
	if err != nil {
		return err
	}
	if err := sys.Update(func(tx *store.Tx) error {
		res, err := sys.Vocab.Merge(tx, *actor, *keep, *drop, *newValue)
		if err != nil {
			return err
		}
		fmt.Printf("merged into %q; re-associated: %v\n", res.Winner.Value, res.Reassociated)
		return nil
	}); err != nil {
		return err
	}
	return persist(sys, *in, *out)
}

func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	in := fs.String("in", "deploy.gob", "snapshot path")
	actor := fs.String("actor", "", "filter by actor login")
	n := fs.Int("n", 20, "max entries")
	_ = fs.Parse(args)
	sys, err := openSystem(*in)
	if err != nil {
		return err
	}
	return sys.View(func(tx *store.Tx) error {
		entries, err := sys.Audit.Recent(tx, *n)
		if err != nil {
			return err
		}
		if *actor != "" {
			entries, err = sys.Audit.ByActor(tx, *actor)
			if err != nil {
				return err
			}
			if len(entries) > *n {
				entries = entries[len(entries)-*n:]
			}
		}
		for _, e := range entries {
			fmt.Printf("seq=%-6d %-24s %s/%d by %s\n", e.Seq, e.Topic, e.Kind, e.Ref, e.Actor)
		}
		return nil
	})
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	in := fs.String("in", "deploy.gob", "snapshot path")
	kind := fs.String("kind", "sample", "entity kind")
	limit := fs.Int("limit", 1000, "max rows")
	_ = fs.Parse(args)
	s, err := openStore(*in)
	if err != nil {
		return err
	}
	sys, err := core.NewWithStore(s, core.Options{DisableAudit: true})
	if err != nil {
		return err
	}
	var ids []int64
	if err := sys.View(func(tx *store.Tx) error {
		rows, err := tx.Query(store.Query{Table: *kind, Limit: *limit})
		if err != nil {
			return err
		}
		ids, err = rows.IDs()
		return err
	}); err != nil {
		return err
	}
	return sys.Search.ExportRecordsCSV(os.Stdout, *kind, ids)
}

// cmdExportProject writes a self-contained project archive.
func cmdExportProject(args []string) error {
	fs := flag.NewFlagSet("export-project", flag.ExitOnError)
	in := fs.String("in", "deploy.gob", "snapshot path")
	project := fs.Int64("project", 0, "project id to export")
	out := fs.String("out", "project.zip", "archive output path")
	_ = fs.Parse(args)
	sys, err := openSystem(*in)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := exchange.Export(sys, *project, f); err != nil {
		f.Close()
		os.Remove(*out)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("exported project %d -> %s\n", *project, *out)
	return nil
}

// cmdImportProject ingests a project archive into a snapshot.
func cmdImportProject(args []string) error {
	fs := flag.NewFlagSet("import-project", flag.ExitOnError)
	in := fs.String("in", "deploy.gob", "snapshot path")
	archive := fs.String("archive", "project.zip", "archive to import")
	out := fs.String("out", "", "output snapshot (default: overwrite input)")
	actor := fs.String("actor", "admin", "importing login")
	_ = fs.Parse(args)
	sys, err := openSystem(*in)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*archive)
	if err != nil {
		return err
	}
	res, err := exchange.Import(sys, data, *actor)
	if err != nil {
		return err
	}
	fmt.Printf("imported project %d: %d samples, %d extracts, %d workunits, %d resources, %d experiments (%d terms added, %d payloads)\n",
		res.Project, res.Samples, res.Extracts, res.Workunits, res.Resources,
		res.Experiments, res.TermsAdded, res.PayloadsStored)
	return persist(sys, *in, *out)
}
