package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// The tests below pin ApplyReplicated's batch contract: a run of frames
// installed as one version reaches exactly the state — Save bytes, commit
// seq, every TableSeq, WAL bytes — that applying the frames one by one
// reaches, keeps the per-frame error semantics, and copies each touched
// chunk once per run instead of once per frame.

// newBatchReplica returns an in-memory replica with the schema the frame
// generator writes against: table a (unique u, non-unique g) and table b
// (no indexes). Table "late" is deliberately absent: frames create it.
func newBatchReplica(t testing.TB) *Store {
	t.Helper()
	s := New()
	if err := declareBatchSchema(s); err != nil {
		t.Fatal(err)
	}
	s.SetReplica(true)
	return s
}

func declareBatchSchema(s *Store) error {
	for _, name := range []string{"a", "b"} {
		if err := s.CreateTable(name); err != nil {
			return err
		}
	}
	if err := s.CreateIndex("a", "u", true); err != nil {
		return err
	}
	return s.CreateIndex("a", "g", false)
}

// frameGen models a primary's tables and emits valid WAL frames against
// them: every frame leaves unique values unique, as a committed
// transaction must.
type frameGen struct {
	rng    *rand.Rand
	seq    uint64
	tables map[string]*genTable
	names  []string // tables frames may touch so far
	nextU  int
	freeU  []string // unique values released by earlier frames
}

type genTable struct {
	nextID int64
	live   map[int64]Record
	dead   []int64 // deleted ids a later frame may write back
}

func newFrameGen(seed int64) *frameGen {
	g := &frameGen{rng: rand.New(rand.NewSource(seed)), tables: make(map[string]*genTable)}
	g.addTable("a")
	g.addTable("b")
	return g
}

func (g *frameGen) addTable(name string) {
	g.tables[name] = &genTable{nextID: 1, live: make(map[int64]Record)}
	g.names = append(g.names, name)
}

// uniq returns a unique value free at the start of the current frame: a
// released one (so values migrate between rows across frames) or a fresh
// one.
func (g *frameGen) uniq() string {
	if n := len(g.freeU); n > 0 && g.rng.Intn(2) == 0 {
		i := g.rng.Intn(n)
		u := g.freeU[i]
		g.freeU = slices.Delete(g.freeU, i, i+1)
		return u
	}
	g.nextU++
	return fmt.Sprintf("u%04d", g.nextU)
}

func (g *frameGen) record(id int64, u string) Record {
	return Record{IDField: id, "u": u, "g": fmt.Sprintf("g%d", g.rng.Intn(3)), "n": int64(g.rng.Intn(1000))}
}

// frame emits one frame of 1–3 random operations on distinct rows.
func (g *frameGen) frame() []byte {
	type change struct {
		dels   []int64
		writes map[int64]Record
		nextID int64
	}
	changes := make(map[string]*change)
	touched := make(map[string]bool)
	var released []string
	for op, n := 0, 1+g.rng.Intn(3); op < n; op++ {
		name := g.names[g.rng.Intn(len(g.names))]
		gt := g.tables[name]
		c := changes[name]
		if c == nil {
			c = &change{writes: make(map[int64]Record)}
			changes[name] = c
		}
		key := func(id int64) string { return fmt.Sprintf("%s/%d", name, id) }
		pick := func(ids []int64) (int64, bool) {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, k := range g.rng.Perm(len(ids)) {
				if !touched[key(ids[k])] {
					return ids[k], true
				}
			}
			return 0, false
		}
		liveIDs := make([]int64, 0, len(gt.live))
		for id := range gt.live {
			liveIDs = append(liveIDs, id)
		}
		switch k := g.rng.Intn(10); {
		case k < 4 || len(liveIDs) == 0: // insert
			id := gt.nextID
			gt.nextID++
			c.nextID = gt.nextID
			r := g.record(id, g.uniq())
			c.writes[id], gt.live[id] = r, r
			touched[key(id)] = true
		case k == 4: // insert and delete in one transaction: only nextID moves
			gt.nextID++
			c.nextID = gt.nextID
		case k < 7: // update, sometimes moving the unique value
			id, ok := pick(liveIDs)
			if !ok {
				continue
			}
			old := gt.live[id]
			u := old.String("u")
			if g.rng.Intn(2) == 0 {
				released = append(released, u)
				u = g.uniq()
			}
			r := g.record(id, u)
			c.writes[id], gt.live[id] = r, r
			touched[key(id)] = true
		case k < 9: // delete
			id, ok := pick(liveIDs)
			if !ok {
				continue
			}
			released = append(released, gt.live[id].String("u"))
			delete(gt.live, id)
			gt.dead = append(gt.dead, id)
			c.dels = append(c.dels, id)
			touched[key(id)] = true
		default: // write a deleted id back
			id, ok := pick(gt.dead)
			if !ok {
				continue
			}
			gt.dead = slices.DeleteFunc(gt.dead, func(x int64) bool { return x == id })
			r := g.record(id, g.uniq())
			c.writes[id], gt.live[id] = r, r
			touched[key(id)] = true
		}
	}
	g.freeU = append(g.freeU, released...)
	g.seq++
	rec := walRecord{Seq: g.seq}
	names := make([]string, 0, len(changes))
	for name := range changes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := changes[name]
		if len(c.dels) == 0 && len(c.writes) == 0 && c.nextID == 0 {
			continue
		}
		tc := walTableChange{Name: name, NextID: c.nextID, Deletes: c.dels}
		slices.Sort(tc.Deletes)
		for _, r := range c.writes {
			tc.Writes = append(tc.Writes, refRow(r))
		}
		sort.Slice(tc.Writes, func(i, j int) bool { return tc.Writes[i].ID() < tc.Writes[j].ID() })
		rec.Tables = append(rec.Tables, tc)
	}
	p, err := encodeWALRecord(rec)
	if err != nil {
		panic(err)
	}
	return p
}

// postingsOf flattens an index into its non-empty postings per key.
func postingsOf(ix *index) map[indexKey][]int64 {
	out := make(map[indexKey][]int64)
	for _, g := range ix.groups {
		if g == nil {
			continue
		}
		for _, m := range g {
			for k, ids := range m {
				if len(ids) > 0 {
					out[k] = ids
				}
			}
		}
	}
	return out
}

// assertSameState requires two stores to be indistinguishable through
// Save, CommitSeq, TableSeq and Count, and to hold the same index
// postings, which Save does not write.
func assertSameState(t testing.TB, want, got *Store) {
	t.Helper()
	if w, g := want.CommitSeq(), got.CommitSeq(); w != g {
		t.Fatalf("CommitSeq: frame by frame %d, batched %d", w, g)
	}
	if w, g := want.Tables(), got.Tables(); !slices.Equal(w, g) {
		t.Fatalf("tables: frame by frame %v, batched %v", w, g)
	}
	for _, name := range want.Tables() {
		if w, g := want.TableSeq(name), got.TableSeq(name); w != g {
			t.Fatalf("TableSeq(%s): frame by frame %d, batched %d", name, w, g)
		}
		if w, g := want.Count(name), got.Count(name); w != g {
			t.Fatalf("Count(%s): frame by frame %d, batched %d", name, w, g)
		}
		wt, gt := want.current.Load().tables[name], got.current.Load().tables[name]
		for f, ix := range wt.indexes {
			if w, g := postingsOf(ix), postingsOf(gt.indexes[f]); !maps.EqualFunc(w, g, slices.Equal) {
				t.Fatalf("index %s.%s: frame by frame %v, batched %v", name, f, w, g)
			}
		}
	}
	var wb, gb bytes.Buffer
	if err := want.Save(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("Save output differs: frame by frame %d bytes, batched %d bytes", wb.Len(), gb.Len())
	}
}

func applyEach(t testing.TB, s *Store, frames [][]byte) {
	t.Helper()
	for _, p := range frames {
		if _, err := s.ApplyReplicated(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuickApplyBatchEquivalence: over random frame histories, a prefix
// applied frame by frame to two replicas and the rest applied frame by
// frame to one and as one ApplyReplicated run to the other leaves them
// identical. The histories insert, update, delete, write deleted ids
// back, move unique values between rows across frames, insert and delete
// within one frame, and create a table in the middle of the run.
func TestQuickApplyBatchEquivalence(t *testing.T) {
	check := func(seed int64) bool {
		g := newFrameGen(seed)
		prefix := make([][]byte, g.rng.Intn(40))
		for i := range prefix {
			prefix[i] = g.frame()
		}
		batch := make([][]byte, 1+g.rng.Intn(60))
		lateAt := g.rng.Intn(len(batch))
		for i := range batch {
			if i == lateAt {
				g.addTable("late")
			}
			batch[i] = g.frame()
		}
		each, batched := newBatchReplica(t), newBatchReplica(t)
		applyEach(t, each, prefix)
		applyEach(t, batched, prefix)
		applyEach(t, each, batch)
		seq, err := batched.ApplyReplicated(batch...)
		if err != nil {
			t.Errorf("seed %d: batch of %d: %v", seed, len(batch), err)
			return false
		}
		if seq != g.seq {
			t.Errorf("seed %d: batch returned seq %d, want %d", seed, seq, g.seq)
			return false
		}
		assertSameState(t, each, batched)
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// frameOf encodes one hand-written frame.
func frameOf(t testing.TB, seq uint64, tables ...walTableChange) []byte {
	t.Helper()
	p, err := encodeWALRecord(walRecord{Seq: seq, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func row(id int64, u, g string) Row { return refRow(Record{IDField: id, "u": u, "g": g}) }

// TestApplyBatchEquivalenceCases spells out the overlay-merge corners the
// random histories reach only by chance, each as prefix + batch.
func TestApplyBatchEquivalenceCases(t *testing.T) {
	seed := []walTableChange{{Name: "a", NextID: 4, Writes: []Row{row(1, "k1", "x"), row(2, "k2", "x"), row(3, "k3", "y")}}}
	cases := []struct {
		name  string
		batch [][]walTableChange
	}{
		{"update then delete", [][]walTableChange{
			{{Name: "a", Writes: []Row{row(1, "k1", "y")}}},
			{{Name: "a", Deletes: []int64{1}}},
		}},
		{"delete then put", [][]walTableChange{
			{{Name: "a", Deletes: []int64{2}}},
			{{Name: "a", Writes: []Row{row(2, "k2b", "z")}}},
		}},
		{"insert then delete", [][]walTableChange{
			{{Name: "a", NextID: 5, Writes: []Row{row(4, "k4", "x")}}},
			{{Name: "a", Deletes: []int64{4}}},
		}},
		{"unique swap across frames", [][]walTableChange{
			{{Name: "a", Writes: []Row{row(1, "tmp", "x")}}},
			{{Name: "a", Writes: []Row{row(2, "k1", "x")}}},
			{{Name: "a", Writes: []Row{row(1, "k2", "x")}}},
		}},
		{"unique value freed by a delete", [][]walTableChange{
			{{Name: "a", Deletes: []int64{3}}},
			{{Name: "a", Writes: []Row{row(1, "k3", "x")}}},
		}},
		{"insert and delete in one frame", [][]walTableChange{
			{{Name: "a", NextID: 5}},
			{{Name: "b", NextID: 3}},
		}},
		{"table new mid-batch", [][]walTableChange{
			{{Name: "b", NextID: 2, Writes: []Row{refRow(Record{IDField: int64(1), "n": int64(1)})}}},
			{{Name: "late", NextID: 3, Writes: []Row{refRow(Record{IDField: int64(1), "n": int64(2)}), refRow(Record{IDField: int64(2), "n": int64(3)})}}},
			{{Name: "b", Writes: []Row{refRow(Record{IDField: int64(1), "n": int64(4)})}}},
			{{Name: "late", Deletes: []int64{1}}, {Name: "b", NextID: 4}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			each, batched := newBatchReplica(t), newBatchReplica(t)
			applyEach(t, each, [][]byte{frameOf(t, 1, seed...)})
			applyEach(t, batched, [][]byte{frameOf(t, 1, seed...)})
			frames := make([][]byte, len(tc.batch))
			for i, tables := range tc.batch {
				frames[i] = frameOf(t, uint64(i+2), tables...)
			}
			applyEach(t, each, frames)
			if _, err := batched.ApplyReplicated(frames...); err != nil {
				t.Fatal(err)
			}
			assertSameState(t, each, batched)
		})
	}
}

// walBytes concatenates a durable store's WAL segments in name order.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var all []byte
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// TestApplyBatchWALBytes: a durable replica logs a run frame by frame, so
// its WAL is byte-identical to one that applied the frames singly, and
// both recover to the same state.
func TestApplyBatchWALBytes(t *testing.T) {
	g := newFrameGen(5)
	frames := make([][]byte, 200)
	for i := range frames {
		if i == 100 {
			g.addTable("late")
		}
		frames[i] = g.frame()
	}
	open := func(dir string) *Store {
		s, err := Open(dir, DurabilityOptions{Sync: SyncOff, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := declareBatchSchema(s); err != nil {
			t.Fatal(err)
		}
		s.SetReplica(true)
		return s
	}
	eachDir, batchDir := t.TempDir(), t.TempDir()
	each, batched := open(eachDir), open(batchDir)
	applyEach(t, each, frames)
	for i := 0; i < len(frames); i += 64 { // runs of 64, as read buffers would cut them
		if _, err := batched.ApplyReplicated(frames[i:min(i+64, len(frames))]...); err != nil {
			t.Fatal(err)
		}
	}
	assertSameState(t, each, batched)
	if err := each.Close(); err != nil {
		t.Fatal(err)
	}
	if err := batched.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(walBytes(t, eachDir), walBytes(t, batchDir)) {
		t.Fatal("WAL bytes differ between frame-by-frame and batched apply")
	}

	// The commit path writes the bytes it always has: a scripted history
	// ships the same frames and leaves the same snapshot file and WAL as
	// when rows were held as maps and encoded at commit (hashes recorded
	// from that store).
	shipped, snap, wal := scriptedHistory(t)
	for _, c := range []struct {
		name string
		b    []byte
		want string
	}{
		{"shipped frames", shipped, "ae3e33c33c95575d601678e127322cf94ac07660783197a659cb8989837fcf8e"},
		{"snapshot file", snap, "fcd799339fd0f85dcda905abfe50df501f64ecdbe89aff6dba20981ce55bfcdd"},
		{"wal", wal, "f0970eb91d839de330a53789591dd0087e254801a266c91e7bed9c32f1f452d3"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.b)); got != c.want {
			t.Errorf("scripted history: %s hash %s, want %s", c.name, got, c.want)
		}
	}
}

// scriptedHistory runs a fixed history of commits through the commit path
// of a durable primary — every value kind, HTML-significant and non-ASCII
// strings, float edge values, times in UTC and in a fixed zone, empty
// lists, rewrites, deletes, an insert deleted in its own transaction, a
// snapshot mid-way — and returns the bytes it produced: the frames
// shipped to a commit subscriber, the snapshot file, and the WAL left
// behind.
func scriptedHistory(t *testing.T) (frames, snapshot, wal []byte) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, DurabilityOptions{Sync: SyncOff, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s", "t"} {
		if err := s.CreateTable(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CreateIndex("s", "name", true); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("s", "grp", false); err != nil {
		t.Fatal(err)
	}
	sub, err := s.SubscribeCommits(64) // above the history's commit count: never dropped
	if err != nil {
		t.Fatal(err)
	}
	zone := time.FixedZone("CET", 3600)
	floats := []float64{0, 0.1, -2.5, 1e-7, 1e21, 123456789.125, math.Copysign(0, -1)}
	names := []string{"plain", "<b>&amp;</b>", "quote\"back\\slash", "tab\tnl\n", "grüezi", "line sep", "x"}
	update := func(fn func(tx *Tx) error) {
		t.Helper()
		if err := s.Update(fn); err != nil {
			t.Fatal(err)
		}
	}
	update(func(tx *Tx) error {
		for i := 0; i < 40; i++ {
			r := Record{
				"name": fmt.Sprintf("%s-%d", names[i%len(names)], i),
				"grp":  fmt.Sprintf("g%d", i%3),
				"n":    int64(i*i - 300),
				"f":    floats[i%len(floats)],
				"b":    i%2 == 0,
				"at":   time.Date(2010, 1, 1+i, 3, 4, 5, i*1000, time.UTC),
				"tz":   time.Date(2009, 12, 31, 23, i, 0, 0, zone),
				"ids":  make([]int64, i%3),
				"tags": []string{},
			}
			for j := range r["ids"].([]int64) {
				r["ids"].([]int64)[j] = int64(i + j)
			}
			if i%4 == 1 {
				r["tags"] = []string{"t", names[i%len(names)], ""}
			}
			if _, err := tx.Insert("s", r); err != nil {
				return err
			}
		}
		return nil
	})
	for i := int64(1); i <= 40; i += 7 {
		update(func(tx *Tx) error {
			return tx.Put("s", i, Record{"name": fmt.Sprintf("moved-%d", i), "grp": "g9", "n": i})
		})
	}
	update(func(tx *Tx) error {
		for _, id := range []int64{3, 4, 5, 30} {
			if err := tx.Delete("s", id); err != nil {
				return err
			}
		}
		id, err := tx.Insert("t", Record{"k": "gone"})
		if err != nil {
			return err
		}
		return tx.Delete("t", id)
	})
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	update(func(tx *Tx) error {
		_, err := tx.Insert("t", Record{"k": "after", "when": time.Date(2011, 2, 3, 4, 5, 6, 7, zone)})
		return err
	})
	update(func(tx *Tx) error { return tx.Put("s", 2, Record{"name": "plain-2", "grp": "g0"}) })
	sub.Cancel()
	for fr := range sub.C {
		frames = binary.LittleEndian.AppendUint64(frames, fr.Seq)
		frames = append(frames, fr.Payload...)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if snapshot, err = os.ReadFile(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatal(err)
	}
	return frames, snapshot, walBytes(t, dir)
}

// TestApplyBatchStopsAtBadFrame: a frame that does not decode, or that
// skips ahead, ends the run where it stands: the frames before it are
// installed, as one by one they would have been, and the error returns.
// A run that starts below the head skips what is already installed.
func TestApplyBatchStopsAtBadFrame(t *testing.T) {
	g := newFrameGen(9)
	frames := make([][]byte, 6)
	for i := range frames {
		frames[i] = g.frame()
	}
	torn := frames[3][:len(frames[3])-1]
	cases := []struct {
		name  string
		batch [][]byte
		want  error
	}{
		{"corrupt", [][]byte{frames[0], frames[1], frames[2], torn, frames[4]}, ErrCorrupt},
		{"gap", [][]byte{frames[0], frames[1], frames[2], frames[4], frames[5]}, ErrReplicaGap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := newBatchReplica(t)
			applyEach(t, want, frames[:3])
			s := newBatchReplica(t)
			seq, err := s.ApplyReplicated(tc.batch...)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if seq != 3 {
				t.Fatalf("returned seq %d, want the installed prefix's 3", seq)
			}
			assertSameState(t, want, s)
		})
	}
	t.Run("overlap", func(t *testing.T) {
		want, s := newBatchReplica(t), newBatchReplica(t)
		applyEach(t, want, frames)
		applyEach(t, s, frames[:2])
		if seq, err := s.ApplyReplicated(frames...); err != nil || seq != 6 {
			t.Fatalf("ApplyReplicated over an overlap = %d, %v; want 6, nil", seq, err)
		}
		assertSameState(t, want, s)
	})
}

// TestApplyBatchDivergencePoisons: an index violation inside a run means
// the replica has diverged. Nothing of the run is installed, the local
// WAL the run already reached is poisoned, and the store degrades.
func TestApplyBatchDivergencePoisons(t *testing.T) {
	s, err := Open(t.TempDir(), DurabilityOptions{Sync: SyncOff, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := declareBatchSchema(s); err != nil {
		t.Fatal(err)
	}
	s.SetReplica(true)
	applyEach(t, s, [][]byte{frameOf(t, 1, walTableChange{Name: "a", NextID: 3, Writes: []Row{row(1, "k1", "x"), row(2, "k2", "x")}})})

	seq, err := s.ApplyReplicated(
		frameOf(t, 2, walTableChange{Name: "a", Writes: []Row{row(1, "k1", "y")}}),
		frameOf(t, 3, walTableChange{Name: "a", NextID: 4, Writes: []Row{row(3, "k2", "x")}}), // k2 is still row 2's
	)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if seq != 1 || s.CommitSeq() != 1 {
		t.Fatalf("returned seq %d, store at %d; want both at 1 (nothing of the run installed)", seq, s.CommitSeq())
	}
	if s.Health().OK {
		t.Fatal("store still healthy after a diverged apply")
	}
	s.wal.mu.Lock()
	poisoned := s.wal.appendErr != nil
	s.wal.mu.Unlock()
	if !poisoned {
		t.Fatal("WAL not poisoned after a diverged apply reached it")
	}
	if _, err := s.ApplyReplicated(frameOf(t, 2, walTableChange{Name: "b", NextID: 2})); !errors.Is(err, ErrDegraded) {
		t.Fatalf("apply after divergence: err = %v, want ErrDegraded", err)
	}
}

// TestApplyBatchRefusedWhenClosedOrDegraded: neither a closed nor a
// degraded store takes any frame of a run.
func TestApplyBatchRefusedWhenClosedOrDegraded(t *testing.T) {
	g := newFrameGen(3)
	frames := [][]byte{g.frame(), g.frame(), g.frame()}

	degraded := newBatchReplica(t)
	degraded.degrade(errors.New("disk gone"))
	if seq, err := degraded.ApplyReplicated(frames...); !errors.Is(err, ErrDegraded) || seq != 0 {
		t.Fatalf("degraded store: ApplyReplicated = %d, %v; want 0, ErrDegraded", seq, err)
	}

	closed := newBatchReplica(t)
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	if seq, err := closed.ApplyReplicated(frames...); !errors.Is(err, ErrClosed) || seq != 0 {
		t.Fatalf("closed store: ApplyReplicated = %d, %v; want 0, ErrClosed", seq, err)
	}
	if degraded.CommitSeq() != 0 || closed.CommitSeq() != 0 {
		t.Fatal("a refused run installed frames")
	}
}

// TestApplyBatchCopiesEachChunkOnce: N serial single-insert frames into
// one table copy each touched record chunk once per run — at most
// ⌈N/128⌉+1 chunks — where applying them one by one copies a chunk per
// frame. This is the amortisation a catch-up batch buys.
func TestApplyBatchCopiesEachChunkOnce(t *testing.T) {
	const n = 1000
	frames := make([][]byte, n)
	for i := range frames {
		id := int64(i + 1)
		frames[i] = frameOf(t, uint64(id), walTableChange{Name: "a", NextID: id + 1, Writes: []Row{row(id, fmt.Sprintf("k%d", id), "x")}})
	}
	stats := &struct{ chunks, groups, shards, postings int }{}
	cowStats = stats
	defer func() { cowStats = nil }()

	each := newBatchReplica(t)
	applyEach(t, each, frames)
	if stats.chunks != n {
		t.Errorf("frame by frame: %d chunk copies, want %d (one per frame)", stats.chunks, n)
	}
	perFrame := *stats

	*stats = struct{ chunks, groups, shards, postings int }{}
	batched := newBatchReplica(t)
	if _, err := batched.ApplyReplicated(frames...); err != nil {
		t.Fatal(err)
	}
	if limit := (n+chunkSize-1)/chunkSize + 1; stats.chunks > limit {
		t.Errorf("one run: %d chunk copies, want at most %d", stats.chunks, limit)
	}
	t.Logf("index shard copies: %d frame by frame, %d in one run", perFrame.shards, stats.shards)
	assertSameState(t, each, batched)
}
