package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// A snapshot is the WAL's own frames (wal.go) behind its own magic, so
// snapshot load and log replay share one frame reader, one payload codec
// (walcodec.go) and one in-place apply (applyWALRecord):
//
//	snapshot := snapMagic header-frame chunk-frame...
//	header   := seq u64, epoch u64, nTables u32, table...
//	table    := name str, nextID i64, rows u64, nIndexes u32,
//	            (field str, unique u8)...
//	chunk    := a walRecord payload at the header's seq carrying one
//	            table, the header's nextID, no deletes and a run of rows
//
// Tables and index fields are sorted, rows ascend by id across a table's
// consecutive chunks, and a chunk is cut as soon as its payload reaches
// snapChunkBytes: the bytes are a function of the state, seq and epoch
// alone, which replica convergence tests pin on. A stream cut at a frame
// boundary would load as a smaller, valid-looking store; the header's row
// counts are what refuse it.
const (
	snapMagic = "BFSNAP01"
	// snapChunkBytes bounds the memory either end spends on one chunk.
	snapChunkBytes = 64 << 10
)

// Save serializes the entire committed state of the store to w. It pins
// the current version, which is immutable, and holds no lock: commits
// proceed at full speed while the snapshot is written.
func (s *Store) Save(w io.Writer) error {
	_, err := writeSnapshotVersion(s.current.Load(), s.epoch.Load(), w)
	return err
}

// writeSnapshotVersion serializes one pinned version under the given
// replication epoch, streaming rows from the version's table iterators:
// memory stays at one chunk whatever the store's size.
func writeSnapshotVersion(v *version, epoch uint64, w io.Writer) (uint64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return 0, err
	}
	names := v.tableNames()
	buf := make([]byte, walFrameHeaderSize, walFrameHeaderSize+2*snapChunkBytes)
	buf = appendU64(buf, v.seq)
	buf = appendU64(buf, epoch)
	buf = appendU32(buf, uint32(len(names)))
	for _, name := range names {
		t := v.tables[name]
		buf = appendStr(buf, name)
		buf = appendI64(buf, t.nextID)
		buf = appendU64(buf, uint64(t.count))
		fields := make([]string, 0, len(t.indexes))
		for f := range t.indexes {
			fields = append(fields, f)
		}
		slices.Sort(fields)
		buf = appendU32(buf, uint32(len(fields)))
		for _, f := range fields {
			buf = appendStr(buf, f)
			buf = appendBool(buf, t.indexes[f].unique)
		}
	}
	if err := writeFrame(bw, buf); err != nil {
		return 0, err
	}

	for _, name := range names {
		t := v.tables[name]
		rows, rowsOff := 0, 0
		it := t.iter(0, 0)
		// id == 0 marks the end of the table: it flushes the open chunk.
		for id, r := it.next(); id != 0 || rows > 0; id, r = it.next() {
			if id != 0 {
				if rows == 0 {
					buf = appendU64(buf[:walFrameHeaderSize], v.seq)
					buf = appendU32(buf, 1)
					buf = appendStr(buf, name)
					buf = appendI64(buf, t.nextID)
					buf = appendU32(buf, 0) // deletes
					rowsOff = len(buf)
					buf = appendU32(buf, 0) // writes, patched at the cut
				}
				buf = append(buf, r.b...)
				rows++
			}
			if id == 0 || len(buf)-walFrameHeaderSize >= snapChunkBytes {
				binary.LittleEndian.PutUint32(buf[rowsOff:], uint32(rows))
				if err := writeFrame(bw, buf); err != nil {
					return 0, err
				}
				rows = 0
			}
		}
	}
	return v.seq, bw.Flush()
}

// writeFrame seals buf — walFrameHeaderSize reserved bytes followed by a
// payload — as one WAL frame and writes it.
func writeFrame(w io.Writer, buf []byte) error {
	putFrameHeader(buf, buf[walFrameHeaderSize:])
	_, err := w.Write(buf)
	return err
}

// snapTable tracks one header-declared table while its chunks stream in.
type snapTable struct {
	name   string
	rows   int   // live rows the header declares
	lastID int64 // last row installed
	short  bool  // the last chunk was cut below snapChunkBytes: no more may follow
}

// readSnapshot decodes a snapshot stream into a fresh, fully indexed
// version private to the caller and returns it with the snapshot's epoch.
// It is the only decoder of snapshot bytes — Load, Open, ResetFromSnapshot
// and InspectDir all go through it — and rows install through WAL
// replay's applyWALRecord. Any way the stream differs from what
// writeSnapshotVersion produces for the state it describes, including a
// frame boundary cut, is an error wrapping ErrCorrupt.
func readSnapshot(r io.Reader) (*version, uint64, error) {
	fail := func(format string, args ...any) (*version, uint64, error) {
		return nil, 0, fmt.Errorf("store: snapshot: "+format+": %w", append(args, ErrCorrupt)...)
	}
	fr, err := newWALFrameReader(r, snapMagic)
	if err != nil {
		return fail("%v (gob snapshots from earlier releases are not readable)", err)
	}
	payload, err := fr.next()
	if err != nil {
		return fail("header frame: %v", err)
	}
	v, epoch, tables, err := decodeSnapshotHeader(payload)
	if err != nil {
		return fail("header: %v", err)
	}

	next := 0 // tables[next] is the table whose chunks are streaming
	for {
		payload, err := fr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail("%v", err)
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return fail("chunk: %v", err)
		}
		if rec.Seq != v.seq || len(rec.Tables) != 1 {
			return fail("chunk at seq %d with %d tables in a snapshot at seq %d", rec.Seq, len(rec.Tables), v.seq)
		}
		tc := rec.Tables[0]
		for next < len(tables) && tables[next].name != tc.Name {
			next++
		}
		if next == len(tables) {
			return fail("chunk for table %q, which the header does not declare at this point", tc.Name)
		}
		st, t := &tables[next], v.tables[tc.Name]
		if st.short || tc.NextID != t.nextID || len(tc.Deletes) != 0 || len(tc.Writes) == 0 {
			return fail("malformed chunk for table %q", tc.Name)
		}
		for _, r := range tc.Writes {
			id := r.ID()
			if id <= st.lastID || id >= t.nextID {
				return fail("table %q: row id %d after %d (nextID %d)", tc.Name, id, st.lastID, t.nextID)
			}
			st.lastID = id
		}
		if err := applyWALRecord(v, rec); err != nil {
			return fail("%v", err)
		}
		// The writer cuts a chunk the moment its payload reaches
		// snapChunkBytes: before its last row it was below that, and
		// only a table's final chunk may end short.
		if len(payload)-len(t.get(st.lastID).b) >= snapChunkBytes {
			return fail("table %q: chunk of %d bytes not cut at %d", tc.Name, len(payload), snapChunkBytes)
		}
		st.short = len(payload) < snapChunkBytes
	}
	for _, st := range tables {
		if got := v.tables[st.name].count; got != st.rows {
			return fail("table %q holds %d rows, header declares %d", st.name, got, st.rows)
		}
	}
	return v, epoch, nil
}

// decodeSnapshotHeader parses the header frame into an empty version
// carrying every declared table and index, plus the per-table row counts
// the chunks must meet.
func decodeSnapshotHeader(payload []byte) (*version, uint64, []snapTable, error) {
	d := &walDecoder{b: payload}
	seq, epoch := d.u64(), d.u64()
	n := d.count(24)
	v := &version{seq: seq, tables: make(map[string]*table, n)}
	tables := make([]snapTable, n)
	for i := range tables {
		name := d.str()
		if i > 0 && name <= tables[i-1].name {
			d.fail() // tables out of order
		}
		t := newTable(name)
		t.nextID = d.i64()
		t.lastSeq = seq
		tables[i] = snapTable{name: name, rows: int(d.u64())}
		prev := ""
		for j, nix := 0, d.count(5); j < nix; j++ {
			field := d.str()
			if j > 0 && field <= prev {
				d.fail() // indexes out of order
			}
			t.indexes[field] = newIndex(field, d.boolean())
			prev = field
		}
		v.tables[name] = t
	}
	if epoch == 0 {
		d.fail() // epochs start at 1
	}
	if err := d.done(); err != nil {
		return nil, 0, nil, err
	}
	return v, epoch, tables, nil
}

// Load replaces the contents of the store with a snapshot previously
// produced by Save. The store must be empty.
func (s *Store) Load(r io.Reader) error {
	nv, epoch, err := readSnapshot(r)
	if err != nil {
		return err
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if len(s.current.Load().tables) != 0 {
		return fmt.Errorf("store: Load requires an empty store")
	}
	// The version was built privately — no reader could reach it — and is
	// published with one atomic store.
	s.current.Store(nv)
	if epoch > 1 {
		s.epoch.Store(epoch) // adopt the producing store's epoch
	}
	return nil
}

// SaveFile writes the store snapshot atomically (write to a temp file,
// fsync, rename, fsync the directory) to the named file.
func (s *Store) SaveFile(path string) error {
	_, err := s.writeSnapshotFile(path, s.current.Load(), s.epoch.Load())
	return err
}

// writeSnapshotFile is the atomic-write protocol behind SaveFile, Snapshot
// and ResetFromSnapshot: encode one pinned (or not-yet-published) version
// to <path>.tmp, fsync, rename over path, fsync the directory so the
// rename itself is durable. It reports the commit sequence the snapshot
// captured.
func (s *Store) writeSnapshotFile(path string, v *version, epoch uint64) (uint64, error) {
	fsys := s.fileSystem()
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	seq, err := writeSnapshotVersion(v, epoch, f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	return seq, syncDir(fsys, filepath.Dir(path))
}

// LoadFile loads a snapshot from the named file into the empty store.
func (s *Store) LoadFile(path string) error {
	f, err := s.fileSystem().OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(f)
}
