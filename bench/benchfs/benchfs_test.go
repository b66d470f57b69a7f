package benchfs

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// heldSync is a file whose Sync waits until the test lets it go.
type heldSync struct {
	store.File
	entered, release chan struct{}
}

func (h *heldSync) Sync() error {
	h.entered <- struct{}{}
	<-h.release
	return h.File.Sync()
}

// A write that lands while an fsync is in flight is not covered by it: an
// ack that rode on that fsync would be lost with the power, and the crash
// copy must lose it too.
func TestWriteDuringSyncIsNotDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	fs := New()
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := f.(*handle)
	held := &heldSync{File: h.File, entered: make(chan struct{}), release: make(chan struct{})}
	h.File = held

	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- f.Sync() }()
	<-held.entered
	if _, err := f.Write([]byte("abcde")); err != nil {
		t.Fatal(err)
	}
	held.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n, _ := fs.SyncedLength(path); n != 10 {
		t.Errorf("synced length after a write during the sync = %d, want 10", n)
	}
	crashed := filepath.Join(dir, "crashed")
	discarded, err := fs.CrashCopy(dir, crashed)
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(filepath.Join(crashed, "wal")); string(data) != "0123456789" || discarded != 5 {
		t.Errorf("crash copy holds %q and discarded %d bytes, want the 10 synced bytes and 5", data, discarded)
	}

	go func() { done <- f.Sync() }()
	<-held.entered
	held.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n, _ := fs.SyncedLength(path); n != 15 {
		t.Errorf("synced length after the next sync = %d, want 15", n)
	}
	if st := fs.Stats(); st.Write.N != 2 || st.Write.Bytes != 15 || st.Sync.N != 2 {
		t.Errorf("counted %d writes of %d bytes and %d syncs, want 2, 15 and 2", st.Write.N, st.Write.Bytes, st.Sync.N)
	}
}
