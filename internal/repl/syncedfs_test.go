package repl

import (
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/store"
)

// syncedFS is a store.FS over the real filesystem that remembers, per
// file, how many bytes were written through it and how many of those an
// fsync has covered. crashCopy rebuilds what a power loss would leave
// behind. kill -9 keeps the page cache, so kill_test.go cannot tell a
// seq that was reported from one that was durable; this can. (The
// benchmark's bench/benchfs keeps the same lengths, but it has no crash
// point and lets writes land while it copies; a cut in mid-stream needs
// both.)
type syncedFS struct {
	mu    sync.Mutex
	files map[string]*fileLen

	// The crash point: after the crashAt-th Write or Sync from arming,
	// crash runs once, under mu — every other operation of the seam is
	// held off, so what it copies is one instant of the disk.
	ops, crashAt int
	crash        func()
}

type fileLen struct{ written, synced int64 }

var _ store.FS = (*syncedFS)(nil)

func newSyncedFS() *syncedFS { return &syncedFS{files: make(map[string]*fileLen)} }

// arm schedules crash to run at the at-th Write or Sync from now.
func (f *syncedFS) arm(at int, crash func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops, f.crashAt, f.crash = 0, at, crash
}

// opLocked counts one Write or Sync and fires the crash point.
func (f *syncedFS) opLocked() {
	f.ops++
	if f.ops >= f.crashAt {
		f.fireLocked()
	}
}

// fire runs a still-armed crash point now.
func (f *syncedFS) fire() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fireLocked()
}

func (f *syncedFS) fireLocked() {
	if crash := f.crash; crash != nil {
		f.crash = nil
		crash()
	}
}

// crashCopy copies every file the seam has seen into dst, cut to its
// synced length. Renames and directory entries count as durable at once:
// the store fsyncs the directory right after each of them.
func (f *syncedFS) crashCopy(dst string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashCopyLocked(dst)
}

func (f *syncedFS) crashCopyLocked(dst string) error {
	for name, l := range f.files {
		src, err := os.Open(name)
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, filepath.Base(name)))
		if err == nil {
			_, err = io.CopyN(out, src, l.synced)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		src.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// OpenFile is os.OpenFile. Bytes already in a file the seam meets for the
// first time count as synced: they were there before it could observe them.
func (f *syncedFS) OpenFile(name string, flag int, perm iofs.FileMode) (store.File, error) {
	file, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	h := &syncedFile{File: file, fs: f}
	if info, err := file.Stat(); err == nil && info.Mode().IsRegular() {
		key := filepath.Clean(name)
		f.mu.Lock()
		if f.files[key] == nil || flag&os.O_TRUNC != 0 {
			f.files[key] = &fileLen{written: info.Size(), synced: info.Size()}
		}
		h.len = f.files[key]
		f.mu.Unlock()
	}
	return h, nil
}

func (f *syncedFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := os.Rename(oldpath, newpath)
	if l, ok := f.files[filepath.Clean(oldpath)]; ok && err == nil {
		delete(f.files, filepath.Clean(oldpath))
		f.files[filepath.Clean(newpath)] = l
	}
	return err
}

func (f *syncedFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := os.Remove(name)
	if err == nil {
		delete(f.files, filepath.Clean(name))
	}
	return err
}

func (f *syncedFS) Truncate(name string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := os.Truncate(name, size)
	if l, ok := f.files[filepath.Clean(name)]; ok && err == nil {
		l.written, l.synced = min(l.written, size), min(l.synced, size)
	}
	return err
}

func (f *syncedFS) Stat(name string) (iofs.FileInfo, error)      { return os.Stat(name) }
func (f *syncedFS) ReadDir(name string) ([]iofs.DirEntry, error) { return os.ReadDir(name) }
func (f *syncedFS) MkdirAll(name string, perm iofs.FileMode) error {
	return os.MkdirAll(name, perm)
}

// syncedFile is one open handle; len is nil for directories. It embeds
// the interface, not *os.File, so that no promoted method (WriteString,
// ReadFrom) lets bytes past Write uncounted.
type syncedFile struct {
	store.File
	fs  *syncedFS
	len *fileLen
}

func (h *syncedFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	n, err := h.File.Write(p)
	if h.len != nil {
		h.len.written += int64(n)
	}
	h.fs.opLocked()
	return n, err
}

// Sync vouches only for the bytes written before it was called: a write
// landing while the fsync is in flight may or may not be covered by it.
func (h *syncedFile) Sync() error {
	var written int64
	h.fs.mu.Lock()
	if h.len != nil {
		written = h.len.written
	}
	h.fs.mu.Unlock()
	err := h.File.Sync()
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.len != nil && err == nil {
		h.len.synced = max(h.len.synced, min(written, h.len.written))
	}
	h.fs.opLocked()
	return err
}
