// Package benchfs is the benchmark's store.FS: a passthrough to the real
// filesystem that counts and times every Write, Sync and Rename the durable
// write path issues, and remembers how much of each file has been fsynced.
//
// The synced lengths make a real crash check possible. kill -9 keeps the OS
// page cache, so a killed server never loses bytes it wrote but did not
// sync; CrashCopy discards exactly those bytes, which is what a power loss
// would do.
package benchfs

import (
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/store"
)

// OpStats is the count, byte total and per-call durations of one kind of
// operation since the last Reset.
type OpStats struct {
	N     int64
	Bytes int64
	Took  []time.Duration
}

// Stats is a copy of the counters.
type Stats struct {
	Write, Sync, Rename OpStats
}

// FS implements store.FS over the os package.
type FS struct {
	mu    sync.Mutex
	stats Stats
	files map[string]*lengths
}

// lengths tracks one file: bytes written through the seam and the prefix
// of them a Sync has made durable.
type lengths struct{ written, synced int64 }

var _ store.FS = (*FS)(nil)

// New returns an empty counting filesystem.
func New() *FS { return &FS{files: make(map[string]*lengths)} }

// Stats returns a copy of the counters.
func (f *FS) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Write.Took = append([]time.Duration(nil), st.Write.Took...)
	st.Sync.Took = append([]time.Duration(nil), st.Sync.Took...)
	st.Rename.Took = append([]time.Duration(nil), st.Rename.Took...)
	return st
}

// Reset zeroes the counters; the per-file lengths are kept.
func (f *FS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats = Stats{}
}

// SyncedLength reports the durable prefix of a file the seam has seen.
func (f *FS) SyncedLength(name string) (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	l, ok := f.files[filepath.Clean(name)]
	if !ok {
		return 0, false
	}
	return l.synced, true
}

func (o *OpStats) record(bytes int64, took time.Duration) {
	o.N++
	o.Bytes += bytes
	o.Took = append(o.Took, took)
}

// OpenFile is os.OpenFile. Bytes already in an existing file count as
// synced: they were there before the seam could observe them.
func (f *FS) OpenFile(name string, flag int, perm iofs.FileMode) (store.File, error) {
	file, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	h := &handle{File: file, fs: f}
	if info, err := file.Stat(); err == nil && info.Mode().IsRegular() {
		key := filepath.Clean(name)
		f.mu.Lock()
		l := f.files[key]
		if l == nil || flag&os.O_TRUNC != 0 {
			l = &lengths{written: info.Size(), synced: info.Size()}
			f.files[key] = l
		}
		f.mu.Unlock()
		h.key = key
	}
	return h, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := os.Rename(oldpath, newpath)
	took := time.Since(start)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Rename.record(0, took)
	if err == nil {
		if l, ok := f.files[filepath.Clean(oldpath)]; ok {
			delete(f.files, filepath.Clean(oldpath))
			f.files[filepath.Clean(newpath)] = l
		}
	}
	return err
}

func (f *FS) Remove(name string) error {
	err := os.Remove(name)
	if err == nil {
		f.mu.Lock()
		delete(f.files, filepath.Clean(name))
		f.mu.Unlock()
	}
	return err
}

func (f *FS) Truncate(name string, size int64) error {
	err := os.Truncate(name, size)
	if err == nil {
		f.mu.Lock()
		if l, ok := f.files[filepath.Clean(name)]; ok {
			l.written = min(l.written, size)
			l.synced = min(l.synced, size)
		}
		f.mu.Unlock()
	}
	return err
}

func (f *FS) Stat(name string) (iofs.FileInfo, error)      { return os.Stat(name) }
func (f *FS) ReadDir(name string) ([]iofs.DirEntry, error) { return os.ReadDir(name) }
func (f *FS) MkdirAll(name string, perm iofs.FileMode) error {
	return os.MkdirAll(name, perm)
}

// handle is one open file; key is empty for directories, whose syncs are
// counted but carry no length.
type handle struct {
	store.File // the *os.File
	fs         *FS
	key        string
}

func (h *handle) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := h.File.Write(p)
	took := time.Since(start)
	h.fs.mu.Lock()
	h.fs.stats.Write.record(int64(n), took)
	if l := h.fs.files[h.key]; l != nil {
		l.written += int64(n)
	}
	h.fs.mu.Unlock()
	return n, err
}

// Sync vouches only for the bytes written before it was called: a write
// that lands while the fsync is in flight may or may not be covered by it,
// and an ack that rode on such a write is the bug the crash check is for.
func (h *handle) Sync() error {
	h.fs.mu.Lock()
	l := h.fs.files[h.key]
	var written int64
	if l != nil {
		written = l.written
	}
	h.fs.mu.Unlock()
	start := time.Now()
	err := h.File.Sync()
	took := time.Since(start)
	h.fs.mu.Lock()
	h.fs.stats.Sync.record(0, took)
	if l != nil && err == nil {
		l.synced = max(l.synced, min(written, l.written)) // min: the file may have been truncated meanwhile
	}
	h.fs.mu.Unlock()
	return err
}

// CrashCopy copies the regular files of src into the new directory dst,
// cutting every file the seam has seen to its synced length: dst is what
// src would hold after the machine lost power. Files the seam never saw
// (the data-dir lock) are skipped. It returns the number of unsynced bytes
// discarded.
func (f *FS) CrashCopy(src, dst string) (discarded int64, err error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(src, e.Name())
		keep, ok := f.SyncedLength(path)
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return discarded, err
		}
		discarded += max(info.Size()-keep, 0)
		if err := copyPrefix(path, filepath.Join(dst, e.Name()), keep); err != nil {
			return discarded, err
		}
	}
	return discarded, nil
}

func copyPrefix(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(out, in, n); err != nil && err != io.EOF {
		out.Close()
		return err
	}
	return out.Close()
}
