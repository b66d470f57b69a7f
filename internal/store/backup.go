package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// BackupDir copies a consistent, restorable backup of the data directory
// src into dst: the snapshot plus the WAL tail, verified with InspectDir
// before returning. It works against a LIVE directory — the store may be
// open and committing throughout — because the copy order makes any race
// land on the safe side:
//
//   - WAL segments are copied first, oldest to newest. A segment removed
//     underfoot (background truncation) is skipped: truncation only ever
//     happens after a snapshot covering it has been renamed into place.
//   - The snapshot file is copied LAST. Whatever WAL frames were skipped
//     or half-copied before it are therefore at or below the copied
//     snapshot's seq (replay skips them) or beyond the copied tail
//     (recovery truncates the torn frame and stops) — either way the
//     restored state is an exact committed prefix.
//   - The LOCK file is never copied: the flock, not the file, is the
//     lock, but a copied LOCK with a live-looking pid is exactly the kind
//     of stale artifact DirInUse has to see through. A backup starts with
//     no lock at all.
//
// If a concurrent snapshot-plus-truncation still manages to interleave so
// that the copied directory is inconsistent, InspectDir detects it
// (Damaged, or a snapshot that fails its frame checksums or row counts)
// and the copy is retried from scratch, a bounded number of times.
//
// dst must not exist or must be an empty directory. The result describes
// the backup; restore it with store.Open(dst, ...) or inspect it with
// bfabric-admin inspect.
func BackupDir(src, dst string) (*DirInfo, error) {
	if entries, err := os.ReadDir(dst); err == nil && len(entries) > 0 {
		return nil, fmt.Errorf("store: backup destination %s is not empty", dst)
	} else if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return nil, err
	}

	const attempts = 3
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if err := clearBackupDir(dst); err != nil {
			return nil, err
		}
		if err := copyDataFiles(src, dst); err != nil {
			lastErr = err
			continue
		}
		info, err := InspectDir(dst)
		if err != nil {
			lastErr = err
			continue
		}
		if info.Damaged {
			lastErr = fmt.Errorf("store: backup of %s copied a torn history (racing truncation)", src)
			continue
		}
		return info, nil
	}
	return nil, fmt.Errorf("store: backup failed after %d attempts: %w", attempts, lastErr)
}

// clearBackupDir removes store files from a previous (failed) copy
// attempt. Only files the backup itself writes are touched.
func clearBackupDir(dst string) error {
	entries, err := os.ReadDir(dst)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if name != snapshotFile && name != epochFile && !strings.HasSuffix(name, ".tmp") {
			if _, ok := parseWALSegmentName(name); !ok {
				continue
			}
		}
		if err := os.Remove(filepath.Join(dst, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// copyDataFiles performs one copy pass: segments oldest-first, snapshot
// last, everything fsynced (files and directory) so the backup is itself
// crash-safe.
func copyDataFiles(src, dst string) error {
	// The EPOCH file is copied first: the epoch only ever increases, so
	// copying it early can only understate it — and the snapshot (copied
	// last) carries its own epoch, of which recovery takes the max. A
	// backup cut before a promotion restores at the old epoch and is
	// correctly fenced into a resync if it rejoins the new timeline.
	if err := copyFileDurable(filepath.Join(src, epochFile), filepath.Join(dst, epochFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	segs, err := listWALSegments(osFS{}, src)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := copyFileDurable(seg.path, filepath.Join(dst, filepath.Base(seg.path))); err != nil {
			if os.IsNotExist(err) {
				continue // truncated while we worked; the snapshot covers it
			}
			return err
		}
	}
	snapSrc := filepath.Join(src, snapshotFile)
	if err := copyFileDurable(snapSrc, filepath.Join(dst, snapshotFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return syncDir(osFS{}, dst)
}

// copyFileDurable copies src to dst and fsyncs dst. The source may be
// growing concurrently; the copy is whatever prefix a sequential read
// observes, which for a WAL segment is a valid frame prefix plus at most
// one torn frame — exactly what recovery is specified to handle.
func copyFileDurable(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dst)
	}
	return err
}
