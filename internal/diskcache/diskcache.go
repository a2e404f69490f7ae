// Package diskcache implements the persistent tier of the simulator's
// result cache: a content-addressed on-disk store mapping canonical
// cache-key strings to immutable records.
//
// The simulator is pure and its cache keys are collision-free SHA-256
// hashes of the full configuration, so a record never changes once
// written — the store exploits that: writes are write-once (a Put of an
// existing key is a no-op), readers never need locks, and several
// processes may share one directory (replicas behind a load balancer,
// a server restarted in place) without coordination.  Atomicity comes
// from the classic write-to-temp-then-rename dance, so a crashed or
// concurrent writer can never leave a half-written record where a
// reader would find it.
//
// The directory layout is versioned: records live under
// <root>/<version>/<key[:2]>/<key>.json, where version names the cache
// key format and record schema together.  Bumping the version on a
// format change makes old trees invisible (and harmless) instead of
// corrupt.
package diskcache

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Store is a handle on one versioned cache directory.  The zero value
// is not usable; call Open.  A Store is safe for concurrent use by any
// number of goroutines and processes.
type Store struct {
	dir string
}

// Open creates (if needed) and returns the store rooted at
// root/version.  The version string becomes a path component, so it
// must be non-empty and free of separators.
func Open(root, version string) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("diskcache: empty root directory")
	}
	if version == "" || version != filepath.Base(version) {
		return nil, fmt.Errorf("diskcache: invalid version %q", version)
	}
	dir := filepath.Join(root, version)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's versioned directory.
func (s *Store) Dir() string { return s.dir }

// checkKey rejects keys that could escape the store directory or
// collide with its temp files.  Valid keys are at least 4 characters of
// lowercase alphanumerics; dashes and dots are allowed past the fanout
// prefix (the cache layers suffix keys with their record kind, e.g.
// "<hex>-run"), so the two leading characters — which become a
// directory component — can never spell a traversal.
func checkKey(key string) error {
	if len(key) < 4 {
		return fmt.Errorf("diskcache: key %q too short", key)
	}
	for i, c := range key {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z':
		case (c == '-' || c == '.') && i >= 2:
		default:
			return fmt.Errorf("diskcache: invalid key %q", key)
		}
	}
	return nil
}

// path maps a key to its record file, fanned out on the first two hex
// characters so no single directory grows into the millions.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Get returns the record stored under key, or ok=false if none exists.
// IO errors other than absence are returned so callers can decide
// whether to degrade (the cache layers treat them as misses).
func (s *Store) Get(key string) (data []byte, ok bool, err error) {
	if err := checkKey(key); err != nil {
		return nil, false, err
	}
	data, err = os.ReadFile(s.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("diskcache: %w", err)
	}
	return data, true, nil
}

// Put stores data under key atomically: the record is written to a
// temporary file in the same directory and renamed into place, so
// concurrent readers (and writers of the same key — the store is
// content-addressed, all writers carry identical bytes) only ever see
// complete records.  Putting an existing key is a cheap no-op.
func (s *Store) Put(key string, data []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if _, err := os.Stat(s.path(key)); err == nil {
		return nil // write-once: the record is already there
	}
	return s.write(key, data)
}

// Replace stores data under key atomically, as Put does, even when a
// record already exists.  It is for a caller that read the record and
// could not decode it: write-once would keep the bad record forever.
func (s *Store) Replace(key string, data []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	return s.write(key, data)
}

// write writes a record to a temporary file and renames it over key's
// record file.
func (s *Store) write(key string, data []byte) error {
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "put-*.tmp")
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("diskcache: %w", err)
	}
	return nil
}

// Len walks the store and counts its records — an O(entries) diagnostic
// for tests and tooling, not for request paths.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}
