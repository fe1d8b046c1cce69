package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ArtifactInfo is the index record of one stored object.
type ArtifactInfo struct {
	// Size is the content length in bytes.
	Size int64 `json:"size"`
	// Created is the first-seen time (unix seconds); later identical puts
	// deduplicate against this object and keep the original stamp.
	Created int64 `json:"created"`
}

// ErrCorrupt reports a stored object whose bytes no longer hash to its
// digest. Get moves such an object aside (under <dir>/quarantine) and drops
// it from the index, so the next Put of the same content rewrites it.
var ErrCorrupt = errors.New("service: store: object corrupt")

// Store is a content-addressed artifact store: objects live under
// <dir>/objects/<aa>/<digest> keyed by the SHA-256 hex of their content,
// with a JSON index at <dir>/index.json. Identical content is stored once
// regardless of how many jobs produce it. Every read re-hashes the object,
// so corrupt bytes are never served.
type Store struct {
	dir string
	log *slog.Logger

	mu    sync.Mutex
	index map[string]ArtifactInfo
	// dedup counts puts that found their object already present.
	dedup uint64
}

// OpenStore opens (creating if needed) the store rooted at dir. A missing
// or unreadable index is rebuilt by scanning the object tree, so a crash
// between an object write and the index rewrite loses nothing. logger (nil
// = discard) receives structured operational events: index rebuilds and
// tolerated index-write failures.
func OpenStore(dir string, logger *slog.Logger) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Store{dir: dir, log: logger.With("component", "store"), index: make(map[string]ArtifactInfo)}
	data, err := os.ReadFile(s.indexPath())
	switch {
	case err == nil:
		if jerr := json.Unmarshal(data, &s.index); jerr != nil {
			// Corrupt index: fall back to a scan.
			s.log.Warn("store index unreadable; rebuilding from object tree", "err", jerr)
			s.index = make(map[string]ArtifactInfo)
		}
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("service: store index: %w", err)
	}
	if len(s.index) == 0 {
		if err := s.rebuild(); err != nil {
			return nil, err
		}
		if len(s.index) > 0 {
			s.log.Info("store index rebuilt by scan", "objects", len(s.index))
		}
	}
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

func (s *Store) objectPath(digest string) string {
	return filepath.Join(s.dir, "objects", digest[:2], digest)
}

// rebuild repopulates the index from the object tree.
func (s *Store) rebuild() error {
	root := filepath.Join(s.dir, "objects")
	return filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		digest := filepath.Base(path)
		if len(digest) == sha256.Size*2 {
			s.index[digest] = ArtifactInfo{Size: info.Size(), Created: info.ModTime().Unix()}
		}
		return nil
	})
}

// Put stores data under its SHA-256 digest and returns the digest. existed
// reports a deduplicated write: the object (byte-identical content) was
// already present, in the index and on disk; an indexed object whose file
// has gone missing is rewritten. The object file lands via temp-file +
// rename, so readers never observe a partial object.
func (s *Store) Put(data []byte) (digest string, existed bool, err error) {
	sum := sha256.Sum256(data)
	digest = hex.EncodeToString(sum[:])

	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.objectPath(digest)
	if _, ok := s.index[digest]; ok {
		if _, err := os.Stat(path); err == nil {
			s.dedup++
			return digest, true, nil
		}
		s.log.Warn("indexed object missing; rewriting", "digest", digest)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", false, fmt.Errorf("service: store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return "", false, fmt.Errorf("service: store: %w", err)
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", false, fmt.Errorf("service: store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", false, fmt.Errorf("service: store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", false, fmt.Errorf("service: store: %w", err)
	}
	s.index[digest] = ArtifactInfo{Size: int64(len(data)), Created: time.Now().Unix()}
	s.writeIndexLocked()
	return digest, false, nil
}

// writeIndexLocked persists the index atomically; index-write failures are
// tolerated (the index rebuilds from the object tree on next open).
func (s *Store) writeIndexLocked() {
	data, err := json.MarshalIndent(s.index, "", " ")
	if err != nil {
		return
	}
	tmp := s.indexPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		s.log.Warn("store index write failed; will rebuild by scan on next open", "err", err)
		return
	}
	if err := os.Rename(tmp, s.indexPath()); err != nil {
		s.log.Warn("store index rename failed; will rebuild by scan on next open", "err", err)
	}
}

// Get returns the content stored under digest after checking that it still
// hashes to digest. A mismatch quarantines the object and returns an error
// wrapping ErrCorrupt; a missing object returns one wrapping
// fs.ErrNotExist.
func (s *Store) Get(digest string) ([]byte, error) {
	if !validDigest(digest) {
		return nil, fmt.Errorf("service: store: invalid digest %q", digest)
	}
	data, err := os.ReadFile(s.objectPath(digest))
	if err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	if !hashes(data, digest) {
		s.quarantine(digest)
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, digest)
	}
	return data, nil
}

// hashes reports whether data's SHA-256 hex is digest.
func hashes(data []byte, digest string) bool {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]) == digest
}

// quarantine moves a corrupt object out of the object tree, so neither a
// later Get nor an index rebuild sees it, and drops it from the index. The
// file is re-read under the lock: a concurrent Get may already have moved
// it aside, or a concurrent Put rewritten it with good bytes.
func (s *Store) quarantine(digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.objectPath(digest)
	if data, err := os.ReadFile(path); err != nil || hashes(data, digest) {
		return
	}
	aside := filepath.Join(s.dir, "quarantine", fmt.Sprintf("%s.%d", digest, time.Now().UnixNano()))
	if os.MkdirAll(filepath.Dir(aside), 0o755) != nil || os.Rename(path, aside) != nil {
		// Could not move it aside: delete it rather than keep it in the
		// tree, where a rebuild would index it again.
		os.Remove(path)
	}
	delete(s.index, digest)
	s.writeIndexLocked()
	s.log.Warn("corrupt object quarantined", "digest", digest, "path", aside)
}

// Has reports whether digest is present.
func (s *Store) Has(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[digest]
	return ok
}

// Stat returns the index record for digest.
func (s *Store) Stat(digest string) (ArtifactInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.index[digest]
	return info, ok
}

// Index returns a sorted copy of the digest index.
func (s *Store) Index() map[string]ArtifactInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]ArtifactInfo, len(s.index))
	for d, info := range s.index {
		out[d] = info
	}
	return out
}

// Digests lists every stored digest in sorted order.
func (s *Store) Digests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.index))
	for d := range s.index {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// DedupHits counts puts that were deduplicated against existing objects.
func (s *Store) DedupHits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dedup
}

// validDigest accepts exactly 64 lowercase hex digits — the only strings
// objectPath may be asked to resolve (no separators, no traversal).
func validDigest(d string) bool {
	if len(d) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
