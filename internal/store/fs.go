package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FS is the durable disk-backed Store behind `tsrd -data-dir` and
// `tsredge -data-dir`. Entries live under fan-out subdirectories
// (objects/<aa>/<bb>/<hash>, keyed by the SHA-256 of the key, so one
// directory never accumulates the whole repository). Every write goes
// through a temp file in the target directory followed by an atomic
// rename, so a crash at any instant leaves either the old entry, the
// new entry, or a *.tmp leftover the boot scrub removes — never a
// half-written entry that Get could return.
//
// Each file carries a small frame (magic, key, sizes, CRC32 of the
// payload) that is re-checked on every read and during the boot scrub:
// torn writes and bitrot surface as ErrNotFound (the entry is dropped),
// so callers heal by re-fetching/re-sanitizing. The CRC is NOT a
// defense against the §5.5 root adversary — they can rewrite frame and
// checksum consistently — which is why callers re-verify content
// against signed indexes or unseal with the enclave key regardless.
type FS struct {
	dir    string
	budget int64
	fsync  bool
	pins   []string // pinned key prefixes (see Pinner); set before sharing

	clock     atomic.Uint64
	evictions atomic.Int64
	evictMu   sync.Mutex

	mu    sync.RWMutex
	index map[string]*fsEntry
	bytes int64

	scrubKept    int
	scrubDropped int
}

type fsEntry struct {
	size  int64
	atime atomic.Uint64
}

// FSOptions configure OpenFS.
type FSOptions struct {
	// Budget bounds the store in bytes; 0 keeps everything. With a
	// budget the store is a cache: least-recently-used entries are
	// evicted (by logical access clock) once the budget is exceeded.
	Budget int64
	// Fsync makes every Put fsync the entry file and its directory
	// before returning, trading write latency for power-loss
	// durability. Off, a crash can lose recent writes but — thanks to
	// the temp+rename protocol — never corrupt old ones.
	Fsync bool
}

const (
	fsMagic     = "TSR1"
	fsObjectDir = "objects"
	fsTmpSuffix = ".tmp"
	// fsHeaderLen is magic(4) + keyLen(4) + dataLen(8) + crc(4).
	fsHeaderLen = 20
)

// OpenFS opens (creating if needed) a disk store rooted at dir and
// scrubs it: *.tmp leftovers from interrupted writes are removed,
// every entry's frame header, key echo, and length are validated, and
// torn or misplaced files are dropped. The payload CRC is enforced on
// every Get rather than at boot, keeping restart cost proportional to
// the entry count instead of the cache size.
func OpenFS(dir string, opts FSOptions) (*FS, error) {
	s := &FS{
		dir:    dir,
		budget: opts.Budget,
		fsync:  opts.Fsync,
		index:  make(map[string]*fsEntry),
	}
	if err := os.MkdirAll(filepath.Join(dir, fsObjectDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if err := s.scrub(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *FS) Dir() string { return s.dir }

// ScrubReport returns how many entries the boot scrub kept and dropped
// (corrupt frames, bad CRCs, misplaced files, temp leftovers).
func (s *FS) ScrubReport() (kept, dropped int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.scrubKept, s.scrubDropped
}

// pathFor maps a key to its fan-out file path. Hashing the key keeps
// arbitrary key strings (slashes, '@', long names) out of the
// filesystem namespace and spreads entries across 65536 directories.
func (s *FS) pathFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, fsObjectDir, h[:2], h[2:4], h[4:])
}

// scrub walks the object tree rebuilding the index.
func (s *FS) scrub() error {
	root := filepath.Join(s.dir, fsObjectDir)
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		if strings.HasSuffix(d.Name(), fsTmpSuffix) {
			// A write that died between temp-write and rename: the
			// entry was never visible; discard the torn bytes.
			_ = os.Remove(path)
			s.scrubDropped++
			return nil
		}
		key, size, err := readFrameHeader(path)
		if err != nil || s.pathFor(key) != path {
			// Corrupt or truncated frame, or a file moved under a
			// different key's path (entry-swapping): drop it. Callers
			// treat the missing entry as a cache miss and heal. The
			// payload CRC is deliberately NOT checked here — boot cost
			// stays proportional to entry count, not cache bytes — and
			// is enforced on every Get instead.
			_ = os.Remove(path)
			s.scrubDropped++
			return nil
		}
		e := &fsEntry{size: size}
		e.atime.Store(s.clock.Add(1))
		s.index[key] = e
		s.bytes += size
		s.scrubKept++
		return nil
	})
}

// frameHeader renders the part of an entry's on-disk frame that
// precedes the payload: magic, lengths, the payload CRC, and the key.
func frameHeader(key string, data []byte) []byte {
	buf := make([]byte, fsHeaderLen, fsHeaderLen+len(key))
	copy(buf[0:4], fsMagic)
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(key)))
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(data)))
	binary.BigEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(data))
	return append(buf, key...)
}

// readFrameHeader parses one entry file's frame header and key,
// validating lengths against the file size without reading the
// payload.
func readFrameHeader(path string) (key string, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", 0, err
	}
	var hdr [fsHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return "", 0, fmt.Errorf("store: %s: short frame header", path)
	}
	if string(hdr[0:4]) != fsMagic {
		return "", 0, fmt.Errorf("store: %s: bad frame magic", path)
	}
	keyLen := binary.BigEndian.Uint32(hdr[4:8])
	dataLen := binary.BigEndian.Uint64(hdr[8:16])
	if uint64(st.Size()) != uint64(fsHeaderLen)+uint64(keyLen)+dataLen {
		return "", 0, fmt.Errorf("store: %s: truncated frame", path)
	}
	rawKey := make([]byte, keyLen)
	if _, err := io.ReadFull(f, rawKey); err != nil {
		return "", 0, fmt.Errorf("store: %s: short key", path)
	}
	return string(rawKey), int64(dataLen), nil
}

// readFrame parses and validates one entry file, payload CRC included.
func readFrame(path string) (key string, data []byte, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	if len(raw) < fsHeaderLen || string(raw[0:4]) != fsMagic {
		return "", nil, fmt.Errorf("store: %s: bad frame header", path)
	}
	keyLen := binary.BigEndian.Uint32(raw[4:8])
	dataLen := binary.BigEndian.Uint64(raw[8:16])
	crc := binary.BigEndian.Uint32(raw[16:20])
	if uint64(len(raw)) != uint64(fsHeaderLen)+uint64(keyLen)+dataLen {
		return "", nil, fmt.Errorf("store: %s: truncated frame", path)
	}
	key = string(raw[fsHeaderLen : fsHeaderLen+keyLen])
	data = raw[fsHeaderLen+keyLen:]
	if crc32.ChecksumIEEE(data) != crc {
		return "", nil, fmt.Errorf("store: %s: CRC mismatch", path)
	}
	return key, data, nil
}

// Pin implements Pinner.
func (s *FS) Pin(prefix string) { s.pins = append(s.pins, prefix) }

// Put implements Store: temp-write then rename, so the entry becomes
// visible atomically. Under a budget, an unpinned blob larger than the
// whole budget is dropped silently (cache semantics).
func (s *FS) Put(key string, data []byte) error {
	if s.budget > 0 && int64(len(data)) > s.budget && !pinned(s.pins, key) {
		return nil
	}
	final := s.pathFor(key)
	parent := filepath.Dir(final)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	tmp, err := os.CreateTemp(parent, ".put-*"+fsTmpSuffix)
	if err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	tmpName := tmp.Name()
	// Header and payload go out as two writes, so the payload is never
	// copied into a frame buffer.
	_, err = tmp.Write(frameHeader(key, data))
	if err == nil {
		_, err = tmp.Write(data)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if s.fsync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return fmt.Errorf("store: put %q: %w", key, err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if s.fsync {
		syncDir(parent)
	}
	e := &fsEntry{size: int64(len(data))}
	e.atime.Store(s.clock.Add(1))
	s.mu.Lock()
	if old, ok := s.index[key]; ok {
		s.bytes += int64(len(data)) - old.size
	} else {
		s.bytes += int64(len(data))
	}
	s.index[key] = e
	s.mu.Unlock()
	s.maybeEvict()
	return nil
}

// Get implements Store. The frame is re-validated on every read; an
// entry that fails validation (torn by a crash mid-sector, flipped by
// bitrot, or rewritten on disk) is dropped and reported as ErrNotFound
// so the caller re-fetches or re-sanitizes — the §5.5 "deleted cache
// degrades to a miss, never to bad data" behavior at the frame level.
func (s *FS) Get(key string) ([]byte, error) {
	s.mu.RLock()
	e, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	gotKey, data, err := readFrame(s.pathFor(key))
	if err != nil || gotKey != key {
		// Invalid on disk: drop the entry so the caller's heal path
		// (re-download, re-sanitize) repairs it.
		_ = s.Delete(key)
		return nil, fmt.Errorf("%w: %q (invalid on disk)", ErrNotFound, key)
	}
	e.atime.Store(s.clock.Add(1))
	return data, nil
}

// Open implements Streamer: the payload streams straight off disk
// after the frame header and key echo are validated. The payload CRC
// is deliberately NOT checked — that would force a full pre-read and
// defeat the point of streaming — so this path leans entirely on the
// caller's hash-as-you-copy verification against the signed entry.
// The returned reader holds an open fd, so a concurrent Put/Delete of
// the same key cannot corrupt an in-flight stream (rename/unlink leave
// the old inode readable).
func (s *FS) Open(key string) (io.ReadCloser, int64, error) {
	s.mu.RLock()
	e, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	f, err := os.Open(s.pathFor(key))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	var hdr [fsHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || string(hdr[0:4]) != fsMagic {
		f.Close()
		_ = s.Delete(key)
		return nil, 0, fmt.Errorf("%w: %q (invalid on disk)", ErrNotFound, key)
	}
	keyLen := binary.BigEndian.Uint32(hdr[4:8])
	dataLen := binary.BigEndian.Uint64(hdr[8:16])
	rawKey := make([]byte, keyLen)
	if _, err := io.ReadFull(f, rawKey); err != nil || string(rawKey) != key {
		f.Close()
		_ = s.Delete(key)
		return nil, 0, fmt.Errorf("%w: %q (invalid on disk)", ErrNotFound, key)
	}
	e.atime.Store(s.clock.Add(1))
	return &fsStream{f: f, r: io.LimitReader(f, int64(dataLen))}, int64(dataLen), nil
}

// fsStream is an open entry payload: a bounded reader over the fd.
type fsStream struct {
	f *os.File
	r io.Reader
}

func (st *fsStream) Read(p []byte) (int, error) { return st.r.Read(p) }
func (st *fsStream) Close() error               { return st.f.Close() }

// Delete implements Store.
func (s *FS) Delete(key string) error {
	s.mu.Lock()
	if e, ok := s.index[key]; ok {
		s.bytes -= e.size
		delete(s.index, key)
	}
	s.mu.Unlock()
	if err := os.Remove(s.pathFor(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %q: %w", key, err)
	}
	return nil
}

// Stat implements Stater (from the index; no disk read).
func (s *FS) Stat(key string) (Info, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.index[key]
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return Info{Key: key, Size: e.size}, nil
}

// Iterate implements Iterable over the scrubbed index.
func (s *FS) Iterate(fn func(Info) bool) error {
	s.mu.RLock()
	infos := make([]Info, 0, len(s.index))
	for k, e := range s.index {
		infos = append(infos, Info{Key: k, Size: e.size})
	}
	s.mu.RUnlock()
	for _, info := range infos {
		if !fn(info) {
			return nil
		}
	}
	return nil
}

// Stats implements Monitored.
func (s *FS) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{Entries: len(s.index), Bytes: s.bytes, Evictions: s.evictions.Load()}
}

// maybeEvict drops least-recently-used entries until the budget holds.
func (s *FS) maybeEvict() {
	if s.budget <= 0 {
		return
	}
	s.mu.RLock()
	over := s.bytes - s.budget
	s.mu.RUnlock()
	if over <= 0 {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	s.mu.RLock()
	over = s.bytes - s.budget
	cands := make([]lruCandidate, 0, len(s.index))
	for k, e := range s.index {
		if pinned(s.pins, k) {
			continue
		}
		cands = append(cands, lruCandidate{key: k, size: e.size, atime: e.atime.Load()})
	}
	s.mu.RUnlock()
	if over <= 0 {
		return
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].atime < cands[b].atime })
	for _, c := range cands {
		if over <= 0 {
			break
		}
		s.mu.RLock()
		e, ok := s.index[c.key]
		fresh := ok && e.atime.Load() != c.atime
		s.mu.RUnlock()
		if !ok || fresh {
			continue // deleted meanwhile, or touched since the scan
		}
		if err := s.Delete(c.key); err == nil {
			over -= c.size
			s.evictions.Add(1)
		}
	}
}

// syncDir fsyncs a directory so a rename survives power loss.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
