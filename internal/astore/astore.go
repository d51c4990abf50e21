// Package astore is an on-disk, content-addressed artifact store: the
// persistent tier under the in-memory caches (bench.ElabCache for
// compiled programs, fpv.GraphCache for reachability graphs). A blob is
// written once under the SHA-256 of its logical key and read back by
// any later process, so a fresh worker sharing the cache directory
// serves its first request warm.
//
// The store is deliberately ignorant of what it holds: payloads are
// opaque byte slices produced by versioned codecs that live next to the
// types they serialize (verilog.EncodeProgram, fpv.EncodeGraph). Its
// own job is the storage contract:
//
//   - Content addressing. The file name is the hex SHA-256 of
//     kind+"\x00"+key with a two-character fan-out directory, so the
//     key space is flat, collision-free in practice, and safe for any
//     key bytes.
//   - Corruption safety. Every blob carries a fixed header (magic,
//     container version, kind, payload length) and a trailing CRC-64
//     of everything before it. Get re-verifies all of it; any mismatch
//     — truncation, bit flip, version skew, wrong kind — is a cache
//     miss, and the bad file is deleted so it is rebuilt, never
//     trusted.
//   - Crash safety. Put writes to a unique temp file in the final
//     directory and renames it into place, so a reader sees either the
//     whole blob or nothing. Stray temp files from a crashed writer
//     are swept on Open and ignored by Get.
//   - Bounded size. The store tracks its on-disk footprint and, when a
//     Put pushes it over the budget, evicts blobs oldest-modified
//     first until it fits again (mtimes come from the filesystem, so
//     the policy stays deterministic for the process itself). A blob
//     larger than the whole budget is refused: it would evict every
//     other blob and then itself.
package astore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc64"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"assertionbench/internal/faults"
)

// Blob kinds. Exactly four bytes each; the kind is baked into both the
// file name hash and the blob header, so a key collision across kinds
// is impossible and a renamed file fails verification.
const (
	// KindProgram holds an encoded verilog.Program (see
	// verilog.EncodeProgram).
	KindProgram = "prog"
	// KindGraph holds an encoded fpv.Graph plus optional hunt trace
	// (see fpv.EncodeGraph).
	KindGraph = "grph"
	// KindRun holds run journals. Eval writes one record per decided
	// design outcome (JSON, see eval's record codec), keyed by
	// everything the outcome depends on, so like programs and graphs a
	// record is a pure function of its key and is written once. Only
	// cmd/fpv's run manifest is still an observation rewritten as its
	// run progresses; the atomic rename means a resuming process always
	// reads a complete, checksummed snapshot of some prefix of that run,
	// never a torn one.
	KindRun = "runm"
)

// FormatVersion is the container version stamped into every blob
// header. Bump it when the container layout (not a payload codec)
// changes; old blobs then verify as stale and are rebuilt.
const FormatVersion = 1

// DefaultMaxBytes bounds the store's on-disk footprint unless
// SetMaxBytes overrides it. Generous relative to the corpus: the full
// 100-design corpus plus its graphs is a few MB.
const DefaultMaxBytes = 256 << 20

const (
	blobMagic  = "ABST"
	headerSize = 4 + 4 + 4 + 4 + 8 // magic, version, kind, pad, payload length
	footerSize = 8                 // CRC-64 of header+payload
	blobExt    = ".blob"
	tmpMarker  = ".tmp"
)

// crcTable is the ECMA polynomial table shared by writers and readers.
var crcTable = crc64.MakeTable(crc64.ECMA)

// LoadHook, when non-nil, rewrites a payload that already passed
// checksum verification before Get returns it. It exists solely as a
// fault-injection seam for the differential harness: oracle 9's
// mutation tests use it to simulate a codec bug that loads wrong
// content behind a valid checksum — exactly the failure class checksums
// cannot catch and result comparison must. Never set in production.
var LoadHook func(kind, key string, payload []byte) []byte

// Store is a handle on one cache directory. It is safe for concurrent
// use by multiple goroutines; concurrent processes sharing the
// directory are safe too because blobs are immutable once renamed into
// place (a racing Put of the same key writes identical bytes).
type Store struct {
	dir string

	mu       sync.Mutex
	maxBytes int64
	total    int64 // on-disk footprint of *.blob files, maintained incrementally
	hits     int64
	misses   int64
}

// Open creates (if needed) and scans the store directory: stray temp
// files from crashed writers are removed and the current footprint is
// totalled so the size budget holds across processes.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, maxBytes: DefaultMaxBytes}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// A concurrent evictor (another process sharing the
			// directory) may delete entries mid-walk; a vanished file is
			// not an error, just a smaller footprint.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		if strings.Contains(d.Name(), tmpMarker) {
			os.Remove(path)
			return nil
		}
		if info, err := d.Info(); err == nil {
			s.total += info.Size()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the directory backing the store.
func (s *Store) Dir() string { return s.dir }

// SetMaxBytes replaces the footprint budget (<= 0 restores the
// default) and evicts immediately if the store is already over it.
func (s *Store) SetMaxBytes(n int64) {
	if n <= 0 {
		n = DefaultMaxBytes
	}
	s.mu.Lock()
	s.maxBytes = n
	over := s.total > s.maxBytes
	s.mu.Unlock()
	if over {
		s.evictOver()
	}
}

// Hits reports how many Gets returned a verified payload. Misses
// counts the rest (absent, truncated, corrupt, wrong version). The
// counters let callers — e2ebench's store columns, dverify's oracle 9
// — prove the disk tier actually served reads instead of silently
// rebuilding everything.
func (s *Store) Hits() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// Misses reports how many Gets failed verification or found no blob.
func (s *Store) Misses() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

// path maps (kind, key) to the blob's file path: hex SHA-256 of
// kind+NUL+key with a two-character fan-out directory.
func (s *Store) path(kind, key string) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(key))
	name := hex.EncodeToString(h.Sum(nil))
	return filepath.Join(s.dir, name[:2], name+blobExt)
}

// Get returns the payload stored under (kind, key), or ok=false on any
// miss: no blob, short file, bad magic/version/kind/length, or CRC
// mismatch. A blob that fails verification is deleted so the caller's
// rebuild replaces it.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	path := s.path(kind, key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.count(false)
		return nil, false
	}
	payload, ok := verify(data, kind)
	if !ok {
		s.discard(path, int64(len(data)))
		s.count(false)
		return nil, false
	}
	if LoadHook != nil {
		payload = LoadHook(kind, key, payload)
	}
	s.count(true)
	return payload, true
}

// Has reports whether a blob is stored under (kind, key). It costs one
// stat: the blob is not read or verified, and no hit or miss is
// counted. Writers of blobs that are pure functions of their key use it
// to skip rewriting what is already there; a corrupt blob it reports is
// found and discarded by the next Get.
func (s *Store) Has(kind, key string) bool {
	_, err := os.Stat(s.path(kind, key))
	return err == nil
}

// verify checks the container framing and checksum, returning the
// payload slice (aliasing data) when everything holds.
func verify(data []byte, kind string) ([]byte, bool) {
	if len(data) < headerSize+footerSize {
		return nil, false
	}
	if string(data[0:4]) != blobMagic {
		return nil, false
	}
	if binary.LittleEndian.Uint32(data[4:8]) != FormatVersion {
		return nil, false
	}
	if string(data[8:12]) != kind {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(data[16:24])
	if n != uint64(len(data)-headerSize-footerSize) {
		return nil, false
	}
	body := data[:len(data)-footerSize]
	want := binary.LittleEndian.Uint64(data[len(data)-footerSize:])
	if crc64.Checksum(body, crcTable) != want {
		return nil, false
	}
	return data[headerSize : headerSize+int(n)], true
}

// Put stores payload under (kind, key), overwriting any existing blob.
// The write is atomic (temp file + rename): a crash mid-write leaves
// only a temp file that the next Open sweeps. Errors are returned for
// callers that care, but the cache contract is best-effort — a failed
// Put just means the next process rebuilds. I/O errors are classified
// faults.Transient: a store I/O hiccup (full disk, racing cleanup) is
// exactly the class a caller's bounded retry can absorb. A blob larger
// than the whole budget is not written, evicts nothing, and fails with
// an error that is not transient, since a retry cannot make it fit.
func (s *Store) Put(kind, key string, payload []byte) error {
	size := int64(headerSize + len(payload) + footerSize)
	s.mu.Lock()
	budget := s.maxBytes
	s.mu.Unlock()
	if size > budget {
		return fmt.Errorf("astore: %d-byte %s blob exceeds the store's %d-byte budget", size, kind, budget)
	}
	path := s.path(kind, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return faults.Transient(err)
	}
	blob := make([]byte, size)
	copy(blob[0:4], blobMagic)
	binary.LittleEndian.PutUint32(blob[4:8], FormatVersion)
	copy(blob[8:12], kind)
	binary.LittleEndian.PutUint64(blob[16:24], uint64(len(payload)))
	copy(blob[headerSize:], payload)
	body := blob[:len(blob)-footerSize]
	binary.LittleEndian.PutUint64(blob[len(blob)-footerSize:], crc64.Checksum(body, crcTable))

	// The payload starts at a fixed 24-byte (8-aligned) offset, so a
	// reader mapping the file sees the codec's words aligned.
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tmpMarker+"*")
	if err != nil {
		return faults.Transient(err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return faults.Transient(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return faults.Transient(err)
	}
	var replaced int64
	if info, err := os.Stat(path); err == nil {
		replaced = info.Size()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return faults.Transient(err)
	}
	s.mu.Lock()
	s.total += int64(len(blob)) - replaced
	over := s.total > s.maxBytes
	s.mu.Unlock()
	if over {
		s.evictOver()
	}
	return nil
}

// discard removes a blob that failed verification and drops its bytes
// from the footprint. A blob a concurrent deleter already removed
// counts as removed — the bytes are gone either way, and keeping them
// in the total would inflate the footprint until eviction resyncs.
func (s *Store) discard(path string, size int64) {
	if err := os.Remove(path); err == nil || errors.Is(err, fs.ErrNotExist) {
		s.mu.Lock()
		s.total -= size
		s.mu.Unlock()
	}
}

func (s *Store) count(hit bool) {
	s.mu.Lock()
	if hit {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
}

// evictOver rescans the directory and deletes blobs oldest-modified
// first until the footprint fits the budget again. The rescan also
// resynchronizes the incremental total with the filesystem (other
// processes may have written to the shared directory).
func (s *Store) evictOver() {
	type blob struct {
		path string
		size int64
		mod  int64
	}
	var blobs []blob
	var total int64
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), blobExt) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		blobs = append(blobs, blob{path, info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
		return nil
	})
	sort.Slice(blobs, func(i, j int) bool {
		if blobs[i].mod != blobs[j].mod {
			return blobs[i].mod < blobs[j].mod
		}
		return blobs[i].path < blobs[j].path
	})
	s.mu.Lock()
	budget := s.maxBytes
	s.mu.Unlock()
	for _, b := range blobs {
		if total <= budget {
			break
		}
		// A racing remover (another evictor, a user rm) getting there
		// first is success: the bytes are freed either way.
		if err := os.Remove(b.path); err == nil || errors.Is(err, fs.ErrNotExist) {
			total -= b.size
		}
	}
	s.mu.Lock()
	s.total = total
	s.mu.Unlock()
}
