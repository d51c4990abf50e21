package astore

import (
	"bytes"
	"encoding/binary"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"assertionbench/internal/faults"
)

func blobPath(t *testing.T, s *Store, kind, key string) string {
	t.Helper()
	p := s.path(kind, key)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("blob for %q not on disk: %v", key, err)
	}
	return p
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the quick brown fox\x00jumps")
	if err := s.Put(KindProgram, "design-a", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KindProgram, "design-a")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload back", got, ok)
	}
	// Same key under a different kind is a distinct blob.
	if _, ok := s.Get(KindGraph, "design-a"); ok {
		t.Fatal("kind is not part of the address")
	}
	if s.Hits() != 1 || s.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", s.Hits(), s.Misses())
	}
	// Overwrite replaces.
	if err := s.Put(KindProgram, "design-a", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, ok = s.Get(KindProgram, "design-a")
	if !ok || string(got) != "v2" {
		t.Fatalf("after overwrite Get = %q, %v", got, ok)
	}
}

func TestCrossProcessPersistence(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(KindGraph, "k", []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	// A second handle on the same directory — a fresh process — sees it.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(KindGraph, "k")
	if !ok || string(got) != "persisted" {
		t.Fatalf("fresh handle Get = %q, %v", got, ok)
	}
	if s2.total <= 0 {
		t.Fatal("Open did not account existing blobs")
	}
}

// corrupt applies f to the stored blob bytes and writes them back.
func corrupt(t *testing.T, path string, f func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Every corruption class must read as a miss, delete the bad blob, and
// let an identical rebuild repopulate the slot.
func TestCorruptBlobsAreDiscardedAndRebuilt(t *testing.T) {
	payload := []byte("canonical artifact bytes 0123456789")
	cases := []struct {
		name string
		f    func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"bit-flipped-payload", func(b []byte) []byte {
			b[headerSize+3] ^= 0x40
			return b
		}},
		{"bit-flipped-checksum", func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		}},
		{"wrong-version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], FormatVersion+1)
			return b
		}},
		{"wrong-magic", func(b []byte) []byte {
			copy(b[0:4], "NOPE")
			return b
		}},
		{"wrong-kind", func(b []byte) []byte {
			copy(b[8:12], KindGraph)
			return b
		}},
		{"length-overstated", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:24], uint64(len(b)))
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(KindProgram, "k", payload); err != nil {
				t.Fatal(err)
			}
			path := blobPath(t, s, KindProgram, "k")
			corrupt(t, path, tc.f)
			if got, ok := s.Get(KindProgram, "k"); ok {
				t.Fatalf("corrupted blob served: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupted blob not deleted")
			}
			// The rebuild path: a fresh Put of the same content must
			// restore a verifiable blob.
			if err := s.Put(KindProgram, "k", payload); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get(KindProgram, "k")
			if !ok || !bytes.Equal(got, payload) {
				t.Fatalf("rebuilt Get = %q, %v", got, ok)
			}
		})
	}
}

// A crash between the temp write and the rename leaves a temp file and
// no blob: Get must miss, and the next Open must sweep the leftovers.
func TestMidWriteCrashLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash by planting what a dying Put leaves behind: a
	// fully written temp file next to the final path.
	final := s.path(KindProgram, "crashed")
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := final + tmpMarker + "123456"
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindProgram, "crashed"); ok {
		t.Fatal("Get served a key whose write never completed")
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("Open left the crashed temp file in place")
	}
	if err := s2.Put(KindProgram, "crashed", []byte("complete")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(KindProgram, "crashed"); !ok || string(got) != "complete" {
		t.Fatalf("rebuild after crash Get = %q, %v", got, ok)
	}
}

func TestEvictionKeepsNewestUnderBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	keys := []string{"a", "b", "c", "d"}
	for i, k := range keys {
		payload[0] = byte(i)
		if err := s.Put(KindProgram, k, payload); err != nil {
			t.Fatal(err)
		}
		// Blob mtimes order the eviction; spread them out so the
		// filesystem's timestamp granularity cannot tie them.
		past := time.Unix(1700000000+int64(i)*10, 0)
		if err := os.Chtimes(s.path(KindProgram, k), past, past); err != nil {
			t.Fatal(err)
		}
	}
	// Budget for roughly two blobs: the two oldest must go.
	s.SetMaxBytes(2 * (headerSize + 1024 + footerSize))
	if _, ok := s.Get(KindProgram, "a"); ok {
		t.Fatal("oldest blob survived eviction")
	}
	if _, ok := s.Get(KindProgram, "b"); ok {
		t.Fatal("second-oldest blob survived eviction")
	}
	if _, ok := s.Get(KindProgram, "c"); !ok {
		t.Fatal("newer blob evicted")
	}
	if _, ok := s.Get(KindProgram, "d"); !ok {
		t.Fatal("newest blob evicted")
	}
}

// TestOversizedPutEvictsNothing: a blob larger than the whole budget is
// refused with an error a retry cannot absorb. It used to be written,
// evict every older blob and then itself, leaving the store empty.
func TestOversizedPutEvictsNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		if err := s.Put(KindGraph, k, bytes.Repeat([]byte(k), 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.SetMaxBytes(1 << 10)
	before := s.total
	err = s.Put(KindGraph, "huge", make([]byte, 1<<10))
	if err == nil || faults.IsTransient(err) {
		t.Fatalf("oversized Put: err = %v, want a non-transient error", err)
	}
	if s.total != before {
		t.Errorf("footprint %d after the oversized Put, want %d", s.total, before)
	}
	if s.Has(KindGraph, "huge") {
		t.Error("oversized blob was written")
	}
	for _, k := range keys {
		if got, ok := s.Get(KindGraph, k); !ok || !bytes.Equal(got, bytes.Repeat([]byte(k), 100)) {
			t.Errorf("blob %q lost to the oversized Put", k)
		}
	}
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.Contains(d.Name(), tmpMarker) {
			t.Errorf("temp file left behind: %s", path)
		}
		return nil
	})
}

func TestLoadHookSeam(t *testing.T) {
	orig := LoadHook
	defer func() { LoadHook = orig }()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindGraph, "k", []byte("clean")); err != nil {
		t.Fatal(err)
	}
	LoadHook = func(kind, key string, payload []byte) []byte {
		if kind != KindGraph {
			return payload
		}
		return append([]byte(nil), strings.ToUpper(string(payload))...)
	}
	got, ok := s.Get(KindGraph, "k")
	if !ok || string(got) != "CLEAN" {
		t.Fatalf("hook not applied: %q, %v", got, ok)
	}
	LoadHook = nil
	got, ok = s.Get(KindGraph, "k")
	if !ok || string(got) != "clean" {
		t.Fatalf("hook not detachable: %q, %v", got, ok)
	}
}

func TestPayloadAlignment(t *testing.T) {
	if headerSize%8 != 0 {
		t.Fatalf("payload offset %d is not 8-byte aligned; codec words would be misaligned under mmap", headerSize)
	}
}

// TestEvictionToleratesRacingRemover: a concurrent deleter racing the
// evictor (or the verification-failure discard path) must read as
// success — the bytes are gone either way — not surface an error or
// leave the footprint accounting inflated.
func TestEvictionToleratesRacingRemover(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 16; i++ {
		key := strings.Repeat("k", i+1)
		if err := s.Put(KindGraph, key, payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so the eviction order is deterministic.
		path := blobPath(t, s, KindGraph, key)
		mod := time.Now().Add(time.Duration(i-32) * time.Hour)
		if err := os.Chtimes(path, mod, mod); err != nil {
			t.Fatal(err)
		}
	}

	// A racing remover takes the oldest half out from under the store.
	for i := 0; i < 8; i++ {
		if err := os.Remove(s.path(KindGraph, strings.Repeat("k", i+1))); err != nil {
			t.Fatal(err)
		}
	}

	// discard on an already-removed blob still releases its bytes.
	before := func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.total }()
	gone := s.path(KindGraph, "k")
	s.discard(gone, 1024)
	after := func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.total }()
	if after != before-1024 {
		t.Errorf("discard of a vanished blob kept its bytes: total %d -> %d", before, after)
	}

	// Squeezing the budget drives evictOver across the removed entries;
	// it must converge to a correct footprint without error.
	s.SetMaxBytes(3 * 1100)
	var total int64
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), blobExt) {
			return err
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total > 3*1100 {
		t.Errorf("footprint %d still over the %d budget after eviction", total, 3*1100)
	}
	got := func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.total }()
	if got != total {
		t.Errorf("store total %d out of sync with on-disk footprint %d", got, total)
	}

	// Open over a directory whose files vanish concurrently must not
	// fail either; simulate the worst case with a directory that holds
	// survivors only.
	if _, err := Open(dir); err != nil {
		t.Fatalf("re-Open after racing removals: %v", err)
	}
}

// TestPutErrorsAreTransient: store write failures carry the transient
// class so the eval runner's bounded retry can absorb them.
func TestPutErrorsAreTransient(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Turn the fan-out path into a file so MkdirAll fails.
	path := s.path(KindGraph, "key")
	fan := filepath.Dir(path)
	if err := os.WriteFile(fan, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	perr := s.Put(KindGraph, "key", []byte("payload"))
	if perr == nil {
		t.Fatal("Put through a blocked fan-out dir succeeded")
	}
	if !faults.IsTransient(perr) {
		t.Errorf("Put error %v not classified transient", perr)
	}
}
