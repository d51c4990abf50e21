package bench

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"

	"assertionbench/internal/astore"
	"assertionbench/internal/fpv"
	"assertionbench/internal/verilog"
)

// ElabCache is a concurrency-safe elaboration cache mapping design name +
// source hash to the elaborated netlist. A corpus design is elaborated at
// most once per cache regardless of how many (model, shot-count) runs or
// workers request it: concurrent requests for the same design block on one
// elaboration and share its result. Netlists are immutable after
// elaboration, so sharing one across goroutines is safe (simulators and
// FPV engines keep their own value environments).
//
// With a cache directory attached (SetCacheDir), the cache gains a
// persistent tier: compiled programs are loaded from (and written to)
// an on-disk artifact store instead of recompiled, and the graph cache
// gets the same treatment, so a fresh process starts warm.
//
// The zero value is ready to use.
type ElabCache struct {
	mu sync.Mutex
	m  map[string]*elabEntry
	// gen counts Purges. Entries record the generation they were
	// registered under; Elaborate uses it to detect a purge that raced
	// an in-flight elaboration (see the re-registration step there).
	gen uint64
	// disk, when set, is the persistent program tier.
	disk *astore.Store
	// graphs caches FPV reachability graphs next to the compiled
	// programs, under fpv.GraphCache's memory bound. Graphs are keyed by
	// netlist pointer, so a design whose source hash changes elaborates
	// to a fresh netlist and its stale graphs age out of the LRU.
	graphs fpv.GraphCache
}

// Graphs exposes the cache's reachability-graph store for wiring into
// pooled FPV engines (fpv.Engine.Graphs).
func (c *ElabCache) Graphs() *fpv.GraphCache { return &c.graphs }

// elaborateSource is a seam for the purge-race test: swapping it lets a
// test hold an elaboration in flight while Purge runs. Production code
// never changes it.
var elaborateSource = verilog.ElaborateSource

type elabEntry struct {
	gen  uint64
	once sync.Once
	nl   *verilog.Netlist
	err  error
}

// cacheKey identifies a design by name and full source hash, so two
// designs that share a name but differ in source (or vice versa) never
// collide.
func cacheKey(name, source string) string {
	return fmt.Sprintf("%s\x00%x", name, sha256.Sum256([]byte(source)))
}

// SetCacheDir attaches the persistent artifact store at dir as the
// read-through/write-behind tier below this cache and its graph cache
// ("" detaches both). Entries already elaborated keep the programs
// they have; the tier applies to subsequent work.
func (c *ElabCache) SetCacheDir(dir string) error {
	var s *astore.Store
	if dir != "" {
		var err error
		if s, err = astore.Open(dir); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.disk = s
	c.mu.Unlock()
	c.graphs.SetDisk(s)
	return nil
}

// Disk returns the attached persistent store, or nil when the cache is
// memory-only. Callers that persist their own artifacts next to the
// programs and graphs — the eval runner's run manifest — write through
// this handle rather than opening the directory a second time.
func (c *ElabCache) Disk() *astore.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// Elaborate returns the design's netlist, elaborating on first use. The
// compiled execution program is attached here too — decoded from the
// persistent tier when one is attached and holds a good blob, lowered
// and written behind otherwise — so per-design compilation happens once
// per process (and, with a cache directory, once per source change
// across processes) no matter how many workers or runs request the
// design.
func (c *ElabCache) Elaborate(d Design) (*verilog.Netlist, error) {
	key := cacheKey(d.Name, d.Source)
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		if c.m == nil {
			c.m = make(map[string]*elabEntry)
		}
		e = &elabEntry{gen: c.gen}
		c.m[key] = e
	}
	disk := c.disk
	c.mu.Unlock()

	e.once.Do(func() { c.elaborate(e, d, disk) })

	// A Purge may have raced the elaboration: it dropped e from the map
	// and purged the graph cache, but this goroutine still holds e. Two
	// hazards follow. If the slot stayed empty, a later Elaborate would
	// mint a second netlist for the same source while our caller keeps
	// using e.nl — graphs the caller publishes under e.nl's pointer key
	// would then be unreachable dead weight. So re-register the finished
	// entry, keeping e.nl canonical. If instead a post-purge Elaborate
	// already won the slot, converge on the winner so every caller
	// shares one netlist pointer (its Do blocks until the winning
	// elaboration finishes and runs nothing on a completed entry).
	c.mu.Lock()
	cur := c.m[key]
	if cur == nil {
		if c.m == nil {
			c.m = make(map[string]*elabEntry)
		}
		e.gen = c.gen
		c.m[key] = e
		cur = e
	}
	c.mu.Unlock()
	if cur != e {
		cur.once.Do(func() {})
		return cur.nl, cur.err
	}
	return e.nl, e.err
}

// elaborate fills e: parse + elaborate, then attach the compiled
// program — from the persistent tier when possible, compiling (and
// writing behind) otherwise. A blob that fails verification, decoding
// or shape validation is simply recompiled; the write-behind replaces
// it.
func (c *ElabCache) elaborate(e *elabEntry, d Design, disk *astore.Store) {
	e.nl, e.err = elaborateSource(d.Source, d.Name)
	if e.err != nil || disk == nil {
		if e.err == nil {
			e.nl.Program()
		}
		return
	}
	key := progDiskKey(d.Name, d.Source)
	if blob, ok := disk.Get(astore.KindProgram, key); ok {
		if p, err := verilog.DecodeProgram(blob); err == nil && e.nl.AdoptProgram(p) {
			return
		}
	}
	_ = disk.Put(astore.KindProgram, key, verilog.EncodeProgram(e.nl.Program()))
}

// progDiskKey is the persistent-tier key for a design's compiled
// program: the same (name, source hash) pair cacheKey uses. Backend,
// cone and slicing options don't enter the key because none of them
// change the compiled program; codec versioning is the payload's job
// (DecodeProgram rejects stale layouts).
func progDiskKey(name, source string) string {
	return fmt.Sprintf("p\x00%s\x00%x", name, sha256.Sum256([]byte(source)))
}

// Len reports how many designs the cache holds (including failed
// elaborations, which are cached too).
func (c *ElabCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Purge empties the cache — elaborations and reachability graphs — in
// one generation step. The persistent tier
// (SetCacheDir) is deliberately not cleared: purging frees memory; the
// disk store exists to survive exactly this.
func (c *ElabCache) Purge() {
	c.mu.Lock()
	c.gen++
	c.m = nil
	c.mu.Unlock()
	c.graphs.Purge()
}

// generation reports the purge count (test hook for the purge-race
// regression tests).
func (c *ElabCache) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// DefaultElab is the process-wide elaboration cache the evaluation runner
// uses, so corpora are elaborated once per process rather than once per
// run.
var DefaultElab ElabCache

// Elaborate elaborates a design through the process-wide cache.
func Elaborate(d Design) (*verilog.Netlist, error) {
	return DefaultElab.Elaborate(d)
}

// SetCacheDir attaches the persistent artifact store at dir to the
// process-wide cache (see ElabCache.SetCacheDir).
func SetCacheDir(dir string) error {
	return DefaultElab.SetCacheDir(dir)
}

// DiskStore returns the process-wide cache's persistent store, or nil
// when no cache directory is attached (see ElabCache.Disk).
func DiskStore() *astore.Store {
	return DefaultElab.Disk()
}

// Shard returns the index-th of count contiguous, balanced corpus shards.
// Concatenating shards 0..count-1 reproduces designs exactly, and
// ShardStart gives the global offset of a shard's first design — the
// evaluation runner needs that to derive the same per-design seeds a full
// run would use.
func Shard(designs []Design, index, count int) ([]Design, error) {
	start, end, err := shardBounds(len(designs), index, count)
	if err != nil {
		return nil, err
	}
	return designs[start:end], nil
}

// ParseShard parses the "index/count" shard spec the CLIs accept for
// their -shard flags. "" means unsharded (0, 0). Both fields must be
// plain decimal digits: strconv would also accept signed forms like
// "+0/2" or "-0/2" (the index >= 0 check passes for -0), which are not
// specs any shard launcher writes and would mask typos.
func ParseShard(s string) (index, count int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	slash := strings.IndexByte(s, '/')
	ok := slash > 0 && strings.Count(s, "/") == 1
	if ok {
		var oki, okc bool
		index, oki = parseDigits(s[:slash])
		count, okc = parseDigits(s[slash+1:])
		ok = oki && okc && count >= 1 && index < count
	}
	if !ok {
		return 0, 0, fmt.Errorf("bench: bad shard spec %q, want index/count with 0 <= index < count", s)
	}
	return index, count, nil
}

// parseDigits parses a non-empty all-digit decimal string. The length
// cap rejects values that could not be a sane shard field long before
// int overflow becomes a concern.
func parseDigits(s string) (int, bool) {
	if s == "" || len(s) > 9 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

// ShardStart returns the global corpus index of shard index's first design.
func ShardStart(total, index, count int) (int, error) {
	start, _, err := shardBounds(total, index, count)
	return start, err
}

func shardBounds(total, index, count int) (int, int, error) {
	if count <= 0 {
		return 0, 0, fmt.Errorf("bench: shard count %d, want >= 1", count)
	}
	if index < 0 || index >= count {
		return 0, 0, fmt.Errorf("bench: shard index %d out of range [0,%d)", index, count)
	}
	// Balanced contiguous split: the first total%count shards get one
	// extra design.
	base, extra := total/count, total%count
	start := index*base + min(index, extra)
	size := base
	if index < extra {
		size++
	}
	return start, start + size, nil
}
