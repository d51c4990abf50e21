package fpv

import (
	"fmt"
	"sync"

	"assertionbench/internal/astore"
	"assertionbench/internal/verilog"
)

// The shared reachability layer behind every verification call (a
// single property is a batch of one). All properties of a batch share
// one exploration of the design's state space — bit-packed register
// states, input-vector-labelled edges, and per-edge sampled values for
// the union of the batch's support nets — after which each property is
// decided by a monitor-only product search over the graph, with zero
// netlist re-simulation of states another property (or a previous run)
// already explored. Bounded mode adds a shared random-hunt trace,
// simulated once per run for the whole batch.
//
// Exploration is demand-driven: a node's edges are simulated the first
// time any property's product search pops it, and hunt runs the first
// time any pending property consumes them, so a batch never does more
// netlist simulation than its costliest property would in a batch of one
// (it typically does far less, since properties overlap heavily). Graphs
// and hunt traces live in a GraphCache under an explicit memory bound
// with copy-on-write extension: cached entries are immutable, an engine
// that needs more depth clones, extends privately and republishes.
//
// Why a batch of N yields exactly the results of N batches of one rests
// on one invariant: the input vectors tried from a design state are a
// pure function of (Options.Seed, state) — see sampleSeed — and hunt
// stimulus a pure function of (Options.Seed, run) — see huntSeed. A
// graph's nodes and edges therefore do not depend on which property
// expanded them or in what order, so a property's product search over a
// shared graph walks exactly the product space, in the same discovery
// order, that it walks over a private one, and the shared hunt trace is
// byte-identical to a private one. The wider support union of a shared
// graph changes nothing either: walking representative edges reproduces
// the full edge walk whatever union the classes were formed over (see
// dedupEdges), and state keys read only the property's own support (see
// graphKeyHash).
// dverify oracle 5 cross-checks the whole construction per fuzzed
// scenario, full result identity down to the CEX stimulus.

// Graph is one design's (partially explored) reachability graph: nodes
// are bit-packed register states (node 0 is the all-zero power-on
// state); an expanded node carries one edge per input vector tried from
// it, in vector order. Graphs published to a cache are immutable and
// safe to share; extension happens on private clones.
type Graph struct {
	// Support is the sorted union of support-net indices whose sampled
	// (pre-edge, settled) values every edge records.
	Support []int
	// PackWords is the per-node width of Packed in 64-bit words.
	PackWords int
	// NumInputs is the design's data-input count (edge vector width).
	NumInputs int
	// Enumerate marks a graph whose edges enumerate every input vector;
	// bounded graphs store their per-state sampled vectors in Vecs.
	Enumerate bool
	// EdgesPerNode is the constant per-node edge count: the enumeration
	// size, or MaxInputSamples+2 corner/sampled vectors.
	EdgesPerNode int

	// Packed holds node i's registers at [i*PackWords, (i+1)*PackWords).
	Packed []uint64
	// EdgeOff[i] indexes node i's first edge (-1 while unexpanded); its
	// EdgesPerNode edges are contiguous.
	EdgeOff []int32
	// Dst[e] is edge e's destination node.
	Dst []int32
	// Rows holds one len(Support)-word support row per representative
	// edge, in Dedup order: dedup index ri's row is Rows.row(ri) (see
	// repRow and dedupEdges — duplicate edges share their class's row,
	// so the graph never stores the duplicate bulk).
	Rows rowStore
	// Vecs holds edge e's NumInputs-word input vector as Vecs.row(e) for
	// bounded graphs (empty when Enumerate).
	Vecs rowStore
	// Dedup[DedupOff[i] : DedupOff[i]+DedupN[i]] lists node i's
	// representative edges: the first edge of each distinct (destination,
	// support row) class in edge order. A monitor transition depends on
	// nothing but the row, and the child product state on nothing but
	// (destination, monitor state, history), so product searches step
	// once per class — duplicate edges could only repeat the exact same
	// transition (dedupEdges proves the order argument). DedupOff[i] is
	// -1 while node i has no rows: unexpanded, or expanded under a
	// narrower union and not yet re-rowed (see widen).
	Dedup    []int32
	DedupOff []int32
	DedupN   []int32

	// Expanded counts expanded nodes; Nodes counts all discovered states.
	Expanded int
	Nodes    int
}

func (g *Graph) node(i int32) []uint64 {
	return g.Packed[int(i)*g.PackWords : (int(i)+1)*g.PackWords]
}

// repRow returns the support row of the representative edge at dedup
// index ri (Rows is stored compactly, one row per representative, in
// Dedup order — see dedupEdges).
func (g *Graph) repRow(ri int32) []uint64 {
	return g.Rows.row(int(ri))
}

func (g *Graph) vec(e int32) []uint64 {
	return g.Vecs.row(int(e))
}

// Bytes counts the graph's allocated memory for the cache bound: the
// capacity of every array, so the bound holds for what is resident.
func (g *Graph) Bytes() int64 {
	return int64(8*(cap(g.Packed)+cap(g.Support))+
		4*(cap(g.EdgeOff)+cap(g.Dst)+cap(g.Dedup)+cap(g.DedupOff)+cap(g.DedupN))+96) +
		g.Rows.bytes() + g.Vecs.bytes()
}

// clone makes a private copy of the graph for extension: the flat arrays
// are copied, the row stores shared copy-on-write.
func (g *Graph) clone() *Graph {
	c := *g
	c.Packed = append([]uint64(nil), g.Packed...)
	c.EdgeOff = append([]int32(nil), g.EdgeOff...)
	c.Dst = append([]int32(nil), g.Dst...)
	c.Rows = g.Rows.share()
	c.Vecs = g.Vecs.share()
	c.Dedup = append([]int32(nil), g.Dedup...)
	c.DedupOff = append([]int32(nil), g.DedupOff...)
	c.DedupN = append([]int32(nil), g.DedupN...)
	return &c
}

// widen makes a private copy of the graph over a wider support union.
// The skeleton does not depend on the union — nodes, edges and bounded
// edge vectors are a pure function of (seed, state) — so it is kept:
// the flat arrays are copied and the vectors shared copy-on-write. The
// rows and the dedup classes do depend on it, so the copy starts with
// none, and each expanded node gets them again on its first use (see
// Engine.rerowNode).
func (g *Graph) widen(union []int) *Graph {
	w := &Graph{
		Support:      union,
		PackWords:    g.PackWords,
		NumInputs:    g.NumInputs,
		Enumerate:    g.Enumerate,
		EdgesPerNode: g.EdgesPerNode,
		Packed:       append([]uint64(nil), g.Packed...),
		EdgeOff:      append([]int32(nil), g.EdgeOff...),
		Dst:          append([]int32(nil), g.Dst...),
		Rows:         newRowStore(len(union)),
		Vecs:         g.Vecs.share(),
		DedupOff:     make([]int32, g.Nodes),
		DedupN:       make([]int32, g.Nodes),
		Expanded:     g.Expanded,
		Nodes:        g.Nodes,
	}
	for i := range w.DedupOff {
		w.DedupOff[i] = -1
	}
	return w
}

// dedupEdges appends node u's representative-edge list after expansion.
// rows holds the node's freshly simulated support rows, local-edge-major
// (EdgesPerNode × len(Support)); only the representatives' rows are
// retained, pushed to g.Rows in Dedup order, so the graph never stores
// the duplicate bulk (an enumerate node's 256 edges typically collapse
// to a handful of classes).
// Walking representatives preserves the full edge walk bit-for-bit: a
// class's members share one row (same monitor outcome, including the
// first-violation decision — if any member violates, every member does,
// so the scalar walk's first violating edge is its class's first
// member) and one destination (same child product state, so the visited
// filter admits the same children in the same first-occurrence order).
// The argument holds for classes over any support that covers the
// property's, so the walk does not depend on the union a graph was
// built over.
func (g *Graph) dedupEdges(u int32, rows []uint64) {
	off := g.EdgeOff[u]
	nSup := len(g.Support)
	start := len(g.Dedup)
	g.DedupOff[u] = int32(start)
outer:
	for le := 0; le < g.EdgesPerNode; le++ {
		e := off + int32(le)
		row := rows[le*nSup : (le+1)*nSup]
		for ri, r := range g.Dedup[start:] {
			if g.Dst[r] != g.Dst[e] {
				continue
			}
			rrow := g.Rows.row(start + ri)
			same := true
			for j := 0; j < nSup; j++ {
				if rrow[j] != row[j] {
					same = false
					break
				}
			}
			if same {
				continue outer
			}
		}
		g.Dedup = pushI32(g.Dedup, e)
		g.Rows.push(row)
	}
	g.DedupN[u] = int32(len(g.Dedup) - start)
}

// pushI32 appends one value with capacity doubling. The graph's arrays
// reach megabytes, where plain append's large-slice growth factor
// re-copies the whole array far more often; doubling keeps total copy
// work linear with a small constant (profiled: slice growth was ~15% of
// a cold full-corpus pass before these helpers).
func pushI32(s []int32, v int32) []int32 {
	if len(s) == cap(s) {
		t := make([]int32, len(s), 2*len(s)+16)
		copy(t, s)
		s = t
	}
	return append(s, v)
}

// pushU64s appends a short word run with the same doubling policy.
func pushU64s(s, vs []uint64) []uint64 {
	if cap(s)-len(s) < len(vs) {
		t := make([]uint64, len(s), 2*(len(s)+len(vs)))
		copy(t, s)
		s = t
	}
	return append(s, vs...)
}

// edgesPerNode is the per-node edge count a graph over the bound design
// has: the input enumeration, or the corner and sampled vectors.
func (e *Engine) edgesPerNode(enumerate bool) int {
	if enumerate {
		return len(e.enumInputVectors())
	}
	return e.opt.MaxInputSamples + 2
}

// newGraph starts an unexplored graph holding only the power-on state.
func (e *Engine) newGraph(union []int, enumerate bool) *Graph {
	g := &Graph{
		Support:      union,
		PackWords:    len(e.packBuf),
		NumInputs:    len(e.nl.Inputs),
		Enumerate:    enumerate,
		EdgesPerNode: e.edgesPerNode(enumerate),
		Rows:         newRowStore(len(union)),
		Vecs:         newRowStore(len(e.nl.Inputs)),
		EdgeOff:      []int32{-1},
		DedupOff:     []int32{-1},
		DedupN:       []int32{0},
		Nodes:        1,
	}
	zero := make([]uint64, len(e.nl.Regs))
	g.Packed = append(g.Packed, e.packRegs(zero)...)
	return g
}

// syncGraphVisited (re)builds the engine's packed-state index for g, so
// demand-driven expansion can dedup newly discovered states against the
// graph's existing nodes. Cheap relative to the simulation it brokers;
// called once per batch (or after adopting a cloned graph).
func (e *Engine) syncGraphVisited(g *Graph) {
	e.gVisited.reset(g.PackWords * 8)
	for i := 0; i < g.Nodes; i++ {
		k, h := e.packedKeyHash(g.node(int32(i)))
		e.gVisited.insert(h, k)
	}
	e.gVisitedFor = g
}

// expandNode simulates node u's input vectors, appending its edges (and
// any newly discovered states) to the graph. The caller owns g. A
// simulator load failure (impossible by construction — vector widths
// match the netlist) surfaces as an error, never a partial verdict, so a
// half-expanded node can never enter the cache.
func (e *Engine) expandNode(g *Graph, u int32) error {
	if e.gVisitedFor != g {
		e.syncGraphVisited(g)
	}
	var vecs [][]uint64
	if g.Enumerate {
		vecs = e.enumInputVectors()
	} else {
		vecs = e.sampleInputVectors(sampleSeed(e.opt.Seed, g.node(u)))
	}
	// Unpack the node's registers to drive the simulator.
	e.unpackRegs(g.node(u), e.regBuf)
	cur := append(e.expandRegs[:0], e.regBuf...)
	e.expandRegs = cur
	mark := len(g.Dst)
	g.EdgeOff[u] = int32(mark)
	nSup := len(g.Support)
	rows := e.rowScratch(g.EdgesPerNode * nSup)
	for vi, in := range vecs {
		if err := e.settleRow(cur, in, rows[vi*nSup:(vi+1)*nSup]); err != nil {
			// Roll the half-expanded node back entirely (rows only live
			// in scratch until dedupEdges, so g.Rows needs no rollback).
			g.EdgeOff[u] = -1
			g.Dst = g.Dst[:mark]
			g.Vecs.truncate(mark)
			return err
		}
		if !g.Enumerate {
			g.Vecs.push(in)
		}
		e.sim.Step()
		e.sim.CopyStateInto(e.regBuf)
		k, h := e.packedKeyHash(e.packRegs(e.regBuf))
		ord, existed := e.gVisited.insert(h, k)
		if !existed {
			g.Packed = pushU64s(g.Packed, e.packBuf)
			g.EdgeOff = pushI32(g.EdgeOff, -1)
			g.DedupOff = pushI32(g.DedupOff, -1)
			g.DedupN = pushI32(g.DedupN, 0)
			g.Nodes++
		}
		g.Dst = pushI32(g.Dst, int32(ord))
	}
	g.dedupEdges(u, rows)
	g.Expanded++
	return nil
}

// rerowNode gives an expanded node of a widened graph its rows and
// dedup classes over the graph's union: each edge, in edge order,
// settles the node's registers under the edge's vector and reads the
// union row, with no step and no state discovery. The settled values
// are the ones expandNode read before stepping, so the classes equal a
// rebuild's. The caller owns g; a failed load leaves the node without
// rows.
func (e *Engine) rerowNode(g *Graph, u int32) error {
	e.unpackRegs(g.node(u), e.regBuf)
	nSup := len(g.Support)
	rows := e.rowScratch(g.EdgesPerNode * nSup)
	off := g.EdgeOff[u]
	for le := 0; le < g.EdgesPerNode; le++ {
		if err := e.settleRow(e.regBuf, e.edgeVec(g, u, off+int32(le)), rows[le*nSup:(le+1)*nSup]); err != nil {
			return err
		}
	}
	g.dedupEdges(u, rows)
	return nil
}

// settleRow loads registers and one input vector into the expansion
// simulator, settles, and reads the graph's support union into row:
// the pre-edge sampled values an edge records.
func (e *Engine) settleRow(regs, in, row []uint64) error {
	if err := e.sim.LoadStateWithInputs(regs, in); err != nil {
		return err
	}
	env := e.sim.Env()
	for j, src := range e.supportSrc {
		row[j] = env[src]
	}
	return nil
}

// rowScratch returns an n-word engine-owned buffer for freshly simulated
// support rows; contents are only valid until the next expansion.
func (e *Engine) rowScratch(n int) []uint64 {
	if cap(e.expandRowBuf) < n {
		e.expandRowBuf = make([]uint64, n)
	}
	return e.expandRowBuf[:n]
}

// unpackRegs reverses packRegs into dst (one value per register).
func (e *Engine) unpackRegs(packed []uint64, dst []uint64) {
	pos := 0
	for i, w := range e.regWidths {
		word, off := pos>>6, uint(pos&63)
		v := packed[word] >> off
		if off+uint(w) > 64 {
			v |= packed[word+1] << (64 - off)
		}
		dst[i] = v & verilog.WidthMask(w)
		pos += w
	}
}

// HuntTrace is the shared bounded-mode random hunt: runs of RandomDepth
// cycles simulated on demand (RunsDone of Runs so far), recording each
// cycle's stimulus and the sampled values of the support union, so every
// unresolved property of a batch replays the exact trace a batch of its
// own would drive. Published traces are immutable; extension happens on
// private clones.
type HuntTrace struct {
	Runs, Depth int
	RunsDone    int
	// Seed is the stimulus stream's seed: hunt traces always depend on
	// it even when their graph does not (enumerate-mode keys zero the
	// seed), so lookups must validate it.
	Seed      int64
	Support   []int
	NumInputs int
	// Inputs (NumInputs words per row) and Rows (len(Support) words)
	// hold one row per simulated cycle, RunsDone*Depth rows in
	// (run*Depth+t) order.
	Inputs rowStore
	Rows   rowStore
}

func (h *HuntTrace) input(run, t int) []uint64 {
	return h.Inputs.row(run*h.Depth + t)
}

func (h *HuntTrace) row(run, t int) []uint64 {
	return h.Rows.row(run*h.Depth + t)
}

// Bytes counts the trace's allocated memory for the cache bound.
func (h *HuntTrace) Bytes() int64 {
	return int64(8*cap(h.Support)+64) + h.Inputs.bytes() + h.Rows.bytes()
}

// clone makes a copy-on-write copy of the trace for extension.
func (h *HuntTrace) clone() *HuntTrace {
	c := *h
	c.Inputs = h.Inputs.share()
	c.Rows = h.Rows.share()
	return &c
}

// extendHunt simulates runs [ht.RunsDone, upto] into the trace, one
// splitmix stimulus stream per run (see huntSeed and fillStimulus).
// The caller owns ht.
func (e *Engine) extendHunt(ht *HuntTrace, upto int) {
	start := ht.RunsDone
	// Size the full extension up front (every slot is written below
	// before it is read) and fill positionally.
	ht.Inputs.grow((upto + 1 - start) * ht.Depth)
	ht.Rows.grow((upto + 1 - start) * ht.Depth)
	ht.RunsDone = upto + 1
	s := e.hunt
	for run := start; run <= upto; run++ {
		s.ResetState()
		sm := sm64(huntSeed(e.opt.Seed, run))
		for t := 0; t < ht.Depth; t++ {
			vals := ht.input(run, t)
			e.fillStimulus(&sm, t, vals)
			// SetInputs cannot fail (vals is sized to the netlist); keep
			// Inputs/Rows aligned by construction. Under a cone the trace
			// records the full-layout vector and drives its projection.
			_ = s.SetInputs(e.projectInputs(vals))
			s.Settle()
			env := s.Env()
			row := ht.row(run, t)
			for j := range ht.Support {
				row[j] = env[e.supportSrc[j]]
			}
			s.Step()
		}
	}
}

// packedKeyHash encodes packed register words into the engine's reused
// key buffer with the probing hash, for the graph's exact design-state
// dedup.
func (e *Engine) packedKeyHash(packed []uint64) ([]byte, uint64) {
	buf := e.keyBuf[:0]
	h := uint64(stateHashSeed)
	for _, v := range packed {
		buf = le64Append(buf, v)
		h = stateMix(h, v)
	}
	e.keyBuf = buf
	return buf, h
}

// --- cache ---

// DefaultGraphMemory bounds a zero-value GraphCache's retained bytes.
const DefaultGraphMemory = 64 << 20

// graphKey identifies one cached exploration. The netlist pointer stands
// in for (design name, source hash): the elaboration cache interns
// netlists per source hash, so a source change yields a new pointer and
// the stale graph simply ages out of the LRU. The key deliberately
// excludes every option that does not change graph content: search
// budgets (exploration is demand-driven with copy-on-write extension,
// so a deeper budget extends the same graph), and — for enumerate-mode
// graphs, which sample nothing — the seed and sample count (those are
// zeroed by Engine.graphKey; hunt traces, which always depend on the
// seed, record it themselves and are validated on lookup).
type graphKey struct {
	nl         *verilog.Netlist
	interp     bool
	enumerate  bool
	maxSamples int
	seed       int64
}

// verdictKey identifies one memoized VerifyAll result. The netlist
// pointer stands in for the design, as in graphKey. The assertion is its
// raw text: canonicalizing it would cost a parse per lookup and buys few
// extra hits. The options are withDefaults' result with every field,
// reference switches included, so no option that can change a result
// field is left out.
type verdictKey struct {
	nl  *verilog.Netlist
	src string
	opt Options
}

// verdictEntryBytes charges a verdict entry's fixed part: the entry
// itself and its map slot (key, pointer and load-factor slack).
const verdictEntryBytes = 384

// cacheEntry is one entry of the cache's LRU list: an exploration under
// key (g non-nil) or a memoized verdict under vkey.
type cacheEntry struct {
	key        graphKey
	g          *Graph
	hunt       *HuntTrace
	vkey       verdictKey
	res        Result
	bytes      int64
	prev, next *cacheEntry
}

// GraphCache holds reachability graphs (and their hunt traces) and a
// verdict memo under one explicit memory bound with LRU eviction. The
// zero value is ready to use with the DefaultGraphMemory bound; it is
// safe for concurrent use. Entries are immutable: engines that need
// deeper exploration clone, extend privately and republish (store
// replaces in place). A cached graph whose support union lacks nets a
// new batch reads is widened over the merged union: its nodes and
// edges are kept, its rows recomputed node by node on first use (see
// Graph.widen), so unions only grow per key.
//
// The verdict memo holds the results Engine.VerifyAll computed, keyed by
// (netlist, assertion text, options): the engine is deterministic per
// key, so a repeated question is answered without parsing or search.
// Memoized results share their CEX with every caller served, read-only.
// Calls that bypass VerifyAll (VerifyBatch, VerifyCompiled) neither read
// nor fill it.
type GraphCache struct {
	mu       sync.Mutex
	maxBytes int64
	total    int64
	m        map[graphKey]*cacheEntry
	verdicts map[verdictKey]*cacheEntry
	head     *cacheEntry // most recently used
	tail     *cacheEntry

	// disk, when set, is the persistent tier: lookup falls through to
	// it on a memory miss, and store writes every published exploration
	// behind. See SetDisk.
	disk *astore.Store
}

// SetDisk attaches an on-disk artifact store as a read-through /
// write-behind tier under the memory cache (nil detaches it). Disk
// blobs are keyed by netlist content hash rather than pointer, so
// explorations written by one process are read back by any other
// process elaborating the same source (see graphKey.diskKey). Blob
// integrity and corruption fallback are the store's job; a loaded
// graph that fails decoding or structural validation is treated as a
// plain miss and rebuilt.
func (c *GraphCache) SetDisk(s *astore.Store) {
	c.mu.Lock()
	c.disk = s
	c.mu.Unlock()
}

// diskKey is the process-independent form of a graphKey: the netlist
// pointer (which the elaboration cache interns per source hash, but
// which dies with the process) is replaced by the netlist's content
// hash, which also absorbs cone reduction — a reduced netlist hashes
// its reduced signature. The remaining fields mirror the memory key,
// and for the same reasons exclude search budgets (demand-driven
// copy-on-write extension) and the NoStatic switch (byte-identical
// graphs). A codec version rides in front so layout changes invalidate
// cleanly.
func (k graphKey) diskKey() string {
	h := k.nl.ContentHash()
	return fmt.Sprintf("g%d\x00%x\x00%t\x00%t\x00%d\x00%d",
		graphioVersion, h, k.interp, k.enumerate, k.maxSamples, k.seed)
}

// SetMaxBytes sets the memory bound (0 restores DefaultGraphMemory) and
// evicts immediately if the cache is over it.
func (c *GraphCache) SetMaxBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = n
	c.evictOver()
}

func (c *GraphCache) limit() int64 {
	if c.maxBytes <= 0 {
		return DefaultGraphMemory
	}
	return c.maxBytes
}

// Len reports how many explorations the cache holds (memoized verdicts
// are not counted).
func (c *GraphCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Bytes reports the cache's current retained estimate, explorations and
// memoized verdicts together.
func (c *GraphCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Purge empties the cache: explorations and memoized verdicts.
func (c *GraphCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = nil
	c.verdicts = nil
	c.head, c.tail = nil, nil
	c.total = 0
}

// lookup returns the cached graph and hunt trace for key if the graph's
// support union covers union; on a union miss it returns the stale
// graph itself, which the caller widens over the merged union (it stays
// immutable). A memory miss falls through to the disk tier when one is
// attached: a verified, decodable blob that fits the caller's design
// (fits; nil accepts any) is adopted into the memory cache (so publish
// and copy-on-write extension flows see an ordinary hit) and served, or
// returned as the stale graph on a union miss. A blob that does not fit
// is a plain miss, and the rebuild's write-behind replaces it.
func (c *GraphCache) lookup(key graphKey, union []int, fits func(*Graph, *HuntTrace) bool) (g *Graph, ht *HuntTrace, stale *Graph) {
	c.mu.Lock()
	if e := c.m[key]; e != nil {
		defer c.mu.Unlock()
		if !subsetOf(union, e.g.Support) {
			return nil, nil, e.g
		}
		c.touch(e)
		return e.g, e.hunt, nil
	}
	disk := c.disk
	c.mu.Unlock()
	if disk == nil {
		return nil, nil, nil
	}
	blob, ok := disk.Get(astore.KindGraph, key.diskKey())
	if !ok {
		return nil, nil, nil
	}
	g, ht, err := DecodeGraph(blob)
	if err != nil || (fits != nil && !fits(g, ht)) {
		// Version skew or a foreign payload behind a valid checksum:
		// a plain miss; the rebuild's write-behind replaces the blob.
		return nil, nil, nil
	}
	if !subsetOf(union, g.Support) {
		return nil, nil, g
	}
	c.insert(key, g, ht)
	return g, ht, nil
}

// store publishes key's exploration to the memory cache and, when a
// disk tier is attached, writes the blob behind (outside the lock; a
// failed write just means the next process rebuilds). ht may be nil
// (no hunt ran yet); a hunt whose budget mismatches the verifying
// options is the caller's to discard.
func (c *GraphCache) store(key graphKey, g *Graph, ht *HuntTrace) {
	c.insert(key, g, ht)
	c.mu.Lock()
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		_ = disk.Put(astore.KindGraph, key.diskKey(), EncodeGraph(g, ht))
	}
}

// insert places (or replaces) key's exploration in the memory tier and
// evicts LRU entries beyond the memory bound.
func (c *GraphCache) insert(key graphKey, g *Graph, ht *HuntTrace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.m[key]; old != nil {
		c.remove(old)
	}
	if c.m == nil {
		c.m = make(map[graphKey]*cacheEntry)
	}
	e := &cacheEntry{key: key, g: g, hunt: ht, bytes: g.Bytes()}
	if ht != nil {
		e.bytes += ht.Bytes()
	}
	c.m[key] = e
	c.attach(e)
	c.total += e.bytes
	c.evictOver()
}

// lookupVerdict returns the memoized result for k, if the cache holds
// one, and marks it recently used.
func (c *GraphCache) lookupVerdict(k verdictKey) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.verdicts[k]
	if e == nil {
		return Result{}, false
	}
	c.touch(e)
	return e.res, true
}

// storeVerdicts memoizes out[i] under (nl, srcs[i], opt) for every i in
// idx, evicting LRU entries beyond the memory bound after each insert. A
// key already held keeps its entry: results are equal per key.
func (c *GraphCache) storeVerdicts(nl *verilog.Netlist, opt Options, srcs []string, out []Result, idx []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.verdicts == nil {
		c.verdicts = make(map[verdictKey]*cacheEntry)
	}
	for _, i := range idx {
		k := verdictKey{nl: nl, src: srcs[i], opt: opt}
		if c.verdicts[k] != nil {
			continue
		}
		e := &cacheEntry{vkey: k, res: out[i], bytes: verdictEntryBytes + int64(len(k.src)) + out[i].CEX.bytes()}
		c.verdicts[k] = e
		c.attach(e)
		c.total += e.bytes
		c.evictOver()
	}
}

func (c *GraphCache) touch(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.detach(e)
	c.attach(e)
}

func (c *GraphCache) attach(e *cacheEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *GraphCache) detach(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *GraphCache) remove(e *cacheEntry) {
	c.detach(e)
	if e.g != nil {
		delete(c.m, e.key)
	} else {
		delete(c.verdicts, e.vkey)
	}
	c.total -= e.bytes
}

func (c *GraphCache) evictOver() {
	for c.total > c.limit() && c.tail != nil {
		c.remove(c.tail)
	}
}

// subsetOf reports whether every element of a (sorted) appears in b
// (sorted).
func subsetOf(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// mergeSorted unions two sorted int slices.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
