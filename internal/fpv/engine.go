package fpv

import (
	"context"
	"encoding/binary"

	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// Engine is a reusable FPV engine. One Engine owns the allocation-heavy
// state of a verification run — the simulator pair, the visited-state set,
// the BFS node arena, and the RNG — and resets it between calls instead of
// reallocating, so verifying thousands of assertions (the evaluation
// runner's workload) stays cheap. Verdicts are identical to a fresh
// engine's at the same Options.Seed.
//
// An Engine is NOT safe for concurrent use; pool one per worker.
type Engine struct {
	// Graphs, when non-nil, caches shared reachability graphs (and hunt
	// traces) for the batched verification path across calls and engines;
	// nil engines still batch, but rebuild the graph per VerifyBatch call.
	Graphs *GraphCache

	// Per-netlist state, rebuilt only when the design under verification
	// (or the execution backend) changes (Bind).
	nl         *verilog.Netlist
	interp     bool           // simulators run the reference tree-walk
	sim        *sim.Simulator // BFS state loader
	hunt       *sim.Simulator // random-walk / CEX-replay simulator
	zeroEnv    []uint64
	regWidths  []int    // per-register widths (state packing plan)
	packBuf    []uint64 // bit-packed register scratch (StateBits() bits)
	lanePacked []uint64 // per-lane packed-register scratch for sliced expansion
	resetLike  []bool   // per data input: name looks reset-ish (hunt bias)

	// Cone-of-influence state. With a cone active the simulators, the
	// register packing and the input sampling all run over cone.Reduced
	// (e.nl), while everything the caller observes — monitor history
	// rows, hunt stimulus, counter-examples — stays in full-design
	// terms: support values scatter into full-width rows, hunt vectors
	// are drawn over the full input layout and projected onto the cone,
	// and CEXs replay on a full-design simulator.
	cone       *verilog.Cone    // nil when exploring the full design
	fullNl     *verilog.Netlist // the design as the caller passed it (== nl without a cone)
	monNets    int              // monitor-facing env row width: len(fullNl.Nets)
	fullReset  []bool           // per full data input: reset-like (hunt bias)
	inProj     []int            // reduced input position -> full input position
	coneDrive  []uint64         // projected (reduced-layout) stimulus scratch
	coneRowBuf []uint64         // full-width scatter row for cone-mode BFS
	replay     *sim.Simulator   // lazy full-design CEX replay sim (cone mode)

	// Sliced (64-lane) execution state.
	slicedSim *verilog.SlicedMachine // cached per bound netlist (nil if unsupported)
	slicedFor *verilog.Netlist
	slMons    []*sva.Monitor // per-lane monitors for the sliced hunt
	slMonsFor *sva.Compiled

	// Per-call state.
	c          *sva.Compiled
	mon        *sva.Monitor
	opt        Options
	support    []int // c.SupportNets() when PastDepth > 0 (state-key rows)
	monSupport []int // c.SupportNets() (full indices), always set per call
	coneSrc    []int // monSupport mapped to reduced indices (cone mode)

	// Reused scratch.
	nodes        []node
	visitedExact exactSet // exhaustive mode: exact state keys
	visitedHash  u64Set   // bounded mode: hash compaction
	keyBuf       []byte
	histBuf      [][]uint64
	gVisited     exactSet   // graph expansion: exact design-state dedup
	gVisitedFor  *Graph     // the graph gVisited currently indexes
	supportSrc   []int      // active graph's Support mapped to bound-netlist indices
	expandRegs   []uint64   // unpacked register scratch for node expansion
	expandUs     []int32    // frontier-batch scratch: nodes expanded per sliced pass
	expandVecBuf []uint64   // frontier-batch scratch: flat per-edge input vectors
	expandRowBuf []uint64   // expansion scratch: all-edge support rows pre-dedup
	gnodes       []gnode    // batched product-BFS node list
	scatterRows  [][]uint64 // batched search: union rows scattered to full env width
	unionPos     []int32    // net index -> position in the active graph's Support
	regBuf       []uint64   // post-step register snapshot
	envScratch   []uint64   // pre-step env snapshot for $past history
	widths       []int      // data-input widths (per netlist)
	histScratch  [][]uint64 // assembled child history
	enumVecs     [][]uint64 // cached exhaustive input enumeration (per netlist)
	enumPlanes   []uint64   // cached enumerate input bit-planes, pattern-major (per netlist)
	enumPlaneW   int        // words per cached pattern (sum of input widths)
	sampleVecs   [][]uint64 // reusable sampled input vectors
	arena        [][]uint64 // bump-arena chunks for retained per-node data
	arenaCur     int
	huntRing     [][]uint64 // randomHunt history ring buffers
	huntInputs   [][]uint64 // randomHunt stimulus list (outer slice reused)
}

// arenaReset rewinds the arena without releasing its chunks: the previous
// call's nodes are dead, and anything that escaped into a Result was
// deep-copied out, so the chunks (engine high-water mark) are reusable.
func (e *Engine) arenaReset() {
	for i := range e.arena {
		e.arena[i] = e.arena[i][:0]
	}
	e.arenaCur = 0
}

// allocU64 bump-allocates n words from the engine's arena. Node data
// (register snapshots, retained input vectors, history heads) lives only
// until the next call resets the arena, so everything that escapes into a
// Result must be deep-copied (replayCEX does).
func (e *Engine) allocU64(n int) []uint64 {
	for {
		if e.arenaCur == len(e.arena) {
			size := 1 << 14
			if n > size {
				size = n
			}
			e.arena = append(e.arena, make([]uint64, 0, size))
		}
		c := e.arena[e.arenaCur]
		if len(c)+n <= cap(c) {
			s := c[len(c) : len(c)+n : len(c)+n]
			e.arena[e.arenaCur] = c[:len(c)+n]
			return s
		}
		e.arenaCur++
	}
}

func (e *Engine) copyU64(src []uint64) []uint64 {
	s := e.allocU64(len(src))
	copy(s, src)
	return s
}

// NewEngine returns an empty reusable engine.
func NewEngine() *Engine {
	return &Engine{}
}

// The engine's randomness is pure: every sampled input vector and hunt
// stimulus is a splitmix64 function of (Options.Seed, design state or run
// index), never a draw from a shared stream. That is what makes verdicts
// reproducible per seed with zero per-call reseeding cost, and — more
// importantly — what lets the batched verifier share one reachability
// graph across a batch: the vectors tried from a design state depend on
// the state alone, so per-property search and graph replay explore
// byte-identical product spaces (dverify oracle 5).

// sm64 is a splitmix64 stream.
type sm64 uint64

func (s *sm64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// mix64 finalizes a 64-bit hash (the same mixer the state hashes use).
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// sampleSeed derives the per-state sampling stream from the run seed and
// the bit-packed register state.
func sampleSeed(seed int64, packed []uint64) uint64 {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, v := range packed {
		h = mix64(h ^ v)
	}
	return h
}

// huntSeed derives the stimulus stream of one random-hunt run. It depends
// only on (seed, run), so hunt traces are identical for every property —
// the batched verifier simulates each run once and replays it for the
// whole batch.
func huntSeed(seed int64, run int) uint64 {
	return mix64(uint64(seed)*0x9E3779B97F4A7C15 + uint64(run) + 1)
}

// exactSet is a reused open-addressed set of exact state keys for
// exhaustive mode: keys live in one flat arena (fixed length per call,
// since a state key's layout is constant per (design, property)), slots
// hold the key's arena index, and probing uses the 64-bit state hash the
// engine computes anyway — collisions fall back to byte comparison, so
// membership stays exact and proofs stay sound.
type exactSet struct {
	slots  []int32 // key ordinal+1; 0 = empty
	hashes []uint64
	arena  []byte
	keyLen int
	n      int
}

func (s *exactSet) reset(keyLen int) {
	if s.slots == nil {
		s.slots = make([]int32, 1<<10)
		s.hashes = make([]uint64, 0, 1<<10)
	}
	clear(s.slots)
	s.hashes = s.hashes[:0]
	s.arena = s.arena[:0]
	s.keyLen = keyLen
	s.n = 0
}

// insert adds the (hash, key) pair, returning the key's ordinal (its
// insertion index — the graph builder uses it as the node id) and whether
// it was already present.
func (s *exactSet) insert(h uint64, key []byte) (int, bool) {
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		ord := s.slots[i]
		if ord == 0 {
			s.slots[i] = int32(s.n + 1)
			s.hashes = append(s.hashes, h)
			s.arena = append(s.arena, key...)
			s.n++
			if s.n*4 > len(s.slots)*3 {
				s.grow()
			}
			return s.n - 1, false
		}
		k := int(ord - 1)
		if s.hashes[k] == h && string(s.arena[k*s.keyLen:(k+1)*s.keyLen]) == string(key) {
			return k, true
		}
	}
}

func (s *exactSet) grow() {
	s.slots = make([]int32, len(s.slots)*2)
	mask := uint64(len(s.slots) - 1)
	for k, h := range s.hashes {
		for i := h & mask; ; i = (i + 1) & mask {
			if s.slots[i] == 0 {
				s.slots[i] = int32(k + 1)
				break
			}
		}
	}
}

// u64Set is a reused open-addressed set of non-zero 64-bit fingerprints:
// the bounded-mode visited set sits on the hottest dedup path, and linear
// probing over a flat slice beats a Go map there (no hashing of the
// already-hashed key, no bucket indirection). Zero is reserved as the
// empty slot; fingerprints are remapped off zero by the caller.
type u64Set struct {
	slots []uint64
	n     int
}

func (s *u64Set) reset() {
	if s.slots == nil {
		s.slots = make([]uint64, 1<<10)
	}
	clear(s.slots)
	s.n = 0
}

// insert adds v (non-zero) and reports whether it was already present.
func (s *u64Set) insert(v uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := v & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case v:
			return true
		case 0:
			s.slots[i] = v
			s.n++
			if s.n*4 > len(s.slots)*3 {
				s.grow()
			}
			return false
		}
	}
}

func (s *u64Set) grow() {
	old := s.slots
	s.slots = make([]uint64, len(old)*2)
	mask := uint64(len(s.slots) - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		for i := v & mask; ; i = (i + 1) & mask {
			if s.slots[i] == 0 {
				s.slots[i] = v
				break
			}
		}
	}
}

// Bind points the engine at a design on the default (compiled) backend.
// Binding the netlist it already holds is free; a new netlist rebuilds
// the simulator pair. Verify* calls bind automatically — this is exposed
// for callers that want to front-load the cost.
func (e *Engine) Bind(nl *verilog.Netlist) { e.bind(nl, false) }

func (e *Engine) bind(nl *verilog.Netlist, interp bool) {
	if e.nl == nl && e.interp == interp {
		return
	}
	e.nl = nl
	e.interp = interp
	if interp {
		e.sim = sim.New(nl)
		e.hunt = sim.New(nl)
	} else {
		e.sim = sim.NewCompiled(nl)
		e.hunt = sim.NewCompiled(nl)
	}
	e.zeroEnv = make([]uint64, len(nl.Nets))
	e.regBuf = make([]uint64, len(nl.Regs))
	e.envScratch = make([]uint64, len(nl.Nets))
	e.widths = make([]int, len(nl.Inputs))
	e.resetLike = make([]bool, len(nl.Inputs))
	for i, idx := range nl.Inputs {
		e.widths[i] = nl.Nets[idx].Width
		e.resetLike[i] = isResetLike(nl.Nets[idx].Name)
	}
	e.regWidths = make([]int, len(nl.Regs))
	for i, idx := range nl.Regs {
		e.regWidths[i] = nl.Nets[idx].Width
	}
	e.packBuf = make([]uint64, (nl.StateBits()+63)/64)
	e.enumVecs = nil
	e.enumPlanes = e.enumPlanes[:0]
	e.enumPlaneW = 0
	e.sampleVecs = nil
	e.huntRing = nil
	e.scatterRows = nil
	e.unionPos = nil
	e.gVisitedFor = nil
	// Plain binds explore the full design; bindCone overrides these.
	e.cone = nil
	e.fullNl = nl
	e.monNets = len(nl.Nets)
	e.fullReset = e.resetLike
	e.inProj = nil
	e.coneDrive = nil
	e.coneRowBuf = nil
	e.replay = nil
}

// bindCone points the engine at full's cone: the simulators and state
// packing run over cone.Reduced while every monitor-facing buffer stays
// full-design width. A nil or identity cone degenerates to bind(full).
func (e *Engine) bindCone(full *verilog.Netlist, cone *verilog.Cone, interp bool) {
	if cone == nil || cone.Identity {
		e.bind(full, interp)
		return
	}
	if e.nl == cone.Reduced && e.interp == interp && e.cone == cone {
		return
	}
	e.bind(cone.Reduced, interp)
	e.cone = cone
	e.fullNl = full
	e.monNets = len(full.Nets)
	// Monitors read full-design net indices: resize every row they see.
	e.zeroEnv = make([]uint64, e.monNets)
	e.envScratch = make([]uint64, e.monNets)
	e.coneRowBuf = make([]uint64, e.monNets)
	e.fullReset = make([]bool, len(full.Inputs))
	for i, idx := range full.Inputs {
		e.fullReset[i] = isResetLike(full.Nets[idx].Name)
	}
	// Reduced inputs are a subsequence of the full inputs (projection
	// preserves order), so the position map is a linear merge.
	e.inProj = make([]int, len(cone.Reduced.Inputs))
	fp := 0
	for ri, rIdx := range cone.Reduced.Inputs {
		fIdx := cone.Inv[rIdx]
		for full.Inputs[fp] != fIdx {
			fp++
		}
		e.inProj[ri] = fp
	}
	e.coneDrive = make([]uint64, len(cone.Reduced.Inputs))
}

// projectInputs gathers a full-layout stimulus vector onto the cone's
// input layout (reused scratch).
func (e *Engine) projectInputs(full []uint64) []uint64 {
	if e.cone == nil {
		return full
	}
	for i, p := range e.inProj {
		e.coneDrive[i] = full[p]
	}
	return e.coneDrive
}

// expandInputVec lifts a reduced-layout input vector to the full layout
// (cut inputs read zero — they are unobservable by construction).
func (e *Engine) expandInputVec(v []uint64) []uint64 {
	full := make([]uint64, len(e.fullNl.Inputs))
	for i, p := range e.inProj {
		full[p] = v[i]
	}
	return full
}

// sliceRow maps a reduced env onto a full-width row at the property's
// support positions (all a monitor ever reads). Without a cone the env
// is returned as-is.
func (e *Engine) sliceRow(env []uint64) []uint64 {
	if e.cone == nil {
		return env
	}
	row := e.coneRowBuf
	for j, idx := range e.monSupport {
		row[idx] = env[e.coneSrc[j]]
	}
	return row
}

// replaySim returns the simulator CEX replay runs on: the hunt sim when
// exploring the full design, a lazily built full-design sim under a cone
// (counter-examples are always reported in full-design terms).
func (e *Engine) replaySim() *sim.Simulator {
	if e.cone == nil {
		return e.hunt
	}
	if e.replay == nil {
		if e.interp {
			e.replay = sim.New(e.fullNl)
		} else {
			e.replay = sim.NewCompiled(e.fullNl)
		}
	}
	return e.replay
}

// le64Append appends v little-endian to buf.
func le64Append(buf []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(buf, tmp[:]...)
}

// stateHashSeed and stateMix are THE visited-state hash: every state
// key/fingerprint — per-property (stateKeyHash/stateHash) and batched
// (graphKeyHash/graphHash) — folds its words through this one
// definition, in the same field order, so the two search paths produce
// byte-identical keys for identical product states by construction.
// Oracle 5's verdict-identity guarantee (and exhaustive-mode proof
// soundness under shared graphs) rests on that identity; change the
// encodings only in lockstep.
const stateHashSeed = 0x9E3779B97F4A7C15

func stateMix(h, v uint64) uint64 {
	h ^= v
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Verify model-checks an already-parsed assertion against the netlist.
func (e *Engine) Verify(ctx context.Context, nl *verilog.Netlist, a *sva.Assertion, opt Options) Result {
	c, err := sva.Compile(a, nl)
	if err != nil {
		return Result{Status: StatusError, Err: err}
	}
	return e.VerifyCompiled(ctx, nl, c, opt)
}

// VerifySource parses and verifies an assertion given as text.
func (e *Engine) VerifySource(ctx context.Context, nl *verilog.Netlist, src string, opt Options) Result {
	a, err := sva.Parse(src)
	if err != nil {
		return Result{Status: StatusError, Err: err}
	}
	return e.Verify(ctx, nl, a, opt)
}

// VerifyAll verifies a batch of assertion texts, one result per input.
// Parsing and compilation are hoisted out of the search loop, and the
// compiled assertions run through VerifyBatch's shared reachability
// graph with duplicate texts verified once (the engine is deterministic
// per (netlist, text, opt), so duplicates share a result — exactly what
// per-property verification would compute for each).
// Options.PerProperty keeps the per-property reference search, with the
// netlist bound once for the whole batch either way. A context
// cancellation mid-batch marks the remaining results canceled.
func (e *Engine) VerifyAll(ctx context.Context, nl *verilog.Netlist, srcs []string, opt Options) []Result {
	opt = opt.withDefaults()
	out := make([]Result, len(srcs))
	cs := make([]*sva.Compiled, 0, len(srcs))
	idx := make([]int, 0, len(srcs))
	batch := !opt.PerProperty
	first := make(map[string]int, len(srcs)) // text -> slot in cs (batch dedup)
	dup := make(map[int]int)                 // out index -> slot in cs
	for i, s := range srcs {
		if batch {
			if k, ok := first[s]; ok {
				dup[i] = k
				continue
			}
		}
		a, err := sva.Parse(s)
		if err != nil {
			out[i] = Result{Status: StatusError, Err: err}
			continue
		}
		c, err := sva.Compile(a, nl)
		if err != nil {
			out[i] = Result{Status: StatusError, Err: err}
			continue
		}
		if batch {
			first[s] = len(cs)
		}
		cs = append(cs, c)
		idx = append(idx, i)
	}
	if batch {
		results := e.VerifyBatch(ctx, nl, cs, opt)
		for k, r := range results {
			out[idx[k]] = r
		}
		// Each duplicate writes its own slot.
		//ab:allow maprange
		for i, k := range dup {
			out[i] = results[k]
		}
		return out
	}
	for k, c := range cs {
		out[idx[k]] = e.VerifyCompiled(ctx, nl, c, opt)
	}
	return out
}

// VerifyCompiled model-checks one compiled assertion against the netlist.
//
// The search loops poll ctx: on cancellation the call stops early and
// returns StatusError with Err set to ctx.Err() (never a partial pass or
// proof), and when a ctx deadline expires mid-search the call returns
// StatusUnknown — the budgeted anytime early-out (see ctxResult). Callers
// that need to distinguish interruption from an invalid assertion should
// check ctx.Err() alongside the result.
func (e *Engine) VerifyCompiled(ctx context.Context, nl *verilog.Netlist, c *sva.Compiled, opt Options) Result {
	if err := ctx.Err(); err != nil {
		return ctxResult(err)
	}
	opt = opt.withDefaults()
	if !opt.NoStatic {
		if res, ok := staticResult(nl, c); ok {
			return res
		}
	}
	cone := coneFor(nl, c, opt)
	e.bindCone(nl, cone, opt.Interp)
	e.c = c
	if opt.Interp {
		e.mon = sva.NewMonitor(c)
	} else {
		mon, err := sva.NewMonitorCompiled(c)
		if err != nil {
			return Result{Status: StatusError, Err: err}
		}
		e.mon = mon
	}
	e.opt = opt
	e.support = nil
	if c.PastDepth > 0 {
		e.support = c.SupportNets()
	}
	e.monSupport = c.SupportNets()
	e.coneSrc = e.coneSrc[:0]
	if e.cone != nil {
		for _, idx := range e.monSupport {
			e.coneSrc = append(e.coneSrc, e.cone.Map[idx])
		}
	}

	exhaustive := e.nl.InputBits() <= opt.MaxInputBits
	res := e.bfs(ctx, exhaustive)
	if res.Status == StatusCEX || res.Status == StatusError || res.Status == StatusUnknown {
		return res
	}
	if res.Exhaustive {
		if res.NonVacuous {
			res.Status = StatusProven
		} else {
			res.Status = StatusVacuous
		}
		return res
	}
	// Bounded: hunt violations along randomized deep runs before settling
	// for a bounded pass.
	if r, sliced := e.slicedHunt(ctx, &res); sliced {
		if r != nil {
			return *r
		}
	} else if r := e.randomHunt(ctx, &res); r != nil {
		return *r
	}
	if err := ctx.Err(); err != nil {
		return ctxResult(err)
	}
	res.Status = StatusBoundedPass
	return res
}

// VerifyCompiled model-checks one compiled assertion with a one-shot engine.
func VerifyCompiled(ctx context.Context, nl *verilog.Netlist, c *sva.Compiled, opt Options) Result {
	return NewEngine().VerifyCompiled(ctx, nl, c, opt)
}

type node struct {
	regs   []uint64
	hist   [][]uint64 // most recent first; len <= PastDepth
	alive  uint64
	sat    uint64
	parent int32
	inVec  []uint64 // input vector that led here (nil for root)
	depth  int32
}

// bfs explores the product of design states and monitor states.
func (e *Engine) bfs(ctx context.Context, enumerate bool) Result {
	res := Result{}
	// Dedup: exhaustive mode (the only mode that can claim Proven/Vacuous)
	// uses exact state keys, so proofs are sound; bounded mode — already
	// approximate by construction — uses 64-bit hash compaction to keep
	// the visited set allocation-free.
	e.visitedExact.reset(e.stateKeyLen())
	e.visitedHash.reset()
	nVisited := 0
	seen := func(regs []uint64, alive, sat uint64, hist [][]uint64) bool {
		if enumerate {
			k, h := e.stateKeyHash(regs, alive, sat, hist)
			if _, existed := e.visitedExact.insert(h, k); existed {
				return true
			}
		} else {
			h := e.stateHash(regs, alive, sat, hist)
			if h == 0 {
				h = 1 // 0 is the set's empty-slot sentinel
			}
			if e.visitedHash.insert(h) {
				return true
			}
		}
		nVisited++
		return false
	}
	e.arenaReset()
	root := node{regs: e.allocU64(len(e.nl.Regs)), parent: -1}
	clear(root.regs) // arena memory is reused; power-on state is all zeros
	e.nodes = e.nodes[:0]
	e.nodes = append(e.nodes, root)
	seen(root.regs, root.alive, root.sat, root.hist)
	closed := true

	if cap(e.histBuf) < e.c.PastDepth+1 {
		e.histBuf = make([][]uint64, e.c.PastDepth+1)
	}
	histBuf := e.histBuf[:e.c.PastDepth+1]

	for head := 0; head < len(e.nodes); head++ {
		// Poll cancellation every few expansions: frequent enough that a
		// canceled search stops within microseconds, rare enough that the
		// atomic load never shows up in profiles.
		if head&63 == 0 {
			if err := ctx.Err(); err != nil {
				return ctxResult(err)
			}
		}
		if nVisited >= e.opt.MaxProductStates {
			closed = false
			break
		}
		cur := e.nodes[head]
		if int(cur.depth) > res.Depth {
			res.Depth = int(cur.depth)
		}
		var vecs [][]uint64
		if enumerate {
			vecs = e.enumInputVectors()
		} else {
			// Sampled vectors are a pure function of the design state (see
			// sampleSeed): compute the seed before child expansion reuses
			// the packing scratch.
			vecs = e.sampleInputVectors(sampleSeed(e.opt.Seed, e.packRegs(cur.regs)))
		}
		for _, inputs := range vecs {
			if err := e.sim.LoadStateWithInputs(cur.regs, inputs); err != nil {
				// Impossible by construction; treat as engine error.
				return Result{Status: StatusError, Err: err}
			}
			env := e.sim.Env()
			// Monitors read full-design indices: under a cone, scatter the
			// support values into a full-width row first.
			row := e.sliceRow(env)
			histBuf[0] = row
			for k := 1; k <= e.c.PastDepth; k++ {
				if k-1 < len(cur.hist) {
					histBuf[k] = cur.hist[k-1]
				} else {
					histBuf[k] = e.zeroEnv
				}
			}
			e.mon.SetState(cur.alive, cur.sat)
			out := e.mon.Step(histBuf)
			if out.AnteCompleted {
				res.NonVacuous = true
			}
			if out.Violated {
				res.Status = StatusCEX
				res.States = nVisited
				res.CEX = e.buildCEX(head, inputs, int(cur.depth), out.ViolatedAge)
				return res
			}
			alive, sat := e.mon.State()

			// Snapshot the sampled row (into reused scratch) before Step
			// mutates the live env behind it.
			if e.c.PastDepth > 0 {
				copy(e.envScratch, row)
			}
			e.sim.Step()

			// Dedup before materialising the child: the key is computed
			// from scratch buffers, and regs/hist/inVec are only copied
			// out (allocated) for states not seen before.
			e.sim.CopyStateInto(e.regBuf)
			childHist := e.histScratch[:0]
			if e.c.PastDepth > 0 {
				childHist = append(childHist, e.envScratch)
				for k := 0; k < e.c.PastDepth-1 && k < len(cur.hist); k++ {
					childHist = append(childHist, cur.hist[k])
				}
				e.histScratch = childHist
			}
			if !seen(e.regBuf, alive, sat, childHist) {
				inVec := inputs
				if !enumerate {
					// Sampled vectors live in reused scratch; retain a copy.
					inVec = e.copyU64(inputs)
				}
				child := node{
					regs:   e.copyU64(e.regBuf),
					alive:  alive,
					sat:    sat,
					parent: int32(head),
					inVec:  inVec,
					depth:  cur.depth + 1,
				}
				if e.c.PastDepth > 0 {
					// childHist[0] aliases envScratch; deep-copy it. The
					// older entries belong to retained ancestor nodes and
					// are immutable, so aliasing them is safe.
					child.hist = append(make([][]uint64, 0, len(childHist)), childHist...)
					child.hist[0] = e.copyU64(childHist[0])
				}
				e.nodes = append(e.nodes, child)
			}
		}
	}
	res.States = nVisited
	res.Exhaustive = enumerate && closed
	return res
}

// packRegs bit-packs the register values into the engine's scratch
// buffer: one bit per state bit (StateBits() total) instead of one word
// per register, in netlist Regs order. Values are invariantly masked to
// their widths, so packing is injective — exact keys stay exact — while
// visited-set keys and hashing shrink to the information-theoretic size
// (a design with 40 one-bit registers keys on 5 bytes, not 320).
func (e *Engine) packRegs(regs []uint64) []uint64 {
	buf := e.packBuf
	for i := range buf {
		buf[i] = 0
	}
	pos := 0
	for i, v := range regs {
		w := e.regWidths[i]
		word, off := pos>>6, uint(pos&63)
		buf[word] |= v << off
		if off+uint(w) > 64 {
			buf[word+1] |= v >> (64 - off)
		}
		pos += w
	}
	return buf
}

// stateKeyHash encodes a product state exactly into the engine's reused
// key buffer — bit-packed register values, the monitor's alive mask, and
// (when $past is used) the history of the assertion's support nets — and
// computes the probing hash over the same words in the same pass.
// Exhaustive mode uses these exact keys so Proven/Vacuous verdicts are
// sound.
func (e *Engine) stateKeyHash(regs []uint64, alive, sat uint64, hist [][]uint64) ([]byte, uint64) {
	buf := e.keyBuf[:0]
	h := uint64(stateHashSeed)
	put := func(v uint64) {
		buf = le64Append(buf, v)
		h = stateMix(h, v)
	}
	for _, v := range e.packRegs(regs) {
		put(v)
	}
	put(alive)
	if e.c.Ranged {
		put(sat)
	}
	// Histories shorter than PastDepth pad with the zero env — exactly
	// what the monitor substitutes for missing history, so the padded
	// key identifies behaviourally identical states (and keys keep one
	// fixed length per call, which the exact set's arena relies on).
	for k := 0; k < e.c.PastDepth; k++ {
		row := e.zeroEnv
		if k < len(hist) {
			row = hist[k]
		}
		for _, idx := range e.support {
			put(row[idx])
		}
	}
	e.keyBuf = buf
	return buf, h
}

// stateKeyLen is the fixed byte length of this call's state keys.
func (e *Engine) stateKeyLen() int {
	words := len(e.packBuf) + 1
	if e.c != nil && e.c.Ranged {
		words++
	}
	if e.c != nil {
		words += e.c.PastDepth * len(e.support)
	}
	return words * 8
}

// stateHash fingerprints a product state for bounded-mode deduplication.
// Hash compaction (64-bit fingerprints instead of full state keys, as in
// SPIN's bitstate hashing) keeps the visited set allocation-free; a
// collision (probability ~n^2/2^64 per call) can only prune bounded
// exploration, which is approximate by construction and never claims a
// proof — exhaustive mode uses stateKey's exact keys. The hash is a pure
// function of the state, so verdicts stay deterministic and identical
// across sequential and parallel runs.
func (e *Engine) stateHash(regs []uint64, alive, sat uint64, hist [][]uint64) uint64 {
	h := uint64(stateHashSeed)
	mix := func(v uint64) {
		h = stateMix(h, v)
	}
	for _, v := range e.packRegs(regs) {
		mix(v)
	}
	mix(alive)
	if e.c.Ranged {
		mix(sat)
	}
	// Zero-pad short histories exactly as stateKey does: equal keys must
	// hash equally for the exact set's probing to be correct.
	for k := 0; k < e.c.PastDepth; k++ {
		row := e.zeroEnv
		if k < len(hist) {
			row = hist[k]
		}
		for _, idx := range e.support {
			mix(row[idx])
		}
	}
	return h
}

// unpackInputs splits a packed bit vector (little-endian across words)
// into per-input values by the given widths. Packing is positional, so
// designs wider than 64 input bits unpack every input — the old
// single-word form silently zeroed everything past bit 63.
func unpackInputs(vals []uint64, widths []int, words []uint64) {
	pos := 0
	for i, w := range widths {
		word, off := pos>>6, uint(pos&63)
		v := words[word] >> off
		if off+uint(w) > 64 {
			v |= words[word+1] << (64 - off)
		}
		vals[i] = v & verilog.WidthMask(w)
		pos += w
	}
}

// inputWords is the packed-word count for a set of input widths (at
// least 1, so zero-input designs still have a draw buffer).
func inputWords(widths []int) int {
	total := 0
	for _, w := range widths {
		total += w
	}
	n := (total + 63) / 64
	if n == 0 {
		n = 1
	}
	return n
}

// enumInputVectors yields the full data-input enumeration — a pure
// function of the netlist, cached across states and calls.
func (e *Engine) enumInputVectors() [][]uint64 {
	total := 0
	for _, w := range e.widths {
		total += w
	}
	n := 1 << uint(total)
	if len(e.enumVecs) != n {
		e.enumVecs = enumerateInputs(e.widths)
	}
	return e.enumVecs
}

// enumerateInputs builds the full input enumeration for the widths.
func enumerateInputs(widths []int) [][]uint64 {
	total := 0
	for _, w := range widths {
		total += w
	}
	n := 1 << uint(total)
	out := make([][]uint64, 0, n)
	for b := 0; b < n; b++ {
		vals := make([]uint64, len(widths))
		unpackInputs(vals, widths, []uint64{uint64(b)})
		out = append(out, vals)
	}
	return out
}

// sampleInputVectors yields the bounded-mode vectors to try from one
// state — the all-zeros and all-ones corners plus MaxInputSamples
// splitmix draws from the state's sampling stream — into reused scratch
// (consumers must copy what they retain). The same smSeed always yields
// the same vectors, which is what keeps bounded search identical between
// the per-property path and the shared-graph batched path.
func (e *Engine) sampleInputVectors(smSeed uint64) [][]uint64 {
	widths := e.widths
	n := e.opt.MaxInputSamples + 2
	if len(e.sampleVecs) != n || (n > 0 && len(e.sampleVecs[0]) != len(widths)) {
		e.sampleVecs = make([][]uint64, n)
		for i := range e.sampleVecs {
			e.sampleVecs[i] = make([]uint64, len(widths))
		}
	}
	fillSampleVectors(e.sampleVecs, widths, smSeed)
	return e.sampleVecs
}

// fillSampleVectors writes the bounded-mode vector set for one state into
// vecs (len MaxInputSamples+2): shared by the per-property engine and the
// graph builder so both derive identical edges. Designs up to 64 input
// bits draw exactly one stream word per vector (the historical pattern);
// wider designs draw one word per 64 packed bits so every input is
// randomized.
func fillSampleVectors(vecs [][]uint64, widths []int, smSeed uint64) {
	var buf [4]uint64
	nWords := inputWords(widths)
	words := buf[:]
	if nWords > len(buf) {
		words = make([]uint64, nWords)
	}
	words = words[:nWords]
	clear(words)
	unpackInputs(vecs[0], widths, words)
	for i := range words {
		words[i] = ^uint64(0)
	}
	unpackInputs(vecs[1], widths, words)
	sm := sm64(smSeed)
	for i := 2; i < len(vecs); i++ {
		for j := range words {
			words[j] = sm.next()
		}
		unpackInputs(vecs[i], widths, words)
	}
}

// buildCEX reconstructs the refuting stimulus from parent links and
// re-simulates it to capture the sampled trace.
func (e *Engine) buildCEX(head int, lastInputs []uint64, depth, violatedAge int) *CEX {
	var inputs [][]uint64
	for i := head; i >= 0 && e.nodes[i].parent >= 0; i = int(e.nodes[i].parent) {
		inputs = append(inputs, e.nodes[i].inVec)
	}
	// Reverse into chronological order and append the violating step.
	for l, r := 0, len(inputs)-1; l < r; l, r = l+1, r-1 {
		inputs[l], inputs[r] = inputs[r], inputs[l]
	}
	inputs = append(inputs, lastInputs)
	if e.cone != nil {
		// BFS vectors are reduced-layout; counter-examples are reported
		// (and replayed) in full-design terms.
		for i, u := range inputs {
			inputs[i] = e.expandInputVec(u)
		}
	}
	return e.replayCEX(inputs, depth, violatedAge)
}

func (e *Engine) replayCEX(inputs [][]uint64, depth, violatedAge int) *CEX {
	// The CEX outlives this call but the stimulus vectors may live in the
	// engine's arena or sampling scratch, so deep-copy them.
	retained := make([][]uint64, len(inputs))
	for i, u := range inputs {
		retained[i] = append([]uint64(nil), u...)
	}
	inputs = retained
	cex := &CEX{
		Inputs:         inputs,
		ViolationCycle: depth,
		AttemptCycle:   depth - violatedAge,
	}
	s := e.replaySim()
	s.ResetState()
	for _, u := range inputs {
		if err := s.SetInputs(u); err != nil {
			break
		}
		s.Settle()
		env := make([]uint64, len(s.Env()))
		copy(env, s.Env())
		cex.Sampled = append(cex.Sampled, env)
		s.Step()
	}
	return cex
}

// randomHunt drives randomized deep runs looking for violations that the
// truncated BFS missed. Returns a full result on violation or
// cancellation, nil otherwise.
func (e *Engine) randomHunt(ctx context.Context, res *Result) *Result {
	histDepth := e.c.PastDepth
	if cap(e.histBuf) < histDepth+1 {
		e.histBuf = make([][]uint64, histDepth+1)
	}
	histBuf := e.histBuf[:histDepth+1]
	// History ring: huntRing[k] holds the sampled env of k+1 cycles ago.
	// Rotation recycles the oldest buffer as the new head, so steady-state
	// runs allocate nothing.
	if histDepth > 0 && len(e.huntRing) < histDepth {
		e.huntRing = make([][]uint64, histDepth)
		for i := range e.huntRing {
			e.huntRing[i] = make([]uint64, e.monNets)
		}
	}
	ring := e.huntRing[:histDepth]
	for run := 0; run < e.opt.RandomRuns; run++ {
		if err := ctx.Err(); err != nil {
			r := ctxResult(err)
			return &r
		}
		s := e.hunt
		s.ResetState()
		e.mon.Reset()
		histLen := 0
		inputs := e.huntInputs[:0]
		// Each run's stimulus is its own pure splitmix stream — identical
		// across properties at the same seed, so the batched verifier can
		// simulate the run once for a whole batch.
		sm := sm64(huntSeed(e.opt.Seed, run))
		for t := 0; t < e.opt.RandomDepth; t++ {
			// Stimulus is always drawn over the full input layout (so runs
			// are identical with and without a cone, and CEXs replay on the
			// full design) and projected onto the cone for driving.
			u := e.randomStimulus(&sm, t)
			inputs = append(inputs, u)
			e.huntInputs = inputs
			if err := s.SetInputs(e.projectInputs(u)); err != nil {
				break
			}
			s.Settle()
			env := s.Env()
			row := e.sliceRow(env)
			histBuf[0] = row
			for k := 1; k <= histDepth; k++ {
				if k-1 < histLen {
					histBuf[k] = ring[k-1]
				} else {
					histBuf[k] = e.zeroEnv
				}
			}
			out := e.mon.Step(histBuf)
			if out.AnteCompleted {
				res.NonVacuous = true
			}
			if out.Violated {
				full := *res
				full.Status = StatusCEX
				full.CEX = e.replayCEX(inputs, t, out.ViolatedAge)
				if t > full.Depth {
					full.Depth = t
				}
				return &full
			}
			if histDepth > 0 {
				head := ring[histDepth-1]
				copy(head, row)
				copy(ring[1:], ring[:histDepth-1])
				ring[0] = head
				if histLen < histDepth {
					histLen++
				}
			}
			s.Step()
			if t > res.Depth {
				res.Depth = t
			}
		}
	}
	return nil
}

// ensureSliced returns the 64-lane machine for the bound netlist, or nil
// if the design cannot be sliced (cyclic comb logic). Cached per netlist.
func (e *Engine) ensureSliced() *verilog.SlicedMachine {
	if e.slicedFor != e.nl {
		e.slicedSim = verilog.NewSlicedMachine(e.nl)
		e.slicedFor = e.nl
	}
	return e.slicedSim
}

// laneMonitors returns SlicedLanes compiled monitors for the current
// property — one per lane, since monitor state is scalar per trajectory.
func (e *Engine) laneMonitors() []*sva.Monitor {
	if e.slMonsFor == e.c && len(e.slMons) == verilog.SlicedLanes {
		return e.slMons
	}
	mons := make([]*sva.Monitor, verilog.SlicedLanes)
	for i := range mons {
		m, err := sva.NewMonitorCompiled(e.c)
		if err != nil {
			return nil
		}
		mons[i] = m
	}
	e.slMons, e.slMonsFor = mons, e.c
	return mons
}

// slicedHunt is randomHunt on the 64-lane machine: one pass through the
// design advances 64 runs at once (lane l of block r0 is scalar run
// r0+l), with per-lane monitors stepping over gathered support rows. It
// emulates the scalar hunt exactly — identical per-run stimulus streams,
// run-major accumulation of NonVacuous/Depth, and the first violation in
// run order wins — so verdicts are bit-identical (dverify oracle 7).
// Returns (result, true) when the sliced path ran; (nil, false) defers
// to the scalar hunt.
func (e *Engine) slicedHunt(ctx context.Context, res *Result) (*Result, bool) {
	if e.opt.Scalar || e.interp {
		return nil, false
	}
	msl := e.ensureSliced()
	if msl == nil {
		return nil, false
	}
	mons := e.laneMonitors()
	if mons == nil {
		return nil, false
	}
	const lanes = verilog.SlicedLanes
	histDepth := e.c.PastDepth
	if cap(e.histBuf) < histDepth+1 {
		e.histBuf = make([][]uint64, histDepth+1)
	}
	histBuf := e.histBuf[:histDepth+1]
	// Per-lane history: a ring of histDepth+1 full-width rows per lane
	// (slot t mod histDepth+1 holds cycle t's row). Only support
	// positions are ever written; monitors read nothing else.
	rows := make([][]uint64, lanes*(histDepth+1))
	for i := range rows {
		rows[i] = e.allocU64(e.monNets)
	}
	rowAt := func(l, slot int) []uint64 { return rows[l*(histDepth+1)+slot] }
	// Machine-side support indices (reduced under a cone).
	src := e.monSupport
	if e.cone != nil {
		src = e.coneSrc
	}
	nIn := len(e.fullNl.Inputs)
	var (
		sms     [lanes]sm64
		violT   [lanes]int
		violAge [lanes]int
		ante    [lanes]bool
		laneBuf [lanes]uint64
		inputs  [lanes][][]uint64
	)
	for r0 := 0; r0 < e.opt.RandomRuns; r0 += lanes {
		if err := ctx.Err(); err != nil {
			r := ctxResult(err)
			return &r, true
		}
		n := lanes
		if e.opt.RandomRuns-r0 < n {
			n = e.opt.RandomRuns - r0
		}
		msl.ResetState()
		for l := 0; l < n; l++ {
			mons[l].Reset()
			sms[l] = sm64(huntSeed(e.opt.Seed, r0+l))
			violT[l] = -1
			ante[l] = false
			inputs[l] = inputs[l][:0]
		}
		for t := 0; t < e.opt.RandomDepth; t++ {
			alive := 0
			for l := 0; l < n; l++ {
				if violT[l] < 0 {
					alive++
				}
			}
			if alive == 0 {
				break
			}
			// Draw each live lane's stimulus from its own stream (full
			// input layout, exactly as the scalar hunt). A violated lane's
			// run already ended in run-order terms; its machine lanes keep
			// stale values that influence nothing.
			for l := 0; l < n; l++ {
				if violT[l] >= 0 {
					continue
				}
				u := e.allocU64(nIn)
				e.fillStimulus(&sms[l], t, u)
				inputs[l] = append(inputs[l], u)
			}
			for pos := range e.nl.Inputs {
				fullPos := pos
				if e.cone != nil {
					fullPos = e.inProj[pos]
				}
				for l := 0; l < n; l++ {
					if violT[l] < 0 {
						laneBuf[l] = inputs[l][t][fullPos]
					} else {
						laneBuf[l] = 0
					}
				}
				msl.SetInputLanes(pos, laneBuf[:n])
			}
			msl.Settle()
			slot := t % (histDepth + 1)
			for j, fullIdx := range e.monSupport {
				msl.Lanes(src[j], laneBuf[:n])
				for l := 0; l < n; l++ {
					if violT[l] < 0 {
						rowAt(l, slot)[fullIdx] = laneBuf[l]
					}
				}
			}
			for l := 0; l < n; l++ {
				if violT[l] >= 0 {
					continue
				}
				histBuf[0] = rowAt(l, slot)
				for k := 1; k <= histDepth; k++ {
					if t-k >= 0 {
						histBuf[k] = rowAt(l, (t-k)%(histDepth+1))
					} else {
						histBuf[k] = e.zeroEnv
					}
				}
				out := mons[l].Step(histBuf)
				if out.AnteCompleted {
					ante[l] = true
				}
				if out.Violated {
					violT[l] = t
					violAge[l] = out.ViolatedAge
				}
			}
			msl.Step()
		}
		// Run-major accumulation: lane l's contributions land exactly when
		// scalar run r0+l's would, and the first violation in run order
		// returns before later runs (which the scalar hunt never executed)
		// can contribute anything.
		for l := 0; l < n; l++ {
			if ante[l] {
				res.NonVacuous = true
			}
			if violT[l] >= 0 {
				full := *res
				full.Status = StatusCEX
				full.CEX = e.replayCEX(inputs[l][:violT[l]+1], violT[l], violAge[l])
				if violT[l] > full.Depth {
					full.Depth = violT[l]
				}
				return &full, true
			}
			if e.opt.RandomDepth-1 > res.Depth {
				res.Depth = e.opt.RandomDepth - 1
			}
		}
	}
	return nil, true
}

// randomStimulus draws one hunt stimulus vector from the run's stream,
// biasing early cycles toward asserting reset-like inputs so deep FSM
// behaviour past reset is exercised. The draw pattern is fixed (one word
// per input, plus one for the reset bias) so a stream position depends
// only on the cycle index.
func (e *Engine) randomStimulus(sm *sm64, t int) []uint64 {
	vals := e.allocU64(len(e.fullNl.Inputs))
	e.fillStimulus(sm, t, vals)
	return vals
}

// fillStimulus is randomStimulus without the arena allocation (shared
// with the batched hunt-trace builder, which must draw identical vectors).
// Vectors cover the FULL input layout even under a cone, so the stream is
// cone-independent.
func (e *Engine) fillStimulus(sm *sm64, t int, vals []uint64) {
	for i, idx := range e.fullNl.Inputs {
		n := e.fullNl.Nets[idx]
		vals[i] = sm.next() & n.Mask()
		if e.fullReset[i] {
			if t < 2 {
				vals[i] = 1 & n.Mask()
			} else if sm.next()&15 != 0 {
				vals[i] = 0
			}
		}
	}
}

func isResetLike(name string) bool {
	for i := 0; i+2 < len(name); i++ {
		if name[i] == 'r' && name[i+1] == 's' && name[i+2] == 't' {
			return true
		}
		if i+4 < len(name) && name[i] == 'r' && name[i+1] == 'e' && name[i+2] == 's' && name[i+3] == 'e' && name[i+4] == 't' {
			return true
		}
	}
	return false
}
