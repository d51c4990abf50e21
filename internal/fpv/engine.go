package fpv

import (
	"context"
	"encoding/binary"

	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// Engine is a reusable FPV engine. One Engine owns the allocation-heavy
// state of a verification run — the simulator pair, the visited-state
// sets, the product-search node list and the graph-expansion scratch —
// and resets it between calls instead of reallocating, so verifying
// thousands of assertions (the evaluation runner's workload) stays
// cheap. Every entry point runs the same search: a single property is
// verified as a batch of one (see VerifyBatch). Verdicts are identical
// to a fresh engine's at the same Options.Seed.
//
// An Engine is NOT safe for concurrent use; pool one per worker.
type Engine struct {
	// Graphs, when non-nil, caches shared reachability graphs (and hunt
	// traces) across calls and engines; nil engines build a private
	// graph per call, in the storage of the graph they built last.
	Graphs *GraphCache

	// Per-netlist state, rebuilt only when the design under verification
	// (or the execution backend) changes (Bind).
	nl        *verilog.Netlist
	interp    bool           // simulators run the reference tree-walk
	sim       *sim.Simulator // graph-expansion simulator
	hunt      *sim.Simulator // random-hunt / CEX-replay simulator
	zeroEnv   []uint64
	regWidths []int    // per-register widths (state packing plan)
	packBuf   []uint64 // bit-packed register scratch (StateBits() bits)

	// Cone-of-influence state. With a cone active the simulators, the
	// register packing and the input sampling all run over cone.Reduced
	// (e.nl), while everything the caller observes — monitor history
	// rows, hunt stimulus, counter-examples — stays in full-design
	// terms: support values scatter into full-width rows, hunt vectors
	// are drawn over the full input layout and projected onto the cone,
	// and CEXs replay on a full-design simulator.
	cone      *verilog.Cone    // nil when exploring the full design
	fullNl    *verilog.Netlist // the design as the caller passed it (== nl without a cone)
	monNets   int              // monitor-facing env row width: len(fullNl.Nets)
	fullReset []bool           // per full data input: reset-like (hunt bias)
	inProj    []int            // reduced input position -> full input position
	coneDrive []uint64         // projected (reduced-layout) stimulus scratch
	replay    *sim.Simulator   // lazy full-design CEX replay sim (cone mode)

	// Per-call state.
	c       *sva.Compiled
	opt     Options
	support []int // c.SupportNets() when PastDepth > 0 (state-key rows)

	// Reused scratch.
	visitedExact exactSet // exhaustive mode: exact state keys
	visitedHash  u64Set   // bounded mode: hash compaction
	keyBuf       []byte
	histBuf      [][]uint64
	gVisited     exactSet   // graph expansion: exact design-state dedup
	gVisitedFor  *Graph     // the graph gVisited currently indexes
	spare        *Graph     // cache-less engines: the last batch's graph, storage for the next
	supportSrc   []int      // active graph's Support mapped to bound-netlist indices
	expandRegs   []uint64   // unpacked register scratch for node expansion
	expandRowBuf []uint64   // expansion scratch: all-edge support rows pre-dedup
	dedupSlots   []int32    // expansion scratch: dedupEdges' class table
	gnodes       []gnode    // product-BFS node list
	scatterRows  [][]uint64 // union rows scattered to full env width
	unionPos     []int32    // net index -> position in the active graph's Support
	regBuf       []uint64   // post-step register snapshot
	widths       []int      // data-input widths (per netlist)
	histScratch  [][]uint64 // assembled child history
	enumVecs     [][]uint64 // cached exhaustive input enumeration (per netlist)
	sampleVecs   [][]uint64 // reusable sampled input vectors

	expanded int // graph nodes expanded over the engine's life (Expanded)
}

// NewEngine returns an empty reusable engine.
func NewEngine() *Engine {
	return &Engine{}
}

// Expanded reports how many graph nodes the engine has expanded (stepped
// under every input vector) since it was made. Nodes served from a
// GraphCache, loaded from disk or re-rowed after a widen cost no
// expansion, so the count is the search work a layer saves or repeats;
// dverify's oracles read it around their calls.
func (e *Engine) Expanded() int { return e.expanded }

// The engine's randomness is pure: every sampled input vector and hunt
// stimulus is a splitmix64 function of (Options.Seed, design state or run
// index), never a draw from a shared stream. That is what makes verdicts
// reproducible per seed with zero per-call reseeding cost, and — more
// importantly — what lets a batch share one reachability graph and one
// hunt trace: the vectors tried from a design state depend on the state
// alone, so a batch of N explores byte-identical product spaces to N
// batches of one (dverify oracle 5).

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
	e.widths = make([]int, len(nl.Inputs))
	e.fullReset = make([]bool, len(nl.Inputs))
	for i, idx := range nl.Inputs {
		e.widths[i] = nl.Nets[idx].Width
		e.fullReset[i] = isResetLike(nl.Nets[idx].Name)
	}
	e.regWidths = make([]int, len(nl.Regs))
	for i, idx := range nl.Regs {
		e.regWidths[i] = nl.Nets[idx].Width
	}
	e.packBuf = make([]uint64, (nl.StateBits()+63)/64)
	e.enumVecs = nil
	e.sampleVecs = nil
	e.scatterRows = nil
	e.unionPos = nil
	e.gVisitedFor = nil
	// Plain binds explore the full design; bindCone overrides these.
	e.cone = nil
	e.fullNl = nl
	e.monNets = len(nl.Nets)
	e.inProj = nil
	e.coneDrive = nil
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

// stateHashSeed and stateMix are the state hash: product-state keys and
// fingerprints (graphKeyHash, graphHash) and design-state keys
// (packedKeyHash) fold their words through this one definition.
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

// VerifySource parses and verifies an assertion given as text: a
// VerifyAll of one, so it reads and fills the GraphCache's verdict memo.
func (e *Engine) VerifySource(ctx context.Context, nl *verilog.Netlist, src string, opt Options) Result {
	return e.VerifyAll(ctx, nl, []string{src}, opt)[0]
}

// VerifyAll verifies a batch of assertion texts, one result per input.
// With a GraphCache attached, each text is first looked up in the
// cache's verdict memo under (nl, text, opt after withDefaults); a hit
// skips parsing, compiling, static analysis and search. The misses are
// parsed and compiled here, hoisted out of the search loop, and run
// through VerifyBatch's shared reachability graph with duplicate texts
// verified once (the engine is deterministic per (netlist, text, opt),
// so duplicates share a result). A call that finishes with
// ctx.Err() == nil memoizes every result it computed, parse and compile
// errors included; an interrupted call memoizes nothing, so deadline
// Unknowns and cancellations never outlive it. A call whose ctx is
// already done skips the memo and returns what VerifyBatch returns for
// it; a context cancellation mid-batch marks the remaining results
// canceled.
func (e *Engine) VerifyAll(ctx context.Context, nl *verilog.Netlist, srcs []string, opt Options) []Result {
	opt = opt.withDefaults()
	memo := e.Graphs
	if ctx.Err() != nil {
		memo = nil
	}
	out := make([]Result, len(srcs))
	cs := make([]*sva.Compiled, 0, len(srcs))
	idx := make([]int, 0, len(srcs))
	fresh := make([]int, 0, len(srcs))       // out indices this call computes
	first := make(map[string]int, len(srcs)) // text -> slot in cs
	dup := make(map[int]int)                 // out index -> slot in cs
	for i, s := range srcs {
		if k, ok := first[s]; ok {
			dup[i] = k
			continue
		}
		if memo != nil {
			if r, ok := memo.lookupVerdict(verdictKey{nl: nl, src: s, opt: opt}); ok {
				out[i] = r
				continue
			}
		}
		fresh = append(fresh, i)
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
		first[s] = len(cs)
		cs = append(cs, c)
		idx = append(idx, i)
	}
	results := e.VerifyBatch(ctx, nl, cs, opt)
	for k, r := range results {
		out[idx[k]] = r
	}
	// Each duplicate writes its own slot.
	//ab:allow maprange
	for i, k := range dup {
		out[i] = results[k]
	}
	if memo != nil && len(fresh) > 0 && ctx.Err() == nil {
		memo.storeVerdicts(nl, opt, srcs, out, fresh)
	}
	return out
}

// VerifyCompiled model-checks one compiled assertion against the netlist:
// a VerifyBatch of one, so it reads and fills the engine's GraphCache
// like any batch.
//
// The search loops poll ctx: on cancellation the call stops early and
// returns StatusError with Err set to ctx.Err() (never a partial pass or
// proof), and when a ctx deadline expires mid-search the call returns
// StatusUnknown — the budgeted anytime early-out (see ctxResult). Callers
// that need to distinguish interruption from an invalid assertion should
// check ctx.Err() alongside the result.
func (e *Engine) VerifyCompiled(ctx context.Context, nl *verilog.Netlist, c *sva.Compiled, opt Options) Result {
	return e.VerifyBatch(ctx, nl, []*sva.Compiled{c}, opt)[0]
}

// VerifyCompiled model-checks one compiled assertion with a one-shot engine.
func VerifyCompiled(ctx context.Context, nl *verilog.Netlist, c *sva.Compiled, opt Options) Result {
	return NewEngine().VerifyCompiled(ctx, nl, c, opt)
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

// stateKeyLen is the fixed byte length of the current property's
// product-state keys (graphKeyHash).
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
// the same vectors, which is what makes a bounded graph's edges a pure
// function of (seed, state) whichever batch expands them. Designs up to
// 64 input bits draw exactly one stream word per vector (the historical
// pattern); wider designs draw one word per 64 packed bits so every
// input is randomized.
func (e *Engine) sampleInputVectors(smSeed uint64) [][]uint64 {
	widths := e.widths
	n := e.opt.MaxInputSamples + 2
	if len(e.sampleVecs) != n || (n > 0 && len(e.sampleVecs[0]) != len(widths)) {
		e.sampleVecs = make([][]uint64, n)
		for i := range e.sampleVecs {
			e.sampleVecs[i] = make([]uint64, len(widths))
		}
	}
	vecs := e.sampleVecs
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
	return vecs
}

func (e *Engine) replayCEX(inputs [][]uint64, depth, violatedAge int) *CEX {
	// The CEX outlives this call but the stimulus vectors may alias graph,
	// hunt-trace or enumeration storage, so deep-copy them.
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

// fillStimulus draws one hunt stimulus vector from the run's stream into
// vals, biasing early cycles toward asserting reset-like inputs so deep
// FSM behaviour past reset is exercised. The draw pattern is fixed (one
// word per input, plus one for the reset bias) so a stream position
// depends only on the cycle index. Vectors cover the FULL input layout
// even under a cone, so the stream is cone-independent.
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
