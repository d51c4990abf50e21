package fpv

import (
	"context"
	"slices"

	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// The engine's one search: all properties of a batch share a single
// demand-driven reachability exploration (graph.go) instead of
// re-simulating the design's state space once per assertion, and a
// single property is simply a batch of one (VerifyCompiled). Each
// property runs a monitor-only product BFS over the graph (expanding
// nodes on first use), and — in bounded mode — the unresolved remainder
// of the batch steps over one shared random-hunt trace, simulated run by
// run as consumed. A batch of N yields the same results as N batches of
// one, field for field including CEX stimulus (dverify oracle 5
// enforces this); only the work is amortized.

// gnode is one product state of the batched search: a graph node times
// the monitor state, plus the sampled-history window its property reads
// (rows are graph-owned union rows, most recent first).
type gnode struct {
	node   int32
	alive  uint64
	sat    uint64
	parent int32
	edge   int32 // graph edge taken into this state (-1 at the root)
	depth  int32
	hist   [][]uint64
}

// batchState carries one VerifyBatch call's exploration: the graph and
// hunt trace in use, whether they are private clones (extendable) or
// still the cache's immutable copies, and whether anything grew and so
// is worth republishing.
type batchState struct {
	key     graphKey
	g       *Graph
	ht      *HuntTrace
	gOwned  bool
	htOwned bool
	dirty   bool
	// failed marks an exploration that hit an engine error; it must not
	// be republished.
	failed bool
}

// VerifyBatch model-checks a batch of compiled assertions against the
// netlist with one shared design-state exploration per cone of influence,
// returning one result per input in order. Results are identical to
// verifying each assertion in a batch of its own (VerifyCompiled) with
// the same Options, in any order and over any cache state.
// Cancellation marks every undecided result StatusError with ctx.Err();
// an expired ctx deadline marks them StatusUnknown instead — the
// budgeted anytime early-out (see ctxResult).
//
// Unless FullDesign is set, the batch is partitioned by each
// property's canonical cone pointer (verilog.Cone is interned per
// closure): properties sharing a closure share one reduced design, one
// reachability graph and one hunt trace, so the shared exploration is
// built per cone rather than per full design — and since the graph cache
// keys on the engine's bound netlist pointer, cone-reduced graphs get
// their own (smaller, correctly charged) cache entries for free.
func (e *Engine) VerifyBatch(ctx context.Context, nl *verilog.Netlist, cs []*sva.Compiled, opt Options) []Result {
	out := make([]Result, len(cs))
	opt = opt.withDefaults()
	if err := ctx.Err(); err != nil {
		r := ctxResult(err)
		for i := range out {
			out[i] = r
		}
		return out
	}
	if len(cs) == 0 {
		return out
	}
	// Partition by canonical cone (identity cones fold into the nil/full
	// group), preserving first-appearance order for determinism.
	// Statically discharged properties never join a group: their verdicts
	// come straight from the fixpoint (Classify is a pure function of the
	// netlist and property, so a property discharges the same way in any
	// batch — dverify oracle 5).
	type group struct {
		cone *verilog.Cone
		idx  []int
	}
	var groups []group
	gidx := make(map[*verilog.Cone]int)
	var wit witnesses
	for i, c := range cs {
		if !opt.NoStatic {
			if res, ok := staticResult(nl, c, &wit); ok {
				out[i] = res
				continue
			}
		}
		cone := coneFor(nl, c, opt)
		k, ok := gidx[cone]
		if !ok {
			k = len(groups)
			gidx[cone] = k
			groups = append(groups, group{cone: cone})
		}
		groups[k].idx = append(groups[k].idx, i)
	}
	for _, grp := range groups {
		sub := make([]*sva.Compiled, len(grp.idx))
		for j, i := range grp.idx {
			sub[j] = cs[i]
		}
		res := e.verifyBatchGroup(ctx, nl, grp.cone, sub, opt)
		for j, i := range grp.idx {
			out[i] = res[j]
		}
	}
	return out
}

// coneWorthwhile reports whether exploring a property's cone pays for
// giving up the full-design group's shared graph and hunt trace. A cone
// always shrinks per-step simulation a little, but a private graph and a
// re-simulated hunt cost a fixed multiple of the batch's shared ones, so
// the reduction must buy something exponential: at least halving the
// packed register state (shrinking the reachable set quadratically or
// better), or pulling the input space under the exhaustive-enumeration
// bound that the full design exceeds. The gate is a pure function of
// (cone, netlist, options), so a property lands in the same group
// whatever else shares its batch (dverify oracle 5).
func coneWorthwhile(cone *verilog.Cone, nl *verilog.Netlist, opt Options) bool {
	if cone.Reduced.StateBits()*2 <= nl.StateBits() {
		return true
	}
	return cone.Reduced.InputBits() <= opt.MaxInputBits && nl.InputBits() > opt.MaxInputBits
}

// verifyBatchGroup runs one cone's share of a batch: every property here
// has the same closure, so they share the reduced design, graph and hunt
// trace.
func (e *Engine) verifyBatchGroup(ctx context.Context, nl *verilog.Netlist, cone *verilog.Cone, cs []*sva.Compiled, opt Options) []Result {
	out := make([]Result, len(cs))
	// Every fail in this group is ctx-derived, so classification (deadline
	// → StatusUnknown, cancellation → StatusError) applies throughout.
	fail := func(from int, err error) []Result {
		r := ctxResult(err)
		for i := from; i < len(out); i++ {
			out[i] = r
		}
		return out
	}
	if err := ctx.Err(); err != nil {
		return fail(0, err)
	}
	e.bindCone(nl, cone, opt.Interp)
	e.opt = opt

	union := []int{}
	for _, c := range cs {
		union = mergeSorted(union, c.SupportNets())
	}
	enumerate := e.nl.InputBits() <= opt.MaxInputBits
	bs := e.openBatch(union, enumerate)
	defer e.publishBatch(bs)

	// supportSrc maps the graph's support positions (full-design indices)
	// to the bound netlist the simulators run over.
	e.supportSrc = e.supportSrc[:0]
	for _, idx := range bs.g.Support {
		if e.cone != nil {
			e.supportSrc = append(e.supportSrc, e.cone.Map[idx])
		} else {
			e.supportSrc = append(e.supportSrc, idx)
		}
	}

	// unionPos maps a net index to its row position in the graph's
	// support union (which may be a cached superset of this batch's).
	if len(e.unionPos) != len(nl.Nets) {
		e.unionPos = make([]int32, len(nl.Nets))
	}
	for pos, idx := range bs.g.Support {
		e.unionPos[idx] = int32(pos)
	}

	// Phase 1: monitor-only product BFS per property over the graph.
	type pendingProp struct {
		i   int
		c   *sva.Compiled
		mon *sva.Monitor
	}
	var pending []pendingProp
	for i, c := range cs {
		if err := ctx.Err(); err != nil {
			// Undecided earlier properties hold interim results awaiting
			// the hunt phase; they must surface as interrupted too — the
			// zero Status value is StatusProven, never a verdict to leak.
			r := ctxResult(err)
			for _, p := range pending {
				out[p.i] = r
			}
			return fail(i, err)
		}
		var mon *sva.Monitor
		if opt.Interp {
			mon = sva.NewMonitor(c)
		} else {
			m, err := sva.NewMonitorCompiled(c)
			if err != nil {
				out[i] = Result{Status: StatusError, Err: err}
				continue
			}
			mon = m
		}
		res := e.graphSearch(ctx, bs, c, mon, enumerate)
		if res.Status == StatusCEX || res.Status == StatusError || res.Status == StatusUnknown {
			out[i] = res
			continue
		}
		if res.Exhaustive {
			if res.NonVacuous {
				res.Status = StatusProven
			} else {
				res.Status = StatusVacuous
			}
			out[i] = res
			continue
		}
		out[i] = res
		pending = append(pending, pendingProp{i: i, c: c, mon: mon})
	}
	if len(pending) == 0 {
		return out
	}

	// Phase 2: the shared random hunt for everything still undecided,
	// simulated run by run as long as anything remains pending. A run's
	// stimulus depends on (seed, run) alone, so every property sees the
	// trace a batch of its own would drive.
	maxPast := 0
	for _, p := range pending {
		if p.c.PastDepth > maxPast {
			maxPast = p.c.PastDepth
		}
	}
	ring := e.ensureScatter(maxPast + 1)
	histBuf := make([][]uint64, maxPast+1)
	for run := 0; run < opt.RandomRuns && len(pending) > 0; run++ {
		if err := ctx.Err(); err != nil {
			r := ctxResult(err)
			for _, p := range pending {
				out[p.i] = r
			}
			return out
		}
		e.ensureHuntRun(bs, run)
		ht := bs.ht
		for _, p := range pending {
			p.mon.Reset()
		}
		for t := 0; t < ht.Depth && len(pending) > 0; t++ {
			slot := t % (maxPast + 1)
			e.scatterRow(ring[slot], ht.Support, ht.row(run, t))
			for k := 0; k <= maxPast; k++ {
				if t-k >= 0 {
					histBuf[k] = ring[(t-k)%(maxPast+1)]
				} else {
					histBuf[k] = e.zeroEnv
				}
			}
			for pi := 0; pi < len(pending); pi++ {
				p := pending[pi]
				r := &out[p.i]
				mo := p.mon.Step(histBuf)
				if mo.AnteCompleted {
					r.NonVacuous = true
				}
				if mo.Violated {
					full := *r
					full.Status = StatusCEX
					full.CEX = e.replayCEX(huntInputs(ht, run, t), t, mo.ViolatedAge)
					if t > full.Depth {
						full.Depth = t
					}
					out[p.i] = full
					pending = append(pending[:pi], pending[pi+1:]...)
					pi--
					continue
				}
				if t > r.Depth {
					r.Depth = t
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		r := ctxResult(err)
		for _, p := range pending {
			out[p.i] = r
		}
		return out
	}
	for _, p := range pending {
		out[p.i].Status = StatusBoundedPass
	}
	return out
}

// VerifyBatch model-checks a batch of compiled assertions with a one-shot
// engine sharing one reachability exploration.
func VerifyBatch(ctx context.Context, nl *verilog.Netlist, cs []*sva.Compiled, opt Options) []Result {
	return NewEngine().VerifyBatch(ctx, nl, cs, opt)
}

// openBatch fetches (or starts) the exploration for the engine's bound
// design and current options. A cache hit whose support union misses
// nets of this batch is widened over the merged union into a private
// graph that keeps its nodes and edges (Graph.widen), so unions grow
// monotonically per key and no state is stepped twice; its hunt trace
// is dropped, since trace rows depend on the union. A cached hunt trace
// is kept only if its run budget matches.
func (e *Engine) openBatch(union []int, enumerate bool) *batchState {
	bs := &batchState{key: e.graphKey(enumerate)}
	if e.Graphs != nil {
		fits := func(g *Graph, ht *HuntTrace) bool { return e.graphFits(g, ht, enumerate) }
		g, ht, stale := e.Graphs.lookup(bs.key, union, fits)
		if g != nil {
			bs.g = g
			if ht != nil && ht.Runs == e.opt.RandomRuns && ht.Depth == e.opt.RandomDepth && ht.Seed == e.opt.Seed {
				bs.ht = ht
			}
			return bs
		}
		if stale != nil {
			bs.g = stale.widen(mergeSorted(union, stale.Support))
		}
	}
	if bs.g == nil {
		bs.g = e.newGraph(union, enumerate)
	}
	bs.gOwned = true
	bs.dirty = true
	return bs
}

// graphFits reports whether a graph read back from disk fits the bound
// design: a blob that decodes cleanly is only self-consistent, and the
// search indexes the design's nets, inputs and registers with the
// graph's numbers. Every support index must name a net of the full
// design (inside the cone when one is bound, in increasing order), and
// the shape fields must equal what newGraph would set; a hunt trace must
// sample the graph's support and drive the full design's inputs.
func (e *Engine) graphFits(g *Graph, ht *HuntTrace, enumerate bool) bool {
	if g.PackWords != len(e.packBuf) || g.NumInputs != len(e.nl.Inputs) ||
		g.Enumerate != enumerate || g.EdgesPerNode != e.edgesPerNode(enumerate) {
		return false
	}
	prev := -1
	for _, idx := range g.Support {
		if idx <= prev || idx >= len(e.fullNl.Nets) || (e.cone != nil && e.cone.Map[idx] < 0) {
			return false
		}
		prev = idx
	}
	return ht == nil || (ht.NumInputs == len(e.fullNl.Inputs) && slices.Equal(ht.Support, g.Support))
}

// ensureExpanded makes node u's representative edges and their rows
// available, cloning a cache-owned graph before the first private
// extension (copy-on-write). A node with rows is ready; an expanded node
// without them (a widened graph's) is re-rowed, and only an unexpanded
// node is simulated.
func (e *Engine) ensureExpanded(bs *batchState, u int32) error {
	if bs.g.DedupOff[u] >= 0 {
		return nil
	}
	if !bs.gOwned {
		bs.g = bs.g.clone()
		bs.gOwned = true
	}
	var err error
	if bs.g.EdgeOff[u] >= 0 {
		err = e.rerowNode(bs.g, u)
	} else {
		err = e.expandNode(bs.g, u)
	}
	if err != nil {
		bs.failed = true
		return err
	}
	bs.dirty = true
	return nil
}

// ensureHuntRun makes hunt run `run` available in the trace.
func (e *Engine) ensureHuntRun(bs *batchState, run int) {
	if bs.ht == nil {
		// Stimulus is recorded over the FULL input layout even under a
		// cone (fillStimulus draws full vectors), so traces replay on the
		// full design and CEX inputs are full-layout.
		bs.ht = &HuntTrace{
			Runs: e.opt.RandomRuns, Depth: e.opt.RandomDepth, Seed: e.opt.Seed,
			Support: bs.g.Support, NumInputs: len(e.fullNl.Inputs),
			Inputs: newRowStore(len(e.fullNl.Inputs)), Rows: newRowStore(len(bs.g.Support)),
		}
		bs.htOwned = true
	}
	if run < bs.ht.RunsDone {
		return
	}
	if !bs.htOwned {
		bs.ht = bs.ht.clone()
		bs.htOwned = true
	}
	e.extendHunt(bs.ht, run)
	bs.dirty = true
}

// publishBatch republishes a grown exploration to the cache. An engine
// without a cache keeps the graph instead, as the spare whose storage
// its next newGraph reuses: nothing else holds it, since a result copies
// what it keeps of the graph (replayCEX) and a cache-less batch always
// builds a private graph.
func (e *Engine) publishBatch(bs *batchState) {
	if e.Graphs == nil {
		e.spare = bs.g
		return
	}
	if !bs.dirty || bs.failed {
		return
	}
	e.Graphs.store(bs.key, bs.g, bs.ht)
	if e.gVisitedFor == bs.g {
		// The published graph is now shared and immutable; drop the
		// engine's extension index so a later batch re-syncs on a clone.
		e.gVisitedFor = nil
	}
}

func (e *Engine) graphKey(enumerate bool) graphKey {
	k := graphKey{nl: e.nl, interp: e.interp, enumerate: enumerate}
	if !enumerate {
		// Bounded graphs store per-state sampled vectors, a pure function
		// of (seed, state, sample count); enumerate graphs are a pure
		// function of the netlist alone and share across seeds.
		k.maxSamples = e.opt.MaxInputSamples
		k.seed = e.opt.Seed
	}
	return k
}

// graphSearch explores the product of the graph's design states and the
// property's monitor states breadth-first. The simulator work lives in
// the graph (nodes expand on first use, then stay shared), so the search
// itself only steps the monitor along edge rows. Dedup: exhaustive mode
// (the only mode that can claim Proven/Vacuous) uses exact state keys,
// so proofs are sound; bounded mode — already approximate by
// construction — uses 64-bit hash compaction to keep the visited set
// allocation-free.
func (e *Engine) graphSearch(ctx context.Context, bs *batchState, c *sva.Compiled, mon *sva.Monitor, enumerate bool) Result {
	res := Result{}
	e.c = c
	e.support = nil
	if c.PastDepth > 0 {
		e.support = c.SupportNets()
	}
	e.visitedExact.reset(e.stateKeyLen())
	e.visitedHash.reset()
	nVisited := 0
	seen := func(node []uint64, alive, sat uint64, hist [][]uint64) bool {
		if enumerate {
			k, h := e.graphKeyHash(node, alive, sat, hist)
			if _, existed := e.visitedExact.insert(h, k); existed {
				return true
			}
		} else {
			h := e.graphHash(node, alive, sat, hist)
			if h == 0 {
				h = 1
			}
			if e.visitedHash.insert(h) {
				return true
			}
		}
		nVisited++
		return false
	}
	nodes := e.gnodes[:0]
	nodes = append(nodes, gnode{node: 0, parent: -1, edge: -1})
	seen(bs.g.node(0), 0, 0, nil)
	closed := true

	rows := e.ensureScatter(c.PastDepth + 1)
	if cap(e.histBuf) < c.PastDepth+1 {
		e.histBuf = make([][]uint64, c.PastDepth+1)
	}
	histBuf := e.histBuf[:c.PastDepth+1]

	for head := 0; head < len(nodes); head++ {
		// Poll cancellation every few expansions: frequent enough that a
		// canceled search stops within microseconds, rare enough that the
		// atomic load never shows up in profiles.
		if head&63 == 0 {
			if err := ctx.Err(); err != nil {
				e.gnodes = releaseGnodes(nodes)
				return ctxResult(err)
			}
		}
		if nVisited >= e.opt.MaxProductStates {
			closed = false
			break
		}
		cur := nodes[head]
		if int(cur.depth) > res.Depth {
			res.Depth = int(cur.depth)
		}
		if err := e.ensureExpanded(bs, cur.node); err != nil {
			// A simulator load failure (impossible by construction) is an
			// engine error, never a partial verdict.
			e.gnodes = releaseGnodes(nodes)
			return Result{Status: StatusError, Err: err}
		}
		g := bs.g
		// Scatter the history rows once per popped state; row 0 varies per
		// edge below.
		histBuf[0] = rows[0]
		for k := 1; k <= c.PastDepth; k++ {
			if k-1 < len(cur.hist) {
				e.scatterRow(rows[k], g.Support, cur.hist[k-1])
				histBuf[k] = rows[k]
			} else {
				histBuf[k] = e.zeroEnv
			}
		}
		// Walk representative edges only: duplicate (row, destination)
		// edges repeat the exact same monitor transition and child state
		// (see Graph.dedupEdges), so skipping them changes nothing but
		// the work.
		ds := g.DedupOff[cur.node]
		for j, ei := range g.Dedup[ds : ds+g.DedupN[cur.node]] {
			urow := g.repRow(ds + int32(j))
			e.scatterRow(rows[0], g.Support, urow)
			mon.SetState(cur.alive, cur.sat)
			mo := mon.Step(histBuf)
			if mo.AnteCompleted {
				res.NonVacuous = true
			}
			if mo.Violated {
				res.Status = StatusCEX
				res.States = nVisited
				res.CEX = e.buildGraphCEX(g, nodes, head, ei, int(cur.depth), mo.ViolatedAge)
				e.gnodes = releaseGnodes(nodes)
				return res
			}
			alive, sat := mon.State()
			childHist := e.histScratch[:0]
			if c.PastDepth > 0 {
				childHist = append(childHist, urow)
				for k := 0; k < c.PastDepth-1 && k < len(cur.hist); k++ {
					childHist = append(childHist, cur.hist[k])
				}
				e.histScratch = childHist
			}
			if !seen(g.node(g.Dst[ei]), alive, sat, childHist) {
				child := gnode{
					node:   g.Dst[ei],
					alive:  alive,
					sat:    sat,
					parent: int32(head),
					edge:   ei,
					depth:  cur.depth + 1,
				}
				if c.PastDepth > 0 {
					// Rows are graph-owned and immutable; retaining the
					// slice header list is enough (no deep copies).
					child.hist = append(make([][]uint64, 0, len(childHist)), childHist...)
				}
				nodes = append(nodes, child)
			}
		}
	}
	e.gnodes = releaseGnodes(nodes)
	res.States = nVisited
	res.Exhaustive = enumerate && closed
	return res
}

// releaseGnodes drops the nodes' history references before the slice is
// retained as engine scratch, so an evicted graph's row arrays are not
// pinned in memory until the next batch happens to overwrite every
// entry.
func releaseGnodes(nodes []gnode) []gnode {
	for i := range nodes {
		nodes[i].hist = nil
	}
	return nodes
}

// graphKeyHash encodes a product state exactly into the engine's reused
// key buffer — the graph node's bit-packed registers, the monitor's
// alive mask (and satisfied mask for ranged properties), and, when $past
// is used, the history of the property's own support nets read from
// union rows — and computes the probing hash over the same words in the
// same pass. Exhaustive mode uses these exact keys so Proven/Vacuous
// verdicts are sound. The key reads only the property's support, never
// the union, so it is the same whatever else shares the batch.
func (e *Engine) graphKeyHash(packed []uint64, alive, sat uint64, hist [][]uint64) ([]byte, uint64) {
	buf := e.keyBuf[:0]
	h := uint64(stateHashSeed)
	put := func(v uint64) {
		buf = le64Append(buf, v)
		h = stateMix(h, v)
	}
	for _, v := range packed {
		put(v)
	}
	put(alive)
	if e.c.Ranged {
		put(sat)
	}
	for k := 0; k < e.c.PastDepth; k++ {
		if k < len(hist) {
			row := hist[k]
			for _, idx := range e.support {
				put(row[e.unionPos[idx]])
			}
		} else {
			// Histories shorter than PastDepth pad with the zero env —
			// exactly what the monitor substitutes for missing history,
			// so the padded key identifies behaviourally identical states
			// (and keys keep one fixed length per property, which the
			// exact set's arena relies on).
			for range e.support {
				put(0)
			}
		}
	}
	e.keyBuf = buf
	return buf, h
}

// graphHash fingerprints a product state for bounded-mode deduplication,
// mixing the same words as graphKeyHash. Hash compaction (64-bit
// fingerprints instead of full state keys, as in SPIN's bitstate
// hashing) keeps the visited set allocation-free; a collision
// (probability ~n^2/2^64 per search) can only prune bounded exploration,
// which is approximate by construction and never claims a proof. The
// hash is a pure function of the state, so verdicts stay deterministic
// across sequential and parallel runs.
func (e *Engine) graphHash(packed []uint64, alive, sat uint64, hist [][]uint64) uint64 {
	h := uint64(stateHashSeed)
	mix := func(v uint64) {
		h = stateMix(h, v)
	}
	for _, v := range packed {
		mix(v)
	}
	mix(alive)
	if e.c.Ranged {
		mix(sat)
	}
	for k := 0; k < e.c.PastDepth; k++ {
		if k < len(hist) {
			row := hist[k]
			for _, idx := range e.support {
				mix(row[e.unionPos[idx]])
			}
		} else {
			for range e.support {
				mix(0)
			}
		}
	}
	return h
}

// buildGraphCEX reconstructs the refuting stimulus from the product-BFS
// parent chain (edge labels carry the input vectors) and re-simulates it
// to capture the sampled trace.
func (e *Engine) buildGraphCEX(g *Graph, nodes []gnode, head int, lastEdge int32, depth, violatedAge int) *CEX {
	var inputs [][]uint64
	for i := head; i >= 0 && nodes[i].parent >= 0; i = int(nodes[i].parent) {
		inputs = append(inputs, e.edgeVec(g, nodes[int(nodes[i].parent)].node, nodes[i].edge))
	}
	for l, r := 0, len(inputs)-1; l < r; l, r = l+1, r-1 {
		inputs[l], inputs[r] = inputs[r], inputs[l]
	}
	inputs = append(inputs, e.edgeVec(g, nodes[head].node, lastEdge))
	if e.cone != nil {
		// Edge vectors are reduced-layout; counter-examples are reported
		// (and replayed) in full-design terms.
		for i, u := range inputs {
			inputs[i] = e.expandInputVec(u)
		}
	}
	return e.replayCEX(inputs, depth, violatedAge)
}

// edgeVec returns the input vector labelling edge ei out of src.
func (e *Engine) edgeVec(g *Graph, src, ei int32) []uint64 {
	if g.Enumerate {
		return e.enumInputVectors()[int(ei-g.EdgeOff[src])]
	}
	return g.vec(ei)
}

// huntInputs builds the per-cycle stimulus view of run's first t+1 cycles.
func huntInputs(ht *HuntTrace, run, t int) [][]uint64 {
	vecs := make([][]uint64, t+1)
	for k := range vecs {
		vecs[k] = ht.input(run, k)
	}
	return vecs
}

// scatterRow writes a union-support row into a full-width env row at the
// support nets' positions (other positions are never read: monitors only
// evaluate their support nets).
func (e *Engine) scatterRow(dst []uint64, support []int, urow []uint64) {
	for j, idx := range support {
		dst[idx] = urow[j]
	}
}

// ensureScatter returns n reusable scratch rows at the monitor-facing
// (full-design) width — monitors read full net indices even when the
// simulators run over a cone.
func (e *Engine) ensureScatter(n int) [][]uint64 {
	for len(e.scatterRows) < n {
		e.scatterRows = append(e.scatterRows, make([]uint64, e.monNets))
	}
	return e.scatterRows[:n]
}
