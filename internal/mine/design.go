package mine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"assertionbench/internal/fpv"
	"assertionbench/internal/rtlgraph"
	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// design is one netlist's mining context. Every miner run on it reads the
// same random-stimulus trace, dependency graph and per-net value rankings,
// and verifies its candidates on the same FPV engine, so mining a design
// with several miners simulates, analyses and sets up verification once.
// A design is not safe for concurrent use.
type design struct {
	nl    *verilog.Netlist
	opt   Options
	tr    *sim.Trace
	g     *rtlgraph.Graph
	ranks [][]uint64 // per net: rankValues, computed on first use
	eng   *fpv.Engine
}

// engines pools the mining contexts' FPV engines. Mining verifies
// without a GraphCache, so an engine carries nothing from one design to
// the next but reusable storage: its scratch and its last graph's arrays
// (see fpv.Engine).
var engines = sync.Pool{New: func() any { return fpv.NewEngine() }}

// newDesign builds a mining context holding an engine from the pool; the
// caller puts the engine back when mining ends.
func newDesign(nl *verilog.Netlist, opt Options) (*design, error) {
	if err := opt.check(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	tr, err := sim.RandomTrace(nl, opt.TraceCycles, 2, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("mine: trace generation failed: %w", err)
	}
	return &design{
		nl:    nl,
		opt:   opt,
		tr:    tr,
		g:     rtlgraph.Build(nl),
		ranks: make([][]uint64, len(nl.Nets)),
		eng:   engines.Get().(*fpv.Engine),
	}, nil
}

// mineWith mines nl on one context with each candidate generator and
// verifies their lists together (see verify), returning each list's
// output in turn.
func mineWith(ctx context.Context, nl *verilog.Netlist, opt Options, gens ...func(*design) []candidate) ([]Mined, error) {
	d, err := newDesign(nl, opt)
	if err != nil {
		return nil, err
	}
	defer engines.Put(d.eng)
	lists := make([][]candidate, len(gens))
	for i, gen := range gens {
		lists[i] = gen(d)
	}
	return d.verify(ctx, lists...)
}

// Both runs GoldMine and Harm on one mining context and returns
// GoldMine's output followed by Harm's: the same assertions as calling the
// two in turn, with one trace, one dependency graph and one FPV engine,
// and with each verification round covering both miners' candidates.
func Both(ctx context.Context, nl *verilog.Netlist, opt Options) ([]Mined, error) {
	return mineWith(ctx, nl, opt, (*design).goldMineCands, (*design).harmCands)
}

// values returns the distinct values net takes on the trace, most
// frequent first, at most max of them. The slice is shared: callers only
// read it.
func (d *design) values(net, max int) []uint64 {
	v := d.ranks[net]
	if v == nil {
		v = rankValues(d.tr, net)
		d.ranks[net] = v
	}
	n := min(max, len(v))
	return v[:n:n]
}

// rankValues lists the distinct values of net on the trace, most frequent
// first and then in numeric order.
func rankValues(tr *sim.Trace, net int) []uint64 {
	seen := map[uint64]int{}
	for c := 0; c < tr.Len(); c++ {
		seen[tr.Value(c, net)]++
	}
	vals := make([]uint64, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool {
		if seen[vals[i]] != seen[vals[j]] {
			return seen[vals[i]] > seen[vals[j]]
		}
		return vals[i] < vals[j]
	})
	return vals
}

// verify turns each candidate list into FPV-proven Mined entries: at
// most MaxAssertions per list, the first that pass in candidate order,
// deduplicated by text within the list, ranked, and the lists' entries
// returned one list after another. It verifies in rounds.
// In each round, every list still short of MaxAssertions contributes its
// next batch, sized to what the list still needs, and one VerifyBatch
// call verifies the round's batches together, so the lists' candidates
// share its graphs. A batch of r candidates keeps at most r, so every
// candidate verified is one that a one-at-a-time loop stopping at
// MaxAssertions would verify too; and a verdict does not depend on what
// else shares its batch (dverify oracle 5), so each list keeps exactly
// what it keeps when verified alone. Cancellation aborts the remaining
// verification and returns ctx.Err() — never a silently shortened
// result set.
func (d *design) verify(ctx context.Context, lists ...[]candidate) ([]Mined, error) {
	ps := make([]pending, len(lists))
	for i, cands := range lists {
		ps[i].cands = cands
	}
	var cs []*sva.Compiled
	for {
		cs = cs[:0]
		for i := range ps {
			cs = ps[i].fill(d, cs)
		}
		if len(cs) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		results := d.eng.VerifyBatch(ctx, d.nl, cs, d.opt.FPV)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range ps {
			results = ps[i].keep(d, results)
		}
	}
	var out []Mined
	for i := range ps {
		sortByRank(ps[i].out)
		out = append(out, ps[i].out...)
	}
	return out, nil
}

// pending is one candidate list's progress through verify's rounds.
type pending struct {
	cands []candidate
	next  int             // the first candidate not yet considered
	seen  map[string]bool // the texts of the candidates considered
	out   []Mined
	batch []candidate // this round's candidates
}

// fill appends the list's batch for the next round to cs: the next
// candidates that are new to the list and compile, as many as the list
// still needs.
func (p *pending) fill(d *design, cs []*sva.Compiled) []*sva.Compiled {
	if p.seen == nil {
		p.seen = map[string]bool{}
	}
	p.batch = p.batch[:0]
	for ; p.next < len(p.cands) && len(p.batch) < d.opt.MaxAssertions-len(p.out); p.next++ {
		c := p.cands[p.next]
		key := c.a.String()
		if p.seen[key] {
			continue
		}
		p.seen[key] = true
		comp, err := sva.Compile(c.a, d.nl)
		if err != nil {
			continue // an invalid candidate is never kept
		}
		p.batch = append(p.batch, c)
		cs = append(cs, comp)
	}
	return cs
}

// keep takes the verdicts of the list's batch, the first len(p.batch)
// results, keeps the candidates FPV passed, and returns the rest of
// results.
func (p *pending) keep(d *design, results []fpv.Result) []fpv.Result {
	for i, c := range p.batch {
		res := results[i]
		if res.Status != fpv.StatusProven && res.Status != fpv.StatusBoundedPass {
			continue
		}
		m := Mined{
			Assertion:  c.a,
			Support:    c.support,
			Coverage:   float64(c.support) / float64(d.opt.TraceCycles),
			Complexity: complexity(c.a),
			Result:     res,
		}
		m.Rank = rankOf(m)
		p.out = append(p.out, m)
	}
	return results[len(p.batch):]
}
