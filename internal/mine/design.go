package mine

import (
	"context"
	"fmt"
	"sort"

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
		eng:   fpv.NewEngine(),
	}, nil
}

// Both runs GoldMine and then Harm on one mining context and returns
// GoldMine's output followed by Harm's: the same assertions as calling the
// two in turn, with one trace, one dependency graph and one FPV engine.
func Both(ctx context.Context, nl *verilog.Netlist, opt Options) ([]Mined, error) {
	d, err := newDesign(nl, opt)
	if err != nil {
		return nil, err
	}
	gm, err := d.goldMine(ctx)
	if err != nil {
		return nil, err
	}
	hm, err := d.harm(ctx)
	if err != nil {
		return nil, err
	}
	return append(gm, hm...), nil
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

// dedupeAndVerify turns unique candidates into FPV-proven Mined entries,
// keeping at most MaxAssertions of them in candidate order. It verifies
// in batches sized to what is still needed: a batch of r candidates keeps
// at most r, so every candidate it verifies is one a one-at-a-time loop
// that stops at MaxAssertions would verify too, and the engine's batch of
// N equals N batches of one. Cancellation aborts the remaining
// verification and returns ctx.Err() — never a silently shortened result
// set.
func (d *design) dedupeAndVerify(ctx context.Context, cands []candidate) ([]Mined, error) {
	seen := map[string]bool{}
	var out []Mined
	var batch []candidate
	var cs []*sva.Compiled
	for next := 0; next < len(cands) && len(out) < d.opt.MaxAssertions; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batch, cs = batch[:0], cs[:0]
		for ; next < len(cands) && len(batch) < d.opt.MaxAssertions-len(out); next++ {
			c := cands[next]
			key := c.a.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			comp, err := sva.Compile(c.a, d.nl)
			if err != nil {
				continue // an invalid candidate is never kept
			}
			batch = append(batch, c)
			cs = append(cs, comp)
		}
		results := d.eng.VerifyBatch(ctx, d.nl, cs, d.opt.FPV)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, res := range results {
			if res.Status != fpv.StatusProven && res.Status != fpv.StatusBoundedPass {
				continue
			}
			c := batch[i]
			m := Mined{
				Assertion:  c.a,
				Support:    c.support,
				Coverage:   float64(c.support) / float64(d.opt.TraceCycles),
				Complexity: complexity(c.a),
				Result:     res,
			}
			m.Rank = rankOf(m)
			out = append(out, m)
		}
	}
	sortByRank(out)
	return out, nil
}
