// Package mine implements the two assertion miners the paper uses to
// produce formally verified assertions for in-context examples and
// fine-tuning data (Sec. III): a GOLDMINE-style miner (decision-tree
// learning over simulation traces, guided by lightweight static analysis)
// and a HARM-style hint/template miner. Every assertion either miner emits
// has been proven by the FPV engine on the design, mirroring the paper's
// JasperGold filtering step.
package mine

import (
	"fmt"
	"sort"

	"assertionbench/internal/fpv"
	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// Mined is one verified assertion with its mining metadata.
type Mined struct {
	Assertion *sva.Assertion
	// Support is the number of trace positions where the antecedent held.
	Support int
	// Coverage is Support normalized by trace length.
	Coverage float64
	// Complexity counts atoms plus temporal window length (rank input).
	Complexity int
	// Rank is the figure of merit (higher is better), per the ranking
	// approach of Pal et al. [14]: reward trace coverage, penalize
	// complexity.
	Rank float64
	// Result is the FPV verdict (always a proven verdict for kept output).
	Result fpv.Result
}

// Options configure mining. A zero count selects its default, and every
// miner rejects a negative count with an error.
type Options struct {
	// TraceCycles is the random-stimulus trace length. Default 512.
	TraceCycles int
	// Seed drives stimulus generation. Default 1.
	Seed int64
	// MinSupport is the minimum antecedent occurrences on the trace for a
	// candidate to be considered. Default 4.
	MinSupport int
	// MaxPerTarget bounds rules kept per mining target. Default 4.
	MaxPerTarget int
	// MaxAssertions bounds the total output. Default 16.
	MaxAssertions int
	// MaxTreeDepth bounds decision-tree depth. Default 3.
	MaxTreeDepth int
	// FPV configures the verification filter.
	FPV fpv.Options
}

// check rejects negative counts: zero selects a count's default, and no
// count below zero means anything.
func (o Options) check() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"TraceCycles", o.TraceCycles},
		{"MinSupport", o.MinSupport},
		{"MaxPerTarget", o.MaxPerTarget},
		{"MaxAssertions", o.MaxAssertions},
		{"MaxTreeDepth", o.MaxTreeDepth},
	} {
		if f.v < 0 {
			return fmt.Errorf("mine: %s must not be negative, got %d", f.name, f.v)
		}
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.TraceCycles == 0 {
		o.TraceCycles = 512
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MinSupport == 0 {
		o.MinSupport = 4
	}
	if o.MaxPerTarget == 0 {
		o.MaxPerTarget = 4
	}
	if o.MaxAssertions == 0 {
		o.MaxAssertions = 16
	}
	if o.MaxTreeDepth == 0 {
		o.MaxTreeDepth = 3
	}
	return o
}

// atom is the predicate net == val over trace rows.
type atom struct {
	net int
	val uint64
}

func (a atom) holds(tr *sim.Trace, cycle int) bool {
	return tr.Value(cycle, a.net) == a.val
}

// rows returns the trace rows 0..n-1 where the atom holds.
func (a atom) rows(tr *sim.Trace, n int) bitset {
	b := newBitset(n)
	for c := 0; c < n; c++ {
		if a.holds(tr, c) {
			b.set(c)
		}
	}
	return b
}

// expr renders the atom (or its negation) as an AST expression.
func (a atom) expr(nl *verilog.Netlist, negated bool) verilog.Expr {
	n := nl.Nets[a.net]
	op := "=="
	val := a.val
	if negated {
		if n.Width == 1 {
			val = a.val ^ 1 // !=0 on a 1-bit net reads better as ==1
		} else {
			op = "!="
		}
	}
	return &verilog.Binary{
		Op: op,
		X:  &verilog.Ident{Name: n.Name},
		Y:  &verilog.Number{Value: val, Width: n.Width},
	}
}

func (a atom) String() string { return fmt.Sprintf("net%d==%d", a.net, a.val) }

// conjoin folds expressions with &&.
func conjoin(exprs []verilog.Expr) verilog.Expr {
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = &verilog.Binary{Op: "&&", X: out, Y: e}
	}
	return out
}

type candidate struct {
	a       *sva.Assertion
	support int
}

// complexity counts boolean atoms plus the temporal window span.
func complexity(a *sva.Assertion) int {
	atoms := 0
	var count func(verilog.Expr)
	count = func(e verilog.Expr) {
		switch v := e.(type) {
		case *verilog.Binary:
			if v.Op == "&&" || v.Op == "||" {
				count(v.X)
				count(v.Y)
				return
			}
			atoms++
		case *verilog.Unary:
			count(v.X)
		default:
			atoms++
		}
	}
	for _, s := range a.Ante {
		count(s.Expr)
	}
	for _, s := range a.Cons {
		count(s.Expr)
	}
	return atoms + a.WindowLength()
}

// rankOf is the figure of merit: coverage rewarded, complexity penalized.
func rankOf(m Mined) float64 {
	return m.Coverage / float64(m.Complexity)
}

func sortByRank(ms []Mined) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Rank != ms[j].Rank {
			return ms[i].Rank > ms[j].Rank
		}
		return ms[i].Assertion.String() < ms[j].Assertion.String()
	})
}

// Rank re-ranks a mined set in place (exposed for the ranking ablation).
func Rank(ms []Mined) {
	for i := range ms {
		ms[i].Rank = rankOf(ms[i])
	}
	sortByRank(ms)
}
