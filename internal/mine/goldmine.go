package mine

import (
	"context"

	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// GoldMine mines assertions the GOLDMINE way: random-stimulus traces
// provide the data, a static dependency analysis (cone of influence)
// restricts the feature space per target, a decision tree generalizes the
// trace into candidate A -> C rules, and the FPV engine keeps only proven
// rules. Cancelling ctx aborts the verification filter with ctx.Err().
func GoldMine(ctx context.Context, nl *verilog.Netlist, opt Options) ([]Mined, error) {
	return mineWith(ctx, nl, opt, (*design).goldMineCands)
}

// goldMineCands lists GoldMine's candidates, target by target.
func (d *design) goldMineCands() []candidate {
	var cands []candidate
	for _, target := range miningTargets(d.nl) {
		cands = append(cands, d.mineTarget(target)...)
	}
	return cands
}

// miningTargets selects output and state nets worth explaining.
func miningTargets(nl *verilog.Netlist) []int {
	var out []int
	seen := map[int]bool{}
	for _, i := range nl.Outputs {
		if !nl.Nets[i].IsClock && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	for _, i := range nl.Regs {
		if !seen[i] && nl.Nets[i].Width <= 8 {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// mineTarget learns rules predicting each observed value of one target.
func (d *design) mineTarget(target int) []candidate {
	nl, tr, opt := d.nl, d.tr, d.opt
	// Features: atoms over nets inside the target's cone of influence,
	// close in dependency distance, with small widths.
	var atoms []atom
	for _, n := range d.g.InfluencersAtDepth(target, 2) {
		net := nl.Nets[n]
		if net.IsClock || net.Width > 4 || n == target {
			continue
		}
		for _, v := range d.values(n, 2) {
			atoms = append(atoms, atom{net: n, val: v})
		}
	}
	if len(atoms) == 0 {
		return nil
	}
	// Sequential targets are predicted one cycle ahead (|=>); outputs of
	// combinational logic are explained in-cycle (|->).
	seq := nl.Nets[target].IsReg
	lag := 0
	if seq {
		lag = 1
	}
	// Row c pairs the features at cycle c with the target at c+lag. The
	// features do not depend on the target value, so they are built once.
	rows := tr.Len() - lag
	feats := make([]bitset, len(atoms))
	for i, a := range atoms {
		feats[i] = a.rows(tr, rows)
	}

	var out []candidate
	for _, tv := range d.values(target, 4) {
		label := newBitset(rows)
		for c := 0; c < rows; c++ {
			if tr.Value(c+lag, target) == tv {
				label.set(c)
			}
		}
		tree := learnTree(feats, label, rows, opt.MaxTreeDepth, opt.MinSupport)
		rules := extractRules(tree, opt.MinSupport)
		kept := 0
		for _, r := range rules {
			if !r.label {
				continue // only rules that imply target==tv
			}
			exprs := make([]verilog.Expr, 0, len(r.conds))
			for _, cond := range r.conds {
				exprs = append(exprs, atoms[cond.feature].expr(nl, cond.negated))
			}
			cons := atom{net: target, val: tv}.expr(nl, false)
			a := &sva.Assertion{
				Ante:       []sva.Step{{Expr: conjoin(exprs)}},
				Cons:       []sva.Step{{Expr: cons}},
				NonOverlap: seq,
			}
			a.Source = a.String()
			out = append(out, candidate{a: a, support: r.support})
			kept++
			if kept >= opt.MaxPerTarget {
				break
			}
		}
	}
	return out
}
