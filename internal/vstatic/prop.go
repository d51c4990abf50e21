package vstatic

import (
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// PropClass is the static verdict for one property against a design.
type PropClass int

const (
	// PropUnknown: the analysis cannot decide; run FPV.
	PropUnknown PropClass = iota
	// PropVacuous: some antecedent step is statically false (or the
	// antecedent steps are jointly unsatisfiable under the refined
	// window walk), so no attempt ever completes its antecedent.
	// Equivalent to an exhaustive vacuous pass.
	PropVacuous
	// PropProven: every antecedent and consequent step is statically
	// true, so no attempt can fail and attempts complete. Equivalent to
	// an exhaustive non-vacuous proof.
	PropProven
	// PropRefuted: no antecedent step is statically false and some
	// consequent step is statically false (possibly under the refined
	// window walk). Any completed attempt violates; callers must still
	// confirm with a concrete witness trace (the antecedent may be
	// merely unknown) and fall through to FPV when no witness is found.
	PropRefuted
	// PropHolds: under the assumption that the antecedent matches, every
	// consequent step is statically true — no attempt can violate the
	// property — but antecedent satisfiability is undecided, so the
	// verdict is either a proof or a vacuous pass. Callers seeking a
	// non-vacuous proof must find a concrete completing attempt (any
	// simulated trace that fires the antecedent) and fall through to FPV
	// when none is found.
	PropHolds
)

func (p PropClass) String() string {
	switch p {
	case PropVacuous:
		return "vacuous"
	case PropProven:
		return "proven"
	case PropRefuted:
		return "refuted"
	case PropHolds:
		return "holds"
	}
	return "unknown"
}

// Classify statically judges a compiled property against the abstract
// fixpoint. The verdict is a pure function of (netlist, assertion): it
// never depends on verification budgets or on the rest of a batch, so a
// property classifies identically in any batch. The quick pass below
// judges each step expression against the global invariant alone; when
// that is inconclusive, classifyRefined re-judges under the assumption
// that the antecedent matched (see refine.go).
func (a *Analysis) Classify(c *sva.Compiled) PropClass {
	p, anteAllTrue, decided := a.classifyQuick(c)
	if decided {
		return p
	}
	return a.classifyRefined(c, anteAllTrue)
}

// classifyQuick is Classify's pass over the global invariant alone. When
// it cannot decide, it reports whether every antecedent step is a
// tautology, which the refined walk needs.
func (a *Analysis) classifyQuick(c *sva.Compiled) (p PropClass, anteAllTrue, decided bool) {
	if a.Cyclic {
		return PropUnknown, false, true
	}
	as := c.Assertion
	anteAllTrue = true
	for _, s := range as.Ante {
		switch a.stepTruth(s.Expr) {
		case triFalse:
			return PropVacuous, false, true
		case triTrue:
		default:
			anteAllTrue = false
		}
	}
	consAllTrue, consAnyFalse := true, false
	for _, s := range as.Cons {
		switch a.stepTruth(s.Expr) {
		case triFalse:
			consAnyFalse = true
			consAllTrue = false
		case triTrue:
		default:
			consAllTrue = false
		}
	}
	switch {
	case anteAllTrue && consAllTrue:
		return PropProven, true, true
	case consAnyFalse:
		// For ranged consequents (##[m:n]) the single statically false
		// consequent fails at every age in the range, so the attempt
		// still violates.
		return PropRefuted, anteAllTrue, true
	}
	return PropUnknown, anteAllTrue, false
}

// stepTruth judges one boolean-layer step expression over all histories
// the monitor can observe: the current row abstracts any sampled
// environment, and $past rows additionally admit the zero rows that pad
// history before the trace starts.
func (a *Analysis) stepTruth(e verilog.Expr) tri {
	b, _, ok := a.evalProp(e, 0)
	if !ok {
		return triUnknown
	}
	return truth(b)
}

// rowVal abstracts hist[shift][net]: the sample environment for the
// current row, joined with zero for earlier rows (zero-padded history
// before the trace start).
func (a *Analysis) rowVal(net, shift int) Bits {
	if shift == 0 {
		return a.Env[net]
	}
	return Join(a.Env[net], Const(0))
}

// evalProp evaluates a property expression against the global invariant
// rows (every row abstracted by the fixpoint environment).
func (a *Analysis) evalProp(e verilog.Expr, shift int) (Bits, int, bool) {
	pe := propEnv{nl: a.nl, rows: a.rowVal}
	return pe.eval(e, shift)
}

// propEnv is an evaluation context for property expressions: rows
// resolves a (net, history shift) pair to an abstract value. The global
// classifier reads the fixpoint invariant for every row; the refined
// window walk reads per-offset environments instead (see refine.go).
type propEnv struct {
	nl   *verilog.Netlist
	rows func(net, shift int) Bits
}

// eval is the abstract mirror of sva's compileVal: identical width
// and masking rules, with tri-valued outcomes. shift is the history
// offset accumulated through $past. ok=false means the expression form
// would not compile (or is out of the analyzable fragment); callers
// must treat the result as unknown.
func (pe propEnv) eval(e verilog.Expr, shift int) (Bits, int, bool) {
	switch v := e.(type) {
	case *verilog.Number:
		w := v.Width
		if w == 0 {
			w = 32
			if v.Value >= 1<<32 {
				w = 64
			}
		}
		return Const(v.Value & verilog.WidthMask(w)), w, true

	case *verilog.Ident:
		idx := pe.nl.NetIndex(v.Name)
		if idx < 0 {
			return Bits{}, 0, false
		}
		return pe.rows(idx, shift), pe.nl.Nets[idx].Width, true

	case *verilog.Call:
		return pe.evalCall(v, shift)

	case *verilog.Index:
		base, baseW, ok := pe.eval(v.Base, shift)
		if !ok {
			return Bits{}, 0, false
		}
		if lit, isLit := litNumber(v.Idx); isLit && int(lit) >= baseW {
			return Bits{}, 0, false // compile error
		}
		idx, _, ok := pe.eval(v.Idx, shift)
		if !ok {
			return Bits{}, 0, false
		}
		if !idx.IsConst() {
			return Top(1), 1, true
		}
		if idx.Val >= 64 {
			return Const(0), 1, true
		}
		return Bits{
			Known: ((base.Known >> idx.Val) & 1) | ^uint64(1),
			Val:   (base.Val >> idx.Val) & 1,
		}, 1, true

	case *verilog.PartSelect:
		base, baseW, ok := pe.eval(v.Base, shift)
		if !ok {
			return Bits{}, 0, false
		}
		msb, ok1 := litNumber(v.MSB)
		lsb, ok2 := litNumber(v.LSB)
		if !ok1 || !ok2 || msb < lsb || int(msb) >= baseW {
			return Bits{}, 0, false
		}
		w := int(msb-lsb) + 1
		return shrConst(base, lsb).mask(w), w, true

	case *verilog.Unary:
		x, xw, ok := pe.eval(v.X, shift)
		if !ok {
			return Bits{}, 0, false
		}
		switch v.Op {
		case "~":
			return Bits{Known: x.Known, Val: ^x.Val & x.Known}.mask(xw), xw, true
		case "!":
			return triBit(truth(x).not()), 1, true
		case "-":
			if x.IsConst() {
				return Const(-x.Val).mask(xw), xw, true
			}
			return Top(xw), xw, true
		case "&":
			return redAnd(x, xw), 1, true
		case "|":
			return triBit(truth(x)), 1, true
		case "^":
			if x.IsConst() {
				return Const(parity(x.Val)), 1, true
			}
			return Top(1), 1, true
		case "~&":
			b := redAnd(x, xw)
			return Bits{Known: b.Known, Val: ^b.Val & b.Known}.mask(1), 1, true
		case "~|":
			return triBit(truth(x).not()), 1, true
		case "~^", "^~":
			if x.IsConst() {
				return Const(parity(x.Val) ^ 1), 1, true
			}
			return Top(1), 1, true
		}
		return Bits{}, 0, false

	case *verilog.Binary:
		x, xw, ok := pe.eval(v.X, shift)
		if !ok {
			return Bits{}, 0, false
		}
		y, yw, ok := pe.eval(v.Y, shift)
		if !ok {
			return Bits{}, 0, false
		}
		w := xw
		if yw > w {
			w = yw
		}
		switch v.Op {
		case "+":
			return addSub(x, y, w, true), w, true
		case "-":
			return addSub(x, y, w, false), w, true
		case "*":
			if x.IsConst() && y.IsConst() {
				return Const(x.Val * y.Val).mask(w), w, true
			}
			if (x.IsConst() && x.Val == 0) || (y.IsConst() && y.Val == 0) {
				return Const(0), w, true
			}
			return Top(w), w, true
		case "/":
			if y.IsConst() {
				if y.Val == 0 {
					return Const(0), w, true
				}
				if x.IsConst() {
					return Const(x.Val / y.Val).mask(w), w, true
				}
			}
			return Top(w), w, true
		case "%":
			if y.IsConst() {
				if y.Val == 0 {
					return Const(0), w, true
				}
				if x.IsConst() {
					return Const(x.Val % y.Val).mask(w), w, true
				}
			}
			return Top(w), w, true
		case "&":
			return Bits{
				Known: (x.Known & y.Known) | (x.Known &^ x.Val) | (y.Known &^ y.Val),
				Val:   x.Val & y.Val,
			}, w, true
		case "|":
			return Bits{Known: (x.Known & y.Known) | x.Val | y.Val, Val: x.Val | y.Val}, w, true
		case "^":
			k := x.Known & y.Known
			return Bits{Known: k, Val: (x.Val ^ y.Val) & k}, w, true
		case "~^", "^~":
			k := x.Known & y.Known
			return Bits{Known: k, Val: ^(x.Val ^ y.Val) & k}.mask(w), w, true
		case "&&":
			tx, ty := truth(x), truth(y)
			switch {
			case tx == triFalse || ty == triFalse:
				return Const(0), 1, true
			case tx == triTrue && ty == triTrue:
				return Const(1), 1, true
			}
			return Top(1), 1, true
		case "||":
			tx, ty := truth(x), truth(y)
			switch {
			case tx == triTrue || ty == triTrue:
				return Const(1), 1, true
			case tx == triFalse && ty == triFalse:
				return Const(0), 1, true
			}
			return Top(1), 1, true
		case "==", "===":
			return triBit(eqTruth(x, y)), 1, true
		case "!=", "!==":
			return triBit(eqTruth(x, y).not()), 1, true
		case "<":
			return triBit(cmpTruth(x, y, false)), 1, true
		case "<=":
			return triBit(cmpTruth(x, y, true)), 1, true
		case ">":
			return triBit(cmpTruth(y, x, false)), 1, true
		case ">=":
			return triBit(cmpTruth(y, x, true)), 1, true
		case "<<":
			if !y.IsConst() {
				return Top(xw), xw, true
			}
			if y.Val >= 64 {
				return Const(0), xw, true
			}
			return Bits{
				Known: (x.Known << y.Val) | verilog.WidthMask(int(y.Val)),
				Val:   x.Val << y.Val,
			}.mask(xw), xw, true
		case ">>":
			if !y.IsConst() {
				return Top(xw), xw, true
			}
			if y.Val >= 64 {
				return Const(0), xw, true
			}
			return shrConst(x, y.Val), xw, true
		}
		return Bits{}, 0, false

	case *verilog.Ternary:
		c, _, ok := pe.eval(v.Cond, shift)
		if !ok {
			return Bits{}, 0, false
		}
		t, tw, ok := pe.eval(v.Then, shift)
		if !ok {
			return Bits{}, 0, false
		}
		e2, ew, ok := pe.eval(v.Else, shift)
		if !ok {
			return Bits{}, 0, false
		}
		w := tw
		if ew > w {
			w = ew
		}
		switch truth(c) {
		case triTrue:
			return t, w, true
		case triFalse:
			return e2, w, true
		}
		return Join(t, e2), w, true

	case *verilog.Concat:
		acc := Const(0)
		total := 0
		for _, part := range v.Parts {
			pb, pw, ok := pe.eval(part, shift)
			if !ok {
				return Bits{}, 0, false
			}
			total += pw
			m := verilog.WidthMask(pw)
			acc = Bits{
				Known: (acc.Known << uint(pw)) | (pb.Known & m),
				Val:   (acc.Val << uint(pw)) | (pb.Val & m),
			}
		}
		if total > 64 {
			return Bits{}, 0, false
		}
		return acc, total, true
	}
	return Bits{}, 0, false
}

// evalCall mirrors sva's compileCall sampled-value functions.
func (pe propEnv) evalCall(v *verilog.Call, shift int) (Bits, int, bool) {
	if len(v.Args) == 0 {
		return Bits{}, 0, false
	}
	switch v.Name {
	case "$past":
		n := 1
		if len(v.Args) == 2 {
			lit, ok := litNumber(v.Args[1])
			if !ok {
				return Bits{}, 0, false
			}
			n = int(lit)
		}
		return pe.eval(v.Args[0], shift+n)
	case "$rose", "$fell":
		cur, _, ok := pe.eval(v.Args[0], shift)
		if !ok {
			return Bits{}, 0, false
		}
		past, _, ok := pe.eval(v.Args[0], shift+1)
		if !ok {
			return Bits{}, 0, false
		}
		c, p := bit0(cur), bit0(past)
		if v.Name == "$fell" {
			c, p = p, c
		}
		// $rose: cur bit is 1 and past bit is 0.
		switch {
		case c == triTrue && p == triFalse:
			return Const(1), 1, true
		case c == triFalse || p == triTrue:
			return Const(0), 1, true
		}
		return Top(1), 1, true
	case "$stable":
		return pe.stableChanged(v, shift, false)
	case "$changed":
		return pe.stableChanged(v, shift, true)
	}
	return Bits{}, 0, false
}

func (pe propEnv) stableChanged(v *verilog.Call, shift int, changed bool) (Bits, int, bool) {
	cur, _, ok := pe.eval(v.Args[0], shift)
	if !ok {
		return Bits{}, 0, false
	}
	past, _, ok := pe.eval(v.Args[0], shift+1)
	if !ok {
		return Bits{}, 0, false
	}
	t := eqTruth(cur, past)
	if changed {
		t = t.not()
	}
	return triBit(t), 1, true
}

// bit0 is the truth of a value's low bit (x&1 == 1).
func bit0(b Bits) tri {
	if b.Known&1 == 0 {
		return triUnknown
	}
	if b.Val&1 == 1 {
		return triTrue
	}
	return triFalse
}

func litNumber(e verilog.Expr) (uint64, bool) {
	n, ok := e.(*verilog.Number)
	if !ok {
		return 0, false
	}
	return n.Value, true
}
