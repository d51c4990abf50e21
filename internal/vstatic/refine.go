package vstatic

import (
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// Antecedent-refined classification. The quick pass in Classify judges
// each step expression against the global invariant alone, which cannot
// decide realistic reset-shaped properties like `rst == 1 |=> busy == 0`:
// busy is not globally constant, it is only forced low in the cycle after
// rst was high. classifyRefined decides exactly these by walking the
// attempt window abstractly: assume the antecedent steps hold at their
// scheduled ages (meeting each constraint into the abstract environment),
// push the refined environment through the design's transition function
// one cycle at a time, and judge the consequent steps at their ages in
// the environments the walk produces.
//
// Soundness: env_0 starts at the fixpoint invariant, which admits every
// reachable sampled environment, so it admits every attempt start. Each
// meet conditions on "this attempt's antecedent step held", which is
// exactly the hypothesis under which the consequent must be judged
// (attempts whose antecedent fails cannot violate). The abstract step
// over-approximates the concrete successor, so env_t admits the cycle-t
// environment of every attempt that completes its antecedent. Hence:
//   - a consequent statically true in env_t holds on every completing
//     attempt (PropHolds — vacuity stays open, callers must witness a
//     completing attempt concretely before claiming a proof);
//   - a contradiction while meeting an antecedent constraint means no
//     reachable trajectory satisfies the antecedent (PropVacuous);
//   - a consequent statically false in env_t fails on every completing
//     attempt (PropRefuted — callers still need a concrete witness).

// maxRefineWindow bounds the walk; sva.Compile already rejects windows
// beyond 64 cycles, so this is belt and braces.
const maxRefineWindow = 64

// classifyRefined re-judges a property the quick pass left unknown.
// anteTaut records that every antecedent step was a tautology under the
// global invariant: then every attempt completes, and a statically true
// consequent upgrades from PropHolds to PropProven.
func (a *Analysis) classifyRefined(c *sva.Compiled, anteTaut bool) PropClass {
	as := c.Assertion
	window := c.Window
	if window <= 0 || window > maxRefineWindow || len(as.Cons) == 0 {
		return PropUnknown
	}

	// The walk's rows, one per window offset, share one flat block.
	n := len(a.Env)
	block := make([]Bits, window*n)
	envs := make([]aenv, window)
	w := &walker{nl: a.nl}
	consTruth := make([]tri, len(as.Cons))
	var rangedTruths []tri
	for t := 0; t < window; t++ {
		env := aenv(block[t*n : (t+1)*n : (t+1)*n])
		if t == 0 {
			copy(env, a.Env)
		} else {
			copy(env, envs[t-1])
			w.step(env)
			driveTop(env, a.nl)
			w.settle(env)
			meetInvariant(env, a.Env)
		}
		envs[t] = env
		pe := a.walkEnv(envs, t)
		if !a.assumeAnte(w, pe, env, c, t) {
			return PropVacuous
		}
		for _, i := range c.AtAge[t].Cons {
			consTruth[i] = pe.truthOf(as.Cons[i].Expr)
		}
		if c.Ranged && t >= c.ConsLoAge && t <= c.ConsHiAge {
			rangedTruths = append(rangedTruths, pe.truthOf(as.Cons[0].Expr))
		}
	}
	return refinedVerdict(c, consTruth, rangedTruths, anteTaut)
}

// refinedVerdict combines the walk's consequent truths into a class.
func refinedVerdict(c *sva.Compiled, consTruth, rangedTruths []tri, anteTaut bool) PropClass {
	holds, refuted := true, false
	if c.Ranged {
		// A ranged consequent is existential over its ages: one
		// statically true age discharges it, and refutation needs every
		// age statically false.
		anyTrue, allFalse := false, len(rangedTruths) > 0
		for _, tr := range rangedTruths {
			if tr == triTrue {
				anyTrue = true
			}
			if tr != triFalse {
				allFalse = false
			}
		}
		holds = anyTrue
		refuted = allFalse
	} else {
		for _, tr := range consTruth {
			if tr != triTrue {
				holds = false
			}
			if tr == triFalse {
				refuted = true
			}
		}
	}
	switch {
	case holds && anteTaut:
		return PropProven
	case holds:
		return PropHolds
	case refuted:
		return PropRefuted
	}
	return PropUnknown
}

// walkEnv builds the evaluation context for window offset t: history
// shifts landing inside the walk read the refined per-offset
// environments; shifts reaching before the window start fall back to
// the invariant joined with zero (the attempt may start at any trace
// cycle, including ones whose $past history crosses the trace start).
func (a *Analysis) walkEnv(envs []aenv, t int) propEnv {
	return propEnv{nl: a.nl, rows: func(net, shift int) Bits {
		if shift <= t {
			return envs[t-shift][net]
		}
		return Join(a.Env[net], Const(0))
	}}
}

// truthOf judges one step expression in this evaluation context.
func (pe propEnv) truthOf(e verilog.Expr) tri {
	b, _, ok := pe.eval(e, 0)
	if !ok {
		return triUnknown
	}
	return truth(b)
}

// assumeAnte meets every antecedent constraint scheduled at window
// offset t into env, reporting false on contradiction (the antecedent
// is unsatisfiable: no attempt completes). Constraints are applied,
// propagated through combinational logic by a settle, and re-applied:
// the settle pushes refined inputs and registers into derived nets, and
// the second pass restores direct constraints on combinational nets the
// settle recomputed from unrefined inputs.
func (a *Analysis) assumeAnte(w *walker, pe propEnv, env aenv, c *sva.Compiled, t int) bool {
	steps := c.AtAge[t].Ante
	if len(steps) == 0 {
		return true
	}
	for _, i := range steps {
		if !a.assume(pe, env, c.Assertion.Ante[i].Expr, true) {
			return false
		}
	}
	w.settle(env)
	for _, i := range steps {
		if !a.assume(pe, env, c.Assertion.Ante[i].Expr, true) {
			return false
		}
	}
	return true
}

// assume refines env in place under the hypothesis that e evaluates
// truthily (want=true) or falsily (want=false) at the context's current
// offset. It returns false only when the hypothesis contradicts the
// abstract state — no admitted environment satisfies it. Refinement is
// best-effort: forms outside the handled fragment simply learn nothing
// (sound — the environment stays an over-approximation either way).
func (a *Analysis) assume(pe propEnv, env aenv, e verilog.Expr, want bool) bool {
	if b, _, ok := pe.eval(e, 0); ok {
		switch truth(b) {
		case triTrue:
			return want
		case triFalse:
			return !want
		}
	}
	switch v := e.(type) {
	case *verilog.Ident:
		idx := a.nl.NetIndex(v.Name)
		if idx < 0 {
			return true
		}
		if !want {
			// A falsy value is zero regardless of width.
			return meetNet(env, idx, Const(0))
		}
		if a.nl.Nets[idx].Width == 1 {
			return meetNet(env, idx, Const(1))
		}
	case *verilog.Unary:
		switch v.Op {
		case "!":
			return a.assume(pe, env, v.X, !want)
		case "|":
			return a.assume(pe, env, v.X, want)
		case "~":
			// Only a 1-bit ~x is a logical negation of x.
			if _, w, ok := pe.eval(v.X, 0); ok && w == 1 {
				return a.assume(pe, env, v.X, !want)
			}
		case "&":
			if idx, lo, w, ok := netLValue(a.nl, v.X); ok && want {
				return meetRange(env, idx, lo, w, Const(verilog.WidthMask(w)))
			}
		}
	case *verilog.Binary:
		switch v.Op {
		case "&&":
			if want {
				return a.assume(pe, env, v.X, true) && a.assume(pe, env, v.Y, true)
			}
			// A false conjunction pins the other side only when one
			// side is already known true.
			if bx, _, ok := pe.eval(v.X, 0); ok && truth(bx) == triTrue {
				return a.assume(pe, env, v.Y, false)
			}
			if by, _, ok := pe.eval(v.Y, 0); ok && truth(by) == triTrue {
				return a.assume(pe, env, v.X, false)
			}
		case "||":
			if !want {
				return a.assume(pe, env, v.X, false) && a.assume(pe, env, v.Y, false)
			}
			if bx, _, ok := pe.eval(v.X, 0); ok && truth(bx) == triFalse {
				return a.assume(pe, env, v.Y, true)
			}
			if by, _, ok := pe.eval(v.Y, 0); ok && truth(by) == triFalse {
				return a.assume(pe, env, v.X, true)
			}
		case "==", "===":
			if want {
				return a.assumeEq(pe, env, v.X, v.Y)
			}
			return a.assumeNe(pe, env, v.X, v.Y)
		case "!=", "!==":
			if want {
				return a.assumeNe(pe, env, v.X, v.Y)
			}
			return a.assumeEq(pe, env, v.X, v.Y)
		}
	}
	return true
}

// assumeEq refines both sides of an assumed-true equality: each side
// that is a plain net reference (or a constant bit/part select of one)
// meets the other side's known bits. Verilog equality zero-extends the
// narrower operand, so a wider constant either folds the compare false
// (caught by the eqTruth pre-check) or forces the extension bits, which
// the meet's width masking already encodes.
func (a *Analysis) assumeEq(pe propEnv, env aenv, x, y verilog.Expr) bool {
	bx, _, okx := pe.eval(x, 0)
	by, _, oky := pe.eval(y, 0)
	if !okx || !oky {
		return true
	}
	if eqTruth(bx, by) == triFalse {
		return false
	}
	if idx, lo, w, ok := netLValue(a.nl, x); ok {
		if !meetRange(env, idx, lo, w, by) {
			return false
		}
	}
	if idx, lo, w, ok := netLValue(a.nl, y); ok {
		if !meetRange(env, idx, lo, w, bx) {
			return false
		}
	}
	return true
}

// assumeNe handles an assumed-true disequality: decisive only for a
// 1-bit reference against a constant, where x != K pins x to the
// complementary bit value (or learns nothing when K exceeds 1).
func (a *Analysis) assumeNe(pe propEnv, env aenv, x, y verilog.Expr) bool {
	bx, _, okx := pe.eval(x, 0)
	by, _, oky := pe.eval(y, 0)
	if !okx || !oky {
		return true
	}
	if eqTruth(bx, by) == triTrue {
		return false
	}
	if ok := neBit(a.nl, env, x, by); !ok {
		return false
	}
	return neBit(a.nl, env, y, bx)
}

func neBit(nl *verilog.Netlist, env aenv, e verilog.Expr, other Bits) bool {
	idx, lo, w, ok := netLValue(nl, e)
	if !ok || w != 1 || !other.IsConst() || other.Val > 1 {
		return true
	}
	return meetRange(env, idx, lo, 1, Const(other.Val^1))
}

// netLValue recognizes the refinable reference forms: a plain net, a
// constant bit select, or a constant part select of a net. It returns
// the net index and the selected bit range.
func netLValue(nl *verilog.Netlist, e verilog.Expr) (idx, lo, w int, ok bool) {
	switch v := e.(type) {
	case *verilog.Ident:
		idx = nl.NetIndex(v.Name)
		if idx < 0 {
			return 0, 0, 0, false
		}
		return idx, 0, nl.Nets[idx].Width, true
	case *verilog.Index:
		base, isID := v.Base.(*verilog.Ident)
		bit, isLit := litNumber(v.Idx)
		if !isID || !isLit {
			return 0, 0, 0, false
		}
		idx = nl.NetIndex(base.Name)
		if idx < 0 || int(bit) >= nl.Nets[idx].Width {
			return 0, 0, 0, false
		}
		return idx, int(bit), 1, true
	case *verilog.PartSelect:
		base, isID := v.Base.(*verilog.Ident)
		msb, ok1 := litNumber(v.MSB)
		lsb, ok2 := litNumber(v.LSB)
		if !isID || !ok1 || !ok2 || msb < lsb {
			return 0, 0, 0, false
		}
		idx = nl.NetIndex(base.Name)
		if idx < 0 || int(msb) >= nl.Nets[idx].Width {
			return 0, 0, 0, false
		}
		return idx, int(lsb), int(msb-lsb) + 1, true
	}
	return 0, 0, 0, false
}

// meet intersects two abstract values. ok=false reports an empty
// intersection: the two constraints disagree on a known bit.
func meet(a, b Bits) (Bits, bool) {
	if conflict := a.Known & b.Known & (a.Val ^ b.Val); conflict != 0 {
		return Bits{}, false
	}
	return Bits{Known: a.Known | b.Known, Val: a.Val | b.Val}, true
}

// meetNet meets a constraint into one net's abstract value in place.
func meetNet(env aenv, idx int, c Bits) bool {
	m, ok := meet(env[idx], c)
	if !ok {
		return false
	}
	env[idx] = m
	return true
}

// meetRange meets val's low w bits into bits [lo, lo+w) of a net.
func meetRange(env aenv, idx, lo, w int, val Bits) bool {
	m := verilog.WidthMask(w)
	return meetNet(env, idx, Bits{
		Known: (val.Known & m) << uint(lo),
		Val:   (val.Val & m) << uint(lo),
	})
}

// meetInvariant tightens a stepped environment with the global
// invariant: successors of reachable states are reachable, so both
// abstractions admit every concrete successor. On a per-net conflict
// (possible only when the refined state set is actually empty) the
// stepped value is kept — vacuity is only ever concluded from
// antecedent constraint contradictions, never from this tightening.
func meetInvariant(env aenv, inv []Bits) {
	for i := range env {
		if m, ok := meet(env[i], inv[i]); ok {
			env[i] = m
		}
	}
}
